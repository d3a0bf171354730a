"""Closed-neighborhood quotients and the maximum-clique solver on top.

Vertices with equal closed neighborhoods (N[u] = N[v], both including the
vertex itself) are interchangeable for clique purposes: each equivalence
class is itself a clique, and between two classes either every cross pair is
an edge or none is. Collapsing classes gives a weighted quotient whose
maximum-weight clique lifts back to a maximum clique of the input.

That clique is found by weighted branch and bound over the quotient's
bitmask rows, not by listing maximal cliques: a quotient built from few
labels can have exponentially many of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Graph, _pack_rows, _unpack_rows, is_clique
from .oracle import DEFAULT_NODE_BUDGET, SearchBudgetExceeded

# Unused by the package: the search is bounded by its node budget alone, and
# quotient rows are never longer than the input's rows. The benchmark still
# imports both names, so they go when its imports do.
DEFAULT_QUOTIENT_CAP = 10_000


class QuotientCapExceeded(RuntimeError):
    """The quotient has more classes than the solver is willing to search."""


@dataclass(frozen=True)
class Partition:
    """Vertex classes, each sorted, ordered by smallest member."""
    classes: tuple[tuple[int, ...], ...]


def closed_neighborhood_partition(g: Graph) -> Partition:
    """Partition vertices by closed neighborhood.

    The closed neighborhood is a canonical grouping key, so one pass
    suffices. It is keyed as its largest member beside the mask of the
    others, which is never wider than the vertex's row: N[v] as one mask
    would be v bits even for an isolated v, quadratic over all vertices.
    Scanning vertices in ascending order makes classes come out ordered by
    their smallest member.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        row = g.bits[v]
        top = max(row.bit_length() - 1, v)
        key = ((row | (1 << v)) ^ (1 << top), top) if top > v else (row, v)
        groups.setdefault(key, []).append(v)
    return Partition(tuple(tuple(vs) for vs in groups.values()))


@dataclass(frozen=True)
class QuotientGraph:
    """Weighted quotient: node k stands for partition class k, weight equals
    the class size, and an edge means every cross pair is an edge.

    Adjacency is a plain Graph on the k class nodes, so it is kept once, as
    bitmask rows; the sorted edge list is derived from them on first use.
    """
    weights: tuple[int, ...]
    graph: Graph

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.graph.edges


def quotient_graph(g: Graph, partition: Partition) -> QuotientGraph:
    """Collapse each class to one weighted node.

    Cross-class adjacency is read off one representative per class, which is
    sound because cross edges are all-or-nothing: the row of class a has bit
    b set iff the representatives of a and b are adjacent in g. Classes are
    in representative order, so that row is the representative's row of g
    with only the representative columns kept. Blocks of rows are unpacked
    to bits, those columns taken and the result packed again; each block is
    as wide as its rows' bit_length(), never n.
    """
    classes = partition.classes
    reps = np.array([cls[0] for cls in classes])
    rep_rows = [g.bits[cls[0]] for cls in classes]
    nonzero = [a for a, row in enumerate(rep_rows) if row]

    def fill(start: int, stop: int, width: int) -> np.ndarray:
        cells = _unpack_rows([rep_rows[a] for a in nonzero[start:stop]], width)
        return cells.take(reps[:np.searchsorted(reps, width)], axis=1)

    rows = [0] * len(classes)
    for a, row in zip(nonzero, _pack_rows([rep_rows[a].bit_length() for a in nonzero], fill)):
        rows[a] = row
    return QuotientGraph(tuple(len(cls) for cls in classes), Graph(len(classes), tuple(rows)))


def _renumbered_rows(rows: tuple[int, ...], perm: list[int]) -> list[int]:
    """Rows of the same graph with node i standing for node perm[i].

    Built in blocks: the rows perm[start:stop] are unpacked, their columns
    taken in perm order and the result packed again.
    """
    k = len(rows)
    columns = np.array(perm)

    def fill(start: int, stop: int, width: int) -> np.ndarray:
        return _unpack_rows([rows[c] for c in perm[start:stop]], k).take(columns, axis=1)

    return _pack_rows([k] * k, fill)


def max_weight_quotient_clique(q: QuotientGraph,
                               node_budget: int = DEFAULT_NODE_BUDGET,
                               clique: Iterable[int] = ()) -> tuple[int, ...]:
    """Maximum-weight clique of the quotient, as sorted class indices.

    Branch and bound over bitmask rows, on explicit stacks. The upper bound
    is greedy colouring with weight splitting: peel one greedy independent
    set in ascending node order, charge it the smallest residual weight
    among its members, and bound each node by the running total at the
    step its residual weight reaches zero. A clique meets each peeled set
    at most once, so it weighs no more than the bound of its last node to
    run out.

    Phase one finds the best weight, branching from the highest bound down.
    It runs on the classes renumbered by degree, highest first, the initial
    order of Tomita and Seki's MCQ: high-degree classes colour first, so
    the bounds are tight where the search branches. Phase two, in class
    index order (classes by smallest member), extends in ascending index
    until the first clique of exactly that weight, so ties go to the
    lexicographically smallest index tuple. Weights are positive, so a
    child whose colouring peels only singletons, its bound equal to its
    total weight, is a clique: when that total completes the best weight,
    phase two returns the child's candidates at once, the tuple ascending
    extension would reach. Each node of either phase costs one unit of
    node_budget; running out raises SearchBudgetExceeded. The budget is the
    search's only limit, whatever the number of classes.

    clique, a known clique of class indices, is the incumbent: phase one
    starts from its weight, so it only searches for heavier cliques, and
    closes at the root when the root's bound is no higher. The answer is
    the same tuple with or without it. A clique that is not one raises
    ValueError, and an index out of range GraphError.
    """
    clique = set(clique)
    if not is_clique(q.graph, clique):
        raise ValueError("incumbent is not a clique of the quotient")
    if q.k == 0:
        return ()
    budget = node_budget

    def node(pmask: int, others: list[int], weights: tuple[int, ...]
             ) -> tuple[list[int], list[int]]:
        # Charge one node, then colour pmask with weight splitting; returns
        # the nodes in the order their residual weight runs out, beside
        # their (nondecreasing) bounds. others[v] clears v and its
        # neighbours: what stays independent of v.
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceeded(
                f"quotient search exceeded node budget {node_budget}")
        order: list[int] = []
        bounds: list[int] = []
        residual: dict[int, int] = {}
        total = 0
        rest = pmask
        while rest:
            peeled: list[int] = []
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= others[v]
                peeled.append(v)
            charge = min(residual.get(v, weights[v]) for v in peeled)
            total += charge
            for v in peeled:
                left = residual.get(v, weights[v]) - charge
                if left:
                    residual[v] = left
                else:
                    order.append(v)
                    bounds.append(total)
                    rest ^= 1 << v
        return order, bounds

    full = (1 << q.k) - 1
    perm = sorted(range(q.k), key=lambda c: -q.graph.degree(c))
    rows = _renumbered_rows(q.graph.bits, perm)
    weights = tuple(q.weights[c] for c in perm)
    others = [~(row | (1 << v)) for v, row in enumerate(rows)]
    best = sum(q.weights[c] for c in clique)
    # frame: [weight so far, candidates, order, bounds, next index from the end]
    order, bounds = node(full, others, weights)
    stack = [[0, full, order, bounds, len(order)]]
    while stack:
        frame = stack[-1]
        weight, pmask, order, bounds, i = frame
        i -= 1
        if i < 0 or weight + bounds[i] <= best:
            stack.pop()  # every node left has a bound no higher
            continue
        v = order[i]
        frame[1] = pmask ^ (1 << v)
        frame[4] = i
        weight += weights[v]
        best = max(best, weight)
        sub = pmask & rows[v]
        if sub:
            order, bounds = node(sub, others, weights)
            stack.append([weight, sub, order, bounds, len(order)])

    weights = q.weights
    rows = q.graph.bits
    others = [~(row | (1 << v)) for v, row in enumerate(rows)]
    # frame: [weight so far, candidates above the last class taken, their weight]
    prefix: list[int] = []
    stack = [[0, full, sum(weights)]]
    while True:
        frame = stack[-1]
        weight, pmask, left = frame
        if weight + left < best:
            stack.pop()
            prefix.pop()  # some clique weighs best, so the root is never popped
            continue
        low = pmask & -pmask
        v = low.bit_length() - 1
        frame[1] = pmask ^ low
        frame[2] = left - weights[v]
        weight += weights[v]
        if weight == best:
            prefix.append(v)
            return tuple(prefix)
        sub = frame[1] & rows[v]
        if sub:
            order, bounds = node(sub, others, weights)
            if weight + bounds[-1] >= best:
                prefix.append(v)
                total = sum(weights[c] for c in order)
                if bounds[-1] == total:  # sub is a clique, and no clique beats best
                    return tuple(prefix + sorted(order))
                stack.append([weight, sub, total])


def find_max_clique(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET,
                    clique: Iterable[int] = ()) -> tuple[int, ...]:
    """Maximum clique of g via the closed-neighborhood quotient, as a sorted
    vertex tuple.

    Partition, collapse, solve the weighted quotient, then take the union of
    the selected classes; the empty graph gives (). The quotient search
    raises SearchBudgetExceeded beyond node_budget search nodes, whatever
    the number of classes.

    clique, a known clique of g such as a label's member set, warm-starts
    the search: the classes it meets form a clique of the quotient, whose
    weight is phase one's starting best. The answer is the same tuple with
    or without it. A clique that is not one raises ValueError, and a vertex
    out of range GraphError.
    """
    clique = set(clique)
    if not is_clique(g, clique):
        raise ValueError("incumbent is not a clique of g")
    partition = closed_neighborhood_partition(g)
    q = quotient_graph(g, partition)
    met = [c for c, cls in enumerate(partition.classes) if not clique.isdisjoint(cls)]
    chosen = max_weight_quotient_clique(q, node_budget=node_budget, clique=met)
    vertices: list[int] = []
    for c in chosen:
        vertices.extend(partition.classes[c])
    return tuple(sorted(vertices))
