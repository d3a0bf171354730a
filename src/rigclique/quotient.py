"""Closed-neighborhood quotients and the maximum-clique solver on top.

Vertices with equal closed neighborhoods (N[u] = N[v], both including the
vertex itself) are interchangeable for clique purposes: each equivalence
class is itself a clique, and between two classes either every cross pair is
an edge or none is. Collapsing classes gives a weighted quotient whose
maximum-weight clique lifts back to a maximum clique of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, build_graph
from .oracle import iter_maximal_cliques

DEFAULT_QUOTIENT_CAP = 10_000


class QuotientCapExceeded(RuntimeError):
    """The quotient has more classes than the solver is willing to search."""


@dataclass(frozen=True)
class Partition:
    """Vertex classes, each sorted, ordered by smallest member; class_of maps
    every vertex to its class index."""
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


def closed_neighborhood_partition(g: Graph) -> Partition:
    """Partition vertices by closed neighborhood.

    The closed-neighborhood bitmask is a canonical grouping key, so one pass
    suffices. Scanning vertices in ascending order makes classes come out
    ordered by their smallest member.
    """
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.bits[v] | (1 << v), []).append(v)
    classes = tuple(tuple(vs) for vs in groups.values())
    class_of = [0] * g.n
    for k, vs in enumerate(classes):
        for v in vs:
            class_of[v] = k
    return Partition(classes, tuple(class_of))


@dataclass(frozen=True)
class QuotientGraph:
    """Weighted quotient: node k stands for partition class k, weight equals
    the class size, and an edge means every cross pair is an edge."""
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.weights)


def quotient_graph(g: Graph, partition: Partition) -> QuotientGraph:
    """Collapse each class to one weighted node.

    Cross-class adjacency is read off one representative per class, which is
    sound because cross edges are all-or-nothing.
    """
    classes = partition.classes
    class_of = partition.class_of
    edges: set[tuple[int, int]] = set()
    for a, cls in enumerate(classes):
        rest = g.bits[cls[0]]
        while rest:
            low = rest & -rest
            rest ^= low
            b = class_of[low.bit_length() - 1]
            if b != a:
                edges.add((a, b) if a < b else (b, a))
    return QuotientGraph(tuple(len(cls) for cls in classes), tuple(sorted(edges)))


def max_weight_quotient_clique(q: QuotientGraph,
                               cap: int = DEFAULT_QUOTIENT_CAP) -> tuple[int, ...]:
    """Maximum-weight clique of the quotient, as sorted class indices.

    All weights are positive, so some maximal clique attains the maximum;
    the search therefore enumerates maximal cliques and tracks the best
    weight. Ties go to the lexicographically smallest index tuple. Refuses
    quotients larger than cap classes.
    """
    if q.k > cap:
        raise QuotientCapExceeded(
            f"quotient has {q.k} classes, above the cap of {cap}; "
            f"the input is too far from its quotient for this solver")
    if q.k == 0:
        return ()
    skeleton = build_graph(q.k, q.edges)
    best_weight = -1
    best: tuple[int, ...] = ()
    for clique in iter_maximal_cliques(skeleton):
        weight = sum(q.weights[c] for c in clique)
        if weight > best_weight or (weight == best_weight and clique < best):
            best_weight, best = weight, clique
    return best


def find_max_clique(g: Graph, quotient_cap: int = DEFAULT_QUOTIENT_CAP) -> tuple[int, ...]:
    """Maximum clique of g via the closed-neighborhood quotient, as a sorted
    vertex tuple.

    Partition, collapse, solve the weighted quotient, then take the union of
    the selected classes. Requires at least one vertex.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    partition = closed_neighborhood_partition(g)
    q = quotient_graph(g, partition)
    chosen = max_weight_quotient_clique(q, cap=quotient_cap)
    vertices: list[int] = []
    for c in chosen:
        vertices.extend(partition.classes[c])
    return tuple(sorted(vertices))
