"""Closed-neighborhood quotients and the maximum-clique solver on top.

Vertices with equal closed neighborhoods (N[u] = N[v], both including the
vertex itself) are interchangeable for clique purposes: each equivalence
class is itself a clique, and between two classes either every cross pair is
an edge or none is. Collapsing classes gives a weighted quotient whose
maximum-weight clique lifts back to a maximum clique of the input.

That clique is found by weighted branch and bound over the quotient's
bitmask rows, not by listing maximal cliques: a quotient built from few
labels can have exponentially many of those. The search orders the
classes by degree and builds its rows from the representatives' rows in
one place.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Sequence

from .graph import Graph, GraphError, _mask, _members, _subgraph_rows, is_clique
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


def closed_neighborhood_partition(g: Graph, vertices: Iterable[int] | None = None) -> Partition:
    """Partition vertices by closed neighborhood: the given ones, in
    ascending order, or all of g's when vertices is None.

    The closed neighborhood is a canonical grouping key, so one pass
    suffices. It is keyed as its largest member beside the mask of the
    others, which is never wider than the vertex's row: N[v] as one mask
    would be v bits even for an isolated v, quadratic over all vertices.
    Scanning vertices in ascending order makes classes come out ordered by
    their smallest member. Given a set that holds each vertex's twins with
    it, the classes are those of the whole partition that lie in the set.
    A vertex out of range, repeated or out of ascending order raises
    GraphError; the check rides in the same pass.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    bits = g.bits
    n = g.n
    last = -1
    for v in range(n) if vertices is None else vertices:
        if not last < v < n:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range for n={n}")
            raise GraphError(f"vertex {v} repeated or out of ascending order")
        last = v
        row = bits[v]
        top = row.bit_length() - 1  # row's highest neighbour, -1 for none
        key = (row ^ (1 << top) | (1 << v), top) if top > v else (row, v)
        members = groups.get(key)
        if members is None:
            groups[key] = [v]
        else:
            members.append(v)
    return Partition(tuple(tuple(vs) for vs in groups.values()))


def _colour(pmask: int, weights: Sequence[int], others: Sequence[int],
            sets: list[tuple[list[int], int]] | None = None) -> list[tuple[int, int]]:
    """Greedy colouring of the nodes in pmask with weight splitting: peel
    one greedy independent set in ascending node order, charge it the
    smallest residual weight among its members, and repeat until every
    residual weight is zero. others[v] clears v and its neighbours: what
    stays independent of v.

    Returns (node, bound) pairs in the order the nodes' residual weight
    runs out, where a node's bound is the running total of charges at that
    step, so bounds are nondecreasing. Each peeled set's run-outs go in
    reverse, so the lowest node of equal bounds is branched on first. When
    sets is given, each peeled set is appended to it as (nodes, charge),
    the nodes ascending: a node's charges sum to its weight, and the
    charges of the sets that meet a clique bound its weight, since a
    clique meets each set at most once.
    """
    out: list[tuple[int, int]] = []
    residual = list(weights)
    total = 0
    rest = pmask
    while rest:
        peeled: list[int] = []
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= others[v]
            peeled.append(v)
        charge = min(map(residual.__getitem__, peeled))
        total += charge
        if sets is not None:
            sets.append((peeled, charge))
        for v in reversed(peeled):
            left = residual[v] = residual[v] - charge
            if not left:
                out.append((v, total))
                rest ^= 1 << v
    return out


def _weighted_search(g: Graph, reps: Sequence[int], sizes: Sequence[int],
                     clique: set[int], node_budget: int) -> tuple[int, ...]:
    """Maximum-weight clique of the quotient whose classes have the
    representatives reps in g and the weights sizes, in class order, as
    sorted class indices.

    Branch and bound over bitmask rows, on an explicit stack. Each node is
    bounded by _colour's greedy colouring with weight splitting: a clique
    meets each peeled set at most once, so it weighs no more than the
    bound of its last node to run out. The search branches from the
    highest bound down, and among equal bounds from the lowest node, so
    its first clique of a given weight tends to be the lexicographically
    smallest one.

    It runs on the classes renumbered by degree, highest first, as Tomita
    and Seki's MCQ starts: high-degree classes colour first, so the bounds
    are tight where the search branches. A class's quotient degree is its
    representative's degree among reps; search node i is class perm[i] in
    that order, and the rows are g's, restricted and renumbered to match.
    One search finds the best weight and a witness clique of it. A scan
    then walks the classes in index order, keeping each that extends the
    classes kept so far to a clique of the best weight: a witness member at
    once, any other class only when a search of its remaining neighbours
    finds the rest, which becomes the witness. So ties go to the
    lexicographically smallest index tuple. A search stops at its first
    clique that reaches its target: the total weight for the first, the
    best weight for the scan's. Each node coloured costs one unit of
    node_budget; running out raises SearchBudgetExceeded. The budget is the
    search's only limit, whatever the number of classes.

    The first search's root colouring is kept as its peeled sets, and the
    scan asks it first. A scan question needs a clique of weight need
    among the candidates sub; every clique in sub weighs at most the
    charges of the root sets that meet sub. When those sum to less than
    need, the question's search could find nothing and change nothing, so
    the class is passed over without a search and costs no node. The
    largest root bound among sub's nodes, one suffix of the root sets, is
    tested first, so most refusals cost one AND.

    clique, a clique of class indices, is the incumbent: the first search
    starts from its weight, so it only searches for heavier cliques, and
    closes at the root when the root's bound is no higher. Then the root
    sets prove the best weight: their charges sum to it. The answer is
    the same tuple with or without it. The caller checks that it is a
    clique.
    """
    if not reps:
        return ()
    among = _mask(reps, g.n)
    perm = sorted(range(len(reps)), key=lambda c: -(g.bits[reps[c]] & among).bit_count())
    rows = _subgraph_rows(g, [reps[c] for c in perm])
    weights = [sizes[c] for c in perm]
    budget = node_budget
    others = [~(row | (1 << v)) for v, row in enumerate(rows)]

    def colour(pmask: int,
               sets: list[tuple[list[int], int]] | None = None) -> list[tuple[int, int]]:
        # charge one node, then colour
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchBudgetExceeded(
                f"quotient search exceeded node budget {node_budget}")
        return _colour(pmask, weights, others, sets)

    witness = {v for v, c in enumerate(perm) if c in clique}  # until a search beats it

    def search(pmask: int, best: int, target: int,
               sets: list[tuple[list[int], int]] | None = None) -> int:
        # The weight of the heaviest clique in pmask, or of the first found
        # that weighs target or more, if it weighs more than best; else
        # best. Each clique found that weighs more becomes the witness.
        # The root's peeled sets go to sets when it is given.
        nonlocal witness
        # frame: [weight so far, candidates left, the node whose branch
        #         made it, the (node, bound) pairs not yet branched on, None
        #         until the frame is first visited; the root is coloured at once]
        stack = [[0, pmask, -1, colour(pmask, sets)]]
        while stack:
            frame = stack[-1]
            weight, pmask, _, coloured = frame
            if coloured is None:
                coloured = frame[3] = colour(pmask)
            if not coloured or weight + coloured[-1][1] <= best:
                stack.pop()  # every node left has a bound no higher
                continue
            v = coloured.pop()[0]
            frame[1] = pmask ^ (1 << v)
            weight += weights[v]
            sub = pmask & rows[v]
            if sub and weight < target:
                # every clique below weighs more, so only a leaf is a witness
                stack.append([weight, sub, v, None])
            elif weight > best:
                best, witness = weight, {v}.union(f[2] for f in stack[1:])
                if best >= target:
                    break
        return best

    pmask = (1 << len(perm)) - 1
    root: list[tuple[list[int], int]] = []
    # The chosen classes and the witness members not yet scanned form a
    # clique of the best weight; missing is what the chosen ones lack of it.
    missing = search(pmask, sum(weights[v] for v in witness), sum(weights), root)
    tops = list(accumulate(charge for _, charge in root))  # root bounds, ascending
    above: dict[int, int] = {}  # first set index -> the nodes of the sets from it on

    def may_reach(sub: int, need: int) -> bool:
        # Whether the root sets that meet sub are charged need or more.
        # The nodes whose root bound reaches need are those of the sets
        # from index first on; if sub has none, the sum is below need.
        first = bisect_left(tops, need)
        high = above.get(first)
        if high is None:
            high = above[first] = _mask(chain.from_iterable(
                nodes for nodes, _ in root[first:]), len(perm))
        if not sub & high:
            return False
        inside = set(_members(sub))
        return sum(charge for nodes, charge in root if not inside.isdisjoint(nodes)) >= need

    chosen: list[int] = []
    for v in sorted(range(len(perm)), key=perm.__getitem__):  # in class index order
        if not pmask >> v & 1:
            continue
        pmask ^= 1 << v
        need = missing - weights[v]
        if v not in witness and need:
            sub = pmask & rows[v]
            if not sub or not may_reach(sub, need) or search(sub, need - 1, need) < need:
                continue
        chosen.append(perm[v])
        if not need:
            break
        missing = need
        pmask &= rows[v]
    return tuple(chosen)


def _simplicial_start(g: Graph) -> list[int]:
    """The largest closed neighbourhood N[v] that is a clique, as its
    vertices, or [] when no vertex has one.

    N[v] is a clique iff every neighbour w has N[w] ⊇ N[v], which is one
    AND and one popcount per neighbour; a try stops at the first neighbour
    that fails. Vertices are tried by degree, highest first, the lowest
    vertex among equal degrees, and the first that passes wins. That is
    the start that trying one representative per class, its lowest
    member, would give: twins share a degree, so a representative is tried
    before its twins, and whether a try passes depends only on N[v], so
    the first vertex to pass is a representative. Its N[v] is a union of
    classes, since a twin of a neighbour is a neighbour too. When a label
    is a maximum clique, N[v] of a vertex that holds only that label is
    the label, so the start reaches ω.
    """
    bits = g.bits
    for v in sorted(range(g.n), key=lambda u: -bits[u].bit_count()):
        row = bits[v]
        degree = row.bit_count()
        hood = row | 1 << v
        members = [v]
        rest = row
        while rest:
            w = (rest & -rest).bit_length() - 1
            if (hood & bits[w]).bit_count() != degree:
                break
            members.append(w)
            rest ^= 1 << w
        else:
            return members
    return []


def find_max_clique(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET,
                    clique: Iterable[int] = ()) -> tuple[int, ...]:
    """Maximum clique of g via the closed-neighborhood quotient, as a sorted
    vertex tuple.

    Partition, search the weighted quotient, then take the union of the
    selected classes; the empty graph gives (). The search runs on the
    class representatives' rows of g, so no quotient graph is built. It
    raises SearchBudgetExceeded beyond node_budget search nodes, whatever
    the number of classes.

    clique, a known clique of g such as a label's member set, warm-starts
    the search: the classes it meets form a clique of the quotient, whose
    weight is the first search's starting best. Without one, the search
    starts from the largest closed neighbourhood N[v] that is a clique
    (v simplicial), found at no cost in search nodes; when a label is a
    maximum clique, N[v] of a vertex holding only that label is one. The
    answer is the same tuple with either start or none. A clique that is
    not one raises ValueError, and a vertex out of range GraphError.

    Only the vertices whose degree + 1 reaches the start's size W are
    partitioned and searched (degree pruning, as in Carraghan and Pardalos
    1990). That is exact: every member of a clique of W or more vertices
    has degree W - 1 or more, and every maximum clique has at least W.
    Twins share a degree, so the kept vertices are whole classes, and
    their classes keep the order of the full partition's; the tie rule
    then picks the same clique.
    """
    clique = set(clique)
    if not is_clique(g, clique):
        raise ValueError("incumbent is not a clique of g")
    if not clique:
        clique = set(_simplicial_start(g))
    floor = len(clique) - 1
    bits = g.bits
    classes = closed_neighborhood_partition(
        g, [v for v, row in enumerate(bits) if row.bit_count() >= floor]).classes
    met = {c for c, cls in enumerate(classes) if not clique.isdisjoint(cls)}
    chosen = _weighted_search(g, [cls[0] for cls in classes], [len(cls) for cls in classes],
                              met, node_budget)
    return tuple(sorted(v for c in chosen for v in classes[c]))
