"""Independent reference implementations used to check the package, and
the environment that child processes run the checkout in.

The references are deliberately naive: subset enumeration, direct
definitions, no shared code with the algorithms under test. Two are the
package's own earlier searches over the whole graph, kept as the
references for their restricted forms: maximum cardinality search over
every vertex, and the cycle search over every vertex and label node.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from typing import NamedTuple

from rigclique import Graph, LabelRepresentation, Partition, build_graph, build_labels
from rigclique.oracle import (CYCLE_FOUND, CYCLE_NONE, CYCLE_UNKNOWN, LabeledCycle,
                              enumerate_maximal_cliques)

ROOT = Path(__file__).resolve().parent.parent


def checkout_env(**overrides):
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH.

    The path is absolute, so a child started in any working directory imports
    this checkout's package rather than an installed copy.
    """
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **overrides}


def has_edge(g: Graph, u: int, v: int) -> bool:
    return (g.bits[u] >> v) & 1 == 1


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_label_rep(rng: random.Random, n: int, m: int, p: float) -> LabelRepresentation:
    sets = [[i for i in range(m) if rng.random() < p] for _ in range(n)]
    return build_labels(n, m, sets)


def label_sets(rep: LabelRepresentation) -> tuple[frozenset[int], ...]:
    """S_v for each vertex v, read bit by bit from the label masks."""
    return tuple(frozenset(i for i in range(rep.m) if (rep.masks[i] >> v) & 1)
                 for v in range(rep.n))


def label_members(rep: LabelRepresentation) -> tuple[frozenset[int], ...]:
    """L_i for each label i, read bit by bit from its mask."""
    return tuple(frozenset(v for v in range(rep.n) if (mask >> v) & 1) for mask in rep.masks)


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(combinations(range(n), 2)))


def complete_multipartite(sizes: list[int]) -> Graph:
    """Parts of the given sizes on consecutive ids; two vertices are
    adjacent iff they lie in different parts."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return build_graph(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                                   if part[u] != part[v]])


def corona(k: int) -> Graph:
    """K_k on vertices k..2k-1, with vertex i a pendant of vertex k + i."""
    edges = list(combinations(range(k, 2 * k), 2)) + [(i, k + i) for i in range(k)]
    return build_graph(2 * k, edges)


def cocktail_party(k: int) -> Graph:
    """K_{2xk}: vertices 0..2k-1, each adjacent to all but its partner v ^ 1."""
    full = (1 << 2 * k) - 1
    return Graph(tuple(full ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(2 * k)))


def two_triangles() -> Graph:
    # triangles {0,1,2} and {1,2,3} sharing the edge (1,2)
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def mask_is_clique(g: Graph, mask: int) -> bool:
    vs = [v for v in range(g.n) if (mask >> v) & 1]
    return all(has_edge(g, u, v) for u, v in combinations(vs, 2))


def subset_max_clique(g: Graph) -> tuple[int, ...]:
    """Lexicographically smallest maximum clique by full subset enumeration.
    Only sensible for n <= ~14."""
    best_size = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best_size and mask_is_clique(g, mask):
            best_size = mask.bit_count()
    if best_size == 0:
        return ()
    winners = []
    for mask in range(1 << g.n):
        if mask.bit_count() == best_size and mask_is_clique(g, mask):
            winners.append(tuple(v for v in range(g.n) if (mask >> v) & 1))
    return min(winners)


class QuotientGraph(NamedTuple):
    """Weighted quotient: node k stands for partition class k, weight equals
    the class size, and an edge means every cross pair is an edge."""
    weights: tuple[int, ...]
    graph: Graph

    @property
    def k(self) -> int:
        return len(self.weights)


def random_quotient(rng: random.Random, k: int, p: float, max_weight: int) -> QuotientGraph:
    edges = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p]
    return QuotientGraph(tuple(rng.randint(1, max_weight) for _ in range(k)),
                         build_graph(k, edges))


def subset_max_weight_cliques(q: QuotientGraph) -> list[tuple[int, ...]]:
    """Every maximum-weight clique of a weighted quotient, in lexicographic
    order, by checking every subset of its nodes; [()] when k = 0. Only
    sensible for k <= ~14."""
    joined = set(q.graph.edges)
    best_weight, best = 0, [()]
    for mask in range(1, 1 << q.k):
        nodes = tuple(c for c in range(q.k) if (mask >> c) & 1)
        if not all(pair in joined for pair in combinations(nodes, 2)):
            continue
        weight = sum(q.weights[c] for c in nodes)
        if weight > best_weight:
            best_weight, best = weight, [nodes]
        elif weight == best_weight:
            best.append(nodes)
    return sorted(best)


def check_root_certificate(g: Graph, reps: list[int], sets: list[tuple[list[int], int]],
                           omega: int) -> None:
    """Assert that weighted independent sets prove that no clique of g
    among some closed-neighbourhood classes has more than omega vertices.

    Node i stands for the class of vertex reps[i]: every vertex of g with
    N[v] = N[reps[i]]. Each set is (list of nodes, charge). Each set's
    representatives must be pairwise non-adjacent in g, each class's
    charges must sum to its size, and all charges must sum to omega. A
    clique of g meets each set's classes in at most one class, so it has
    at most omega vertices. One row AND per set member, so linear in the
    size of g's rows."""
    hoods = [row | 1 << v for v, row in enumerate(g.bits)]
    sizes = Counter(hoods)
    assert len({hoods[v] for v in reps}) == len(reps), "two nodes share a class"
    charged = [0] * len(reps)
    for members, charge in sets:
        assert charge > 0, f"set {members} has charge {charge}"
        assert len(set(members)) == len(members), f"set {members} repeats a node"
        vertices = 0
        for i in members:
            vertices |= 1 << reps[i]
        for i in members:
            assert not g.bits[reps[i]] & vertices, f"set {members} is not independent"
            charged[i] += charge
    assert charged == [sizes[hoods[v]] for v in reps], "charges do not split the weights"
    assert sum(charge for _, charge in sets) == omega


def all_maximal_cliques(g: Graph) -> set[tuple[int, ...]]:
    """Nonempty maximal cliques by checking every clique for extendability.
    The null graph has none, matching the package convention."""
    out = set()
    for mask in range(1, 1 << g.n):
        if not mask_is_clique(g, mask):
            continue
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        extendable = any(all(has_edge(g, w, v) for v in vs)
                         for w in range(g.n) if not (mask >> w) & 1)
        if not extendable:
            out.add(tuple(vs))
    return out


def exact_intersection_number(g: Graph) -> int:
    """Minimum number of cliques covering every edge of g, over covers by
    maximal cliques (any cover clique extends to a maximal one), memoized
    on the set of still-uncovered edges. Only sensible for n <= ~8."""
    if not g.edges:
        return 0
    edge_bit = {e: k for k, e in enumerate(g.edges)}
    masks = [sum(1 << edge_bit[pair] for pair in combinations(clique, 2))
             for clique in all_maximal_cliques(g) if len(clique) > 1]

    @lru_cache(maxsize=None)
    def cover(uncovered: int) -> int:
        if not uncovered:
            return 0
        low = uncovered & -uncovered
        return 1 + min(cover(uncovered & ~mask) for mask in masks if mask & low)

    return cover((1 << len(g.edges)) - 1)


def brute_chordal(g: Graph) -> bool:
    """Chordality by repeated simplicial-vertex deletion."""
    alive = set(range(g.n))
    while alive:
        simplicial = None
        for v in alive:
            nb = [w for w in alive if has_edge(g, v, w)]
            if all(has_edge(g, a, b) for a, b in combinations(nb, 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        alive.discard(simplicial)
    return True


def has_chordless_cycle(g: Graph) -> bool:
    """Search for an induced cycle of length >= 4 over all vertex subsets.
    Only sensible for n <= ~12."""
    for size in range(4, g.n + 1):
        for vs in combinations(range(g.n), size):
            deg = {v: sum(1 for w in vs if w != v and has_edge(g, v, w)) for v in vs}
            if any(d != 2 for d in deg.values()):
                continue
            # degrees all 2: a disjoint union of cycles; connectivity makes it one
            seen = {vs[0]}
            frontier = [vs[0]]
            while frontier:
                v = frontier.pop()
                for w in vs:
                    if w not in seen and has_edge(g, v, w):
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == size:
                return True
    return False


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    return frozenset(w for w in range(g.n) if has_edge(g, v, w)) | {v}


def largest_simplicial_clique(g: Graph) -> tuple[int, ...]:
    """The largest closed neighborhood that is a clique, checked pair by
    pair, the lowest vertex's among equal sizes; () when none is."""
    best: tuple[int, ...] = ()
    for v in range(g.n):
        hood = tuple(sorted(closed_neighborhood(g, v)))
        if len(hood) > len(best) and all(has_edge(g, a, b) for a, b in combinations(hood, 2)):
            best = hood
    return best


def pairwise_partition(g: Graph) -> Partition:
    """Closed-neighborhood partition straight from the definition: repeatedly
    take the smallest unassigned vertex and scan every other vertex for an
    equal closed neighborhood."""
    unassigned = set(range(g.n))
    classes: list[tuple[int, ...]] = []
    while unassigned:
        v = min(unassigned)
        closed = closed_neighborhood(g, v)
        cls = [u for u in sorted(unassigned) if closed_neighborhood(g, u) == closed]
        unassigned.difference_update(cls)
        classes.append(tuple(cls))
    return Partition(tuple(classes))


def class_of(partition: Partition) -> tuple[int, ...]:
    """The index of each vertex's class, for a partition of 0..n-1."""
    out = [0] * sum(len(cls) for cls in partition.classes)
    for k, cls in enumerate(partition.classes):
        for v in cls:
            out[v] = k
    return tuple(out)


def quotient_rows_loop(g: Graph, partition: Partition) -> tuple[int, ...]:
    """Quotient rows one set bit at a time: bit class_of[w] for each
    representative w adjacent to the class's own representative."""
    index = class_of(partition)
    reps = 0
    for cls in partition.classes:
        reps |= 1 << cls[0]
    rows = []
    for cls in partition.classes:
        row = 0
        rest = g.bits[cls[0]] & reps
        while rest:
            low = rest & -rest
            rest ^= low
            row |= 1 << index[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


def check_quotient(g: Graph, partition: Partition, q: QuotientGraph) -> None:
    """Raise AssertionError unless every class is a clique, the weights are
    the class sizes, the quotient rows are symmetric with no self bit, and
    every cross pair agrees with its quotient edge."""
    classes = partition.classes
    assert q.weights == tuple(len(cls) for cls in classes), "weights differ from class sizes"
    assert q.graph == build_graph(q.k, q.graph.edges), "quotient rows differ from their edges"
    joined = set(q.graph.edges)
    for cls in classes:
        for u, v in combinations(cls, 2):
            assert has_edge(g, u, v), f"class {cls} is not a clique: missing edge ({u}, {v})"
    for a, b in combinations(range(len(classes)), 2):
        expect = (a, b) in joined
        for u in classes[a]:
            for v in classes[b]:
                assert has_edge(g, u, v) == expect, \
                    f"cross pair ({u}, {v}) contradicts quotient edge ({a}, {b})={expect}"


def greedy_pair_cover(g: Graph, m: int) -> tuple[list[tuple[int, ...]], int]:
    """The greedy clique cover by its definition, over edges as sets of
    pairs: candidates are all maximal cliques, larger then lexicographically
    earlier first, and each of at most m steps takes the first candidate
    covering the most uncovered edges. Returns the chosen cliques and the
    count of edges left uncovered. Only sensible for n <= ~12."""
    candidates = sorted(all_maximal_cliques(g), key=lambda c: (-len(c), c))
    uncovered = set(g.edges)
    chosen: list[tuple[int, ...]] = []
    while uncovered and len(chosen) < m:
        fresh = [len(uncovered & set(combinations(c, 2))) for c in candidates]
        best = fresh.index(max(fresh))
        if not fresh[best]:
            break
        chosen.append(candidates[best])
        uncovered -= set(combinations(candidates[best], 2))
    return chosen, len(uncovered)


def linear_scan_cover(g: Graph, m: int) -> tuple[list[int], int]:
    """reconstruct_labels' greedy cover as a plain scan: the same candidates
    (the package's maximal cliques, checked against all_maximal_cliques
    elsewhere), and each step recounts every candidate and keeps the first
    one covering the most uncovered edges. Returns the chosen clique masks
    in order and the count of edges left uncovered."""
    candidates = enumerate_maximal_cliques(g)
    candidates.sort(key=lambda c: (-len(c), c))
    masks = [sum(1 << v for v in c) for c in candidates]
    uncovered = list(g.bits)
    left = sum(map(int.bit_count, uncovered)) // 2
    chosen: list[int] = []
    while left and len(chosen) < m:
        fresh = [sum((uncovered[v] & mask).bit_count() for v in c)
                 for c, mask in zip(candidates, masks)]
        if not any(fresh):
            break
        best = fresh.index(max(fresh))
        chosen.append(masks[best])
        for v in candidates[best]:
            uncovered[v] &= ~masks[best]
        left -= fresh[best] // 2
    return chosen, left


def exhaustive_labeled_cycle_exists(rep: LabelRepresentation) -> bool:
    """Try every cyclic vertex sequence with every distinct-label assignment.
    Only sensible for n + m <= ~10."""
    for k in range(3, rep.n + 1):
        for vs in permutations(range(rep.n), k):
            if vs[0] != min(vs) or (k > 2 and vs[1] > vs[-1]):
                continue  # one representative per rotation and direction
            if _assign_labels(rep, vs):
                return True
    return False


def _assign_labels(rep: LabelRepresentation, vs: tuple[int, ...]) -> bool:
    k = len(vs)
    sets = label_sets(rep)
    used: set[int] = set()

    def go(j: int) -> bool:
        if j == k:
            return True
        shared = sets[vs[j]] & sets[vs[(j + 1) % k]]
        for lab in shared:
            if lab not in used:
                used.add(lab)
                if go(j + 1):
                    return True
                used.discard(lab)
        return False

    return go(0)


def _set_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search over every vertex of g, isolated ones
    included: each step visits an unvisited vertex adjacent to the most
    visited ones, smallest id on ties. buckets[k] masks the unvisited
    vertices adjacent to exactly k visited ones."""
    n = g.n
    weight = [0] * n
    buckets = [(1 << n) - 1] + [0] * n
    unvisited = (1 << n) - 1
    top = 0
    out: list[int] = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        out.append(v)
        for w in _set_bits(g.bits[v] & unvisited):
            k = weight[w]
            weight[w] = k + 1
            buckets[k] ^= 1 << w
            buckets[k + 1] |= 1 << w
        top += 1
    return tuple(out)


def is_elimination_order(g: Graph, elim: tuple[int, ...]) -> bool:
    """True iff the later neighbours of each vertex of elim are adjacent to
    the first of them (the parent shortcut for a perfect ordering)."""
    pos = [0] * g.n
    for i, v in enumerate(elim):
        pos[v] = i
    remaining = (1 << g.n) - 1
    for v in elim:
        remaining ^= 1 << v
        later = g.bits[v] & remaining
        if later & (later - 1) == 0:
            continue
        parent = min(_set_bits(later), key=pos.__getitem__)
        if later & ~(g.bits[parent] | 1 << parent):
            return False
    return True


def whole_graph_is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """is_chordal's contract by maximum cardinality search over all of g:
    (True, reversed visit order) when that order is perfect, else
    (False, None)."""
    elim = tuple(reversed(mcs_order(g)))
    if is_elimination_order(g, elim):
        return True, elim
    return False, None


def list_label_cycle(rep: LabelRepresentation, step_budget: int = 1_000_000
                     ) -> tuple[str, LabeledCycle | None]:
    """find_distinct_label_cycle's contract over the whole incidence graph:
    node v for every vertex and n + i for every label, with a neighbour
    list each, peeled to its 2-core, then a DFS from each core node in
    ascending order over paths of nodes above it, one step per neighbour
    looked at. The same witness and the same "unknown" cut-off."""
    n, total = rep.n, rep.n + rep.m
    adj: list[list[int]] = [[] for _ in range(total)]
    for i, mask in enumerate(rep.masks):
        for v in _set_bits(mask):
            adj[v].append(n + i)
            adj[n + i].append(v)
    degree = [len(ls) for ls in adj]
    in_core = [True] * total
    stack = [x for x in range(total) if degree[x] <= 1]
    while stack:
        x = stack.pop()
        if not in_core[x]:
            continue
        in_core[x] = False
        for y in adj[x]:
            if in_core[y]:
                degree[y] -= 1
                if degree[y] <= 1:
                    stack.append(y)
    core = [x for x in range(total) if in_core[x]]
    if not core:
        return CYCLE_NONE, None
    steps = step_budget
    for start in core:
        path = [start]
        on_path = {start}
        iters = [iter(adj[start])]
        while iters:
            stepped = False
            for w in iters[-1]:
                steps -= 1
                if steps < 0:
                    return CYCLE_UNKNOWN, None
                if w < start or not in_core[w]:
                    continue
                if w == start and len(path) >= 6:
                    if path[0] >= n:  # rotate a vertex node to the front
                        path = path[1:] + path[:1]
                    return CYCLE_FOUND, LabeledCycle(tuple(path[0::2]),
                                                     tuple(x - n for x in path[1::2]))
                if w in on_path:
                    continue
                path.append(w)
                on_path.add(w)
                iters.append(iter(adj[w]))
                stepped = True
                break
            if not stepped:
                iters.pop()
                on_path.discard(path.pop())
    return CYCLE_NONE, None
