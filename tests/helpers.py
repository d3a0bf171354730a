"""Independent reference implementations used to check the package, and
the environment that child processes run the checkout in.

The references are deliberately naive: subset enumeration, direct
definitions, no shared code with the algorithms under test.
"""

from __future__ import annotations

import os
import random
from itertools import combinations, permutations
from pathlib import Path

from rigclique import (Graph, LabelRepresentation, Partition, QuotientGraph, build_graph,
                       build_labels)

ROOT = Path(__file__).resolve().parent.parent


def checkout_env(**overrides):
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH.

    The path is absolute, so a child started in any working directory imports
    this checkout's package rather than an installed copy.
    """
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **overrides}


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


def two_triangles() -> Graph:
    # triangles {0,1,2} and {1,2,3} sharing the edge (1,2)
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def mask_is_clique(g: Graph, mask: int) -> bool:
    vs = [v for v in range(g.n) if (mask >> v) & 1]
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


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


def random_quotient(rng: random.Random, k: int, p: float, max_weight: int) -> QuotientGraph:
    edges = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p]
    return QuotientGraph(tuple(rng.randint(1, max_weight) for _ in range(k)),
                         build_graph(k, edges))


def subset_max_weight_clique(q: QuotientGraph) -> tuple[int, ...]:
    """Lexicographically smallest maximum-weight clique of a weighted
    quotient, by checking every subset of its nodes. Only sensible for
    k <= ~14."""
    joined = set(q.edges)
    best_weight, best = 0, ()
    for mask in range(1, 1 << q.k):
        nodes = tuple(c for c in range(q.k) if (mask >> c) & 1)
        if not all(pair in joined for pair in combinations(nodes, 2)):
            continue
        weight = sum(q.weights[c] for c in nodes)
        if weight > best_weight or (weight == best_weight and nodes < best):
            best_weight, best = weight, nodes
    return best


def all_maximal_cliques(g: Graph) -> set[tuple[int, ...]]:
    """Nonempty maximal cliques by checking every clique for extendability.
    The null graph has none, matching the package convention."""
    out = set()
    for mask in range(1, 1 << g.n):
        if not mask_is_clique(g, mask):
            continue
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        extendable = any(all(g.has_edge(w, v) for v in vs)
                         for w in range(g.n) if not (mask >> w) & 1)
        if not extendable:
            out.add(tuple(vs))
    return out


def brute_chordal(g: Graph) -> bool:
    """Chordality by repeated simplicial-vertex deletion."""
    alive = set(range(g.n))
    while alive:
        simplicial = None
        for v in alive:
            nb = [w for w in alive if g.has_edge(v, w)]
            if all(g.has_edge(a, b) for a, b in combinations(nb, 2)):
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
            deg = {v: sum(1 for w in vs if w != v and g.has_edge(v, w)) for v in vs}
            if any(d != 2 for d in deg.values()):
                continue
            # degrees all 2: a disjoint union of cycles; connectivity makes it one
            seen = {vs[0]}
            frontier = [vs[0]]
            while frontier:
                v = frontier.pop()
                for w in vs:
                    if w not in seen and g.has_edge(v, w):
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == size:
                return True
    return False


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    return frozenset(w for w in range(g.n) if g.has_edge(v, w)) | {v}


def pairwise_partition(g: Graph) -> Partition:
    """Closed-neighborhood partition straight from the definition: repeatedly
    take the smallest unassigned vertex and scan every other vertex for an
    equal closed neighborhood."""
    unassigned = set(range(g.n))
    classes: list[tuple[int, ...]] = []
    class_of = [0] * g.n
    while unassigned:
        v = min(unassigned)
        closed = closed_neighborhood(g, v)
        cls = [u for u in sorted(unassigned) if closed_neighborhood(g, u) == closed]
        for u in cls:
            class_of[u] = len(classes)
            unassigned.discard(u)
        classes.append(tuple(cls))
    return Partition(tuple(classes), tuple(class_of))


def quotient_rows_loop(g: Graph, partition: Partition) -> tuple[int, ...]:
    """Quotient rows one set bit at a time: bit class_of[w] for each
    representative w adjacent to the class's own representative."""
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
            row |= 1 << partition.class_of[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


def check_quotient(g: Graph, partition: Partition, q: QuotientGraph) -> None:
    """Raise AssertionError unless every class is a clique, the weights are
    the class sizes, the quotient rows are symmetric with no self bit, and
    every cross pair agrees with its quotient edge."""
    classes = partition.classes
    assert q.weights == tuple(len(cls) for cls in classes), "weights differ from class sizes"
    assert q.graph == build_graph(q.k, q.edges), "quotient rows differ from their edges"
    joined = set(q.edges)
    for cls in classes:
        for u, v in combinations(cls, 2):
            assert g.has_edge(u, v), f"class {cls} is not a clique: missing edge ({u}, {v})"
    for a, b in combinations(range(len(classes)), 2):
        expect = (a, b) in joined
        for u in classes[a]:
            for v in classes[b]:
                assert g.has_edge(u, v) == expect, \
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
