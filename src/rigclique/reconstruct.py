"""Label-set recovery from a bare graph and a label count.

Under the intersection model, large maximal cliques are usually single
labels. The heuristic here covers the edge set with maximal cliques by
greedy set cover and declares the chosen cliques to be labels. It reads
nothing of the model but the label count. Failure is a result, not an
exception: the caller learns how far the cover got.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .graph import Graph, LabelRepresentation, _subgraph_rows, induced_graph
from .oracle import enumerate_maximal_cliques
from .quotient import closed_neighborhood_partition


@dataclass(frozen=True)
class ReconstructionResult:
    """rep is None when no cover with at most m cliques was found. valid is
    machine-checked on every call: the reconstructed representation induces
    exactly the input graph. covered_edges and candidate_count are
    diagnostics for failed or near-missed runs."""
    rep: LabelRepresentation | None
    valid: bool
    covered_edges: int
    candidate_count: int


def reconstruct_labels(g: Graph, m: int) -> ReconstructionResult:
    """Recover a label representation that induces g, using at most m labels.

    Every maximal clique of g is a candidate. Each greedy step takes the
    candidate covering the most still-uncovered edges, preferring larger
    then lexicographically earlier cliques on ties. With m = 0 only an
    edgeless graph is recovered, as a representation with no labels.

    The maximal cliques are enumerated on the closed-neighborhood quotient,
    whose rows are g's rows of the class representatives, restricted to
    them (cross-class edges are all-or-nothing), and each is lifted to the
    sorted union of its classes. Vertices with equal closed neighborhoods
    lie in the same maximal cliques, so this is a one-to-one map onto the
    maximal cliques of g: the candidates, their count and the enumeration
    budget are those of g itself.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    classes = closed_neighborhood_partition(g).classes
    quotient = Graph(tuple(_subgraph_rows(g, [cls[0] for cls in classes])))
    candidates = [tuple(sorted(v for c in clique for v in classes[c]))
                  for clique in enumerate_maximal_cliques(quotient)]
    candidates.sort(key=lambda c: (-len(c), c))
    masks = [sum(1 << v for v in c) for c in candidates]

    # uncovered[v] masks the neighbours of v whose edge no chosen clique
    # covers yet; a clique's fresh count sees each such edge from both ends
    uncovered = list(g.bits)
    total = sum(map(int.bit_count, uncovered)) // 2
    left = total
    chosen: list[int] = []

    # lazy greedy (Minoux): fresh counts only fall, so a heap entry's count
    # bounds the candidate's current one; a top entry whose count is still
    # current is the most covering candidate, ties going to the smaller
    # index, which is the earlier, bigger clique. A k-clique starts with
    # all k(k-1) of its ordered pairs fresh.
    heap = [(-len(c) * (len(c) - 1), i) for i, c in enumerate(candidates) if len(c) >= 2]
    heapq.heapify(heap)
    while left and len(chosen) < m and heap:
        stale, best = heapq.heappop(heap)
        best_fresh = sum((uncovered[v] & masks[best]).bit_count() for v in candidates[best])
        if best_fresh != -stale:
            if best_fresh:
                heapq.heappush(heap, (-best_fresh, best))
            continue
        chosen.append(masks[best])
        for v in candidates[best]:
            uncovered[v] &= ~masks[best]
        left -= best_fresh // 2
    if left:
        return ReconstructionResult(None, False, total - left, len(candidates))

    rep = LabelRepresentation(g.n, tuple(chosen) + (0,) * (m - len(chosen)))
    valid = induced_graph(rep) == g
    return ReconstructionResult(rep, valid, total, len(candidates))


def reps_equivalent(a: LabelRepresentation, b: LabelRepresentation) -> bool:
    """True iff a and b have the same effective labels.

    Effective labels are member sets with at least two vertices; smaller
    ones induce nothing. Comparison is by multiset, so label order never
    matters. Requires equal vertex counts.
    """
    if a.n != b.n:
        raise ValueError(f"vertex counts differ: {a.n} != {b.n}")
    count_a = Counter(mask for mask in a.masks if mask.bit_count() >= 2)
    count_b = Counter(mask for mask in b.masks if mask.bit_count() >= 2)
    return count_a == count_b
