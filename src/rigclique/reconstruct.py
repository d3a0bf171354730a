"""Label-set recovery from a bare graph.

Under the intersection model, large maximal cliques are usually single
labels. The heuristic here covers the edge set with maximal cliques by
greedy set cover and declares the chosen cliques to be labels. Failure is
a result, not an exception: the caller learns how far the cover got.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .graph import Graph, LabelRepresentation, induced_graph
from .oracle import enumerate_maximal_cliques


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


def reconstruct_labels(g: Graph, m: int, p: float) -> ReconstructionResult:
    """Recover a label representation that induces g, using at most m labels.

    Candidates are maximal cliques no smaller than n*p - 3*sqrt(n*p*ln n),
    the size window large single-label cliques concentrate in; the window is
    disabled when its lower edge is 2 or less, since then it filters
    nothing useful. Each greedy step takes the candidate covering the most
    still-uncovered edges, preferring larger then lexicographically earlier
    cliques on ties.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be strictly between 0 and 1, got {p}")
    candidates = enumerate_maximal_cliques(g)
    expected = g.n * p
    if g.n >= 1:
        floor = expected - 3.0 * math.sqrt(expected * math.log(g.n))
    else:
        floor = 0.0
    if floor > 2.0:
        candidates = [c for c in candidates if len(c) >= floor]
    candidates.sort(key=lambda c: (-len(c), c))
    masks = [sum(1 << v for v in c) for c in candidates]

    # uncovered[v] masks the neighbours of v whose edge no chosen clique
    # covers yet; a clique's fresh count sees each such edge from both ends
    uncovered = list(g.bits)
    total = sum(map(int.bit_count, uncovered)) // 2
    left = total
    chosen: list[int] = []
    while left and len(chosen) < m:
        best = -1
        best_fresh = 0
        for i, (clique, mask) in enumerate(zip(candidates, masks)):
            fresh = sum((uncovered[v] & mask).bit_count() for v in clique)
            if fresh > best_fresh:  # ties keep the earlier, bigger clique
                best, best_fresh = i, fresh
        if best < 0:
            break  # leftovers sit outside every candidate
        chosen.append(masks[best])
        for v in candidates[best]:
            uncovered[v] &= ~masks[best]
        left -= best_fresh // 2
    if left:
        return ReconstructionResult(None, False, total - left, len(candidates))

    rep = LabelRepresentation(g.n, m, tuple(chosen) + (0,) * (m - len(chosen)))
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
