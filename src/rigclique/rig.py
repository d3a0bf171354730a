"""Random intersection graph model.

Each of n vertices picks each of m labels independently with probability p;
two vertices are adjacent when their label sets intersect. Sampling is
stream-split per trial so trials are independent and reproducible in any
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import LabelRepresentation, _members, _pack_rows

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class RigParams:
    """Model size (n vertices, m labels) and pick probability p."""
    n: int
    m: int
    p: float


def resolve_params(n: int, m: int | None = None, p: float | None = None,
                   alpha: float | None = None, mp2: float | None = None) -> RigParams:
    """Build RigParams from exactly one of (m, alpha) and one of (p, mp2).

    alpha gives m = ceil(n ** alpha); mp2 is the product m * p**2, giving
    p = sqrt(mp2 / m). Raises ValueError on conflicting or missing choices,
    when n ** alpha is not a finite number, or when the resolved p falls
    outside [0, 1].
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if (m is None) == (alpha is None):
        raise ValueError("give exactly one of m and alpha")
    if (p is None) == (mp2 is None):
        raise ValueError("give exactly one of p and mp2")
    if m is None:
        assert alpha is not None
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        try:
            m = math.ceil(n ** alpha)
        except (OverflowError, ValueError):
            raise ValueError(f"alpha={alpha} is out of range: n**alpha overflows "
                             f"or is undefined for n={n}") from None
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if p is None:
        assert mp2 is not None
        if mp2 < 0:
            raise ValueError(f"mp2 must be >= 0, got {mp2}")
        if m == 0:
            raise ValueError("cannot derive p from mp2 when m = 0")
        p = math.sqrt(mp2 / m)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"resolved p={p} outside [0, 1]")
    return RigParams(n=n, m=m, p=float(p))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream.

    The stream is PCG64 keyed by SeedSequence((seed, trial)), so any subset
    of trials can run in any order, or in parallel, with identical draws.
    """
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))


def sample_membership(params: RigParams, seed: int, trial: int = 0) -> np.ndarray:
    """Boolean (n, m) membership matrix: cell (v, i) says vertex v holds
    label i.

    One uniform draw per (v, i) pair, vertex-major and label-ascending; the
    array fill below is bit-identical to that nested scalar loop, which is
    the reproducibility contract.
    """
    rng = trial_rng(seed, trial)
    return rng.random((params.n, params.m)) < params.p


def sample_label_representation(params: RigParams, seed: int,
                                trial: int = 0) -> LabelRepresentation:
    """Sample one label representation from the trial's stream: column i
    of the membership matrix is the mask of label i. The columns are
    copied to contiguous rows and packed through _pack_rows."""
    columns = np.ascontiguousarray(sample_membership(params, seed, trial).T)
    return LabelRepresentation(params.n, tuple(_pack_rows(columns)))


def max_clique_from_labels(rep: LabelRepresentation) -> tuple[int, ...]:
    """Largest label member set L_i, as a sorted vertex tuple.

    Ties go to the smallest label index, the first maximum. When all
    label sets are empty, the answer is the empty tuple, even though any
    single vertex would be a larger clique; this keeps the label-only rule
    exact, and callers can special-case edgeless inputs if they want.
    """
    return tuple(_members(max(rep.masks, key=int.bit_count, default=0)))
