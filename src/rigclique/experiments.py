"""Monte Carlo harness for the model's structural claims.

Four experiment kinds, each a per-trial measurement over independent seeded
streams:

  single_label    exact clique number vs the largest label member set
  concentration   label-set and vertex-set size bounds
  sparse          distinct-label cycles and chordality in the sparse regime
  reconstruction  label recovery from the bare graph

Results render to CSV with a fixed header per kind, one row per trial, and
a trailing "# summary," block. Re-running a config with the same seed gives
byte-identical CSV, sequential or parallel.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .graph import induced_graph, is_chordal
from .oracle import (CYCLE_FOUND, DEFAULT_CYCLE_STEPS, DEFAULT_NODE_BUDGET,
                     SearchBudgetExceeded, check_labeled_cycle, find_distinct_label_cycle)
from .quotient import find_max_clique
from .reconstruct import reconstruct_labels, reps_equivalent
from .rig import (RigParams, resolve_params, sample_label_representation,
                  sample_membership)

KINDS = ("single_label", "concentration", "sparse", "reconstruction")

PRESETS = {
    "SL-100": resolve_params(n=100, m=10, p=0.15),
    "CONC-10K": resolve_params(n=10_000, m=100, p=0.05),
    "SPARSE-500": resolve_params(n=500, m=22, p=0.001),
}

_COLUMNS = {
    "single_label": ("trial", "status", "omega", "max_label_size",
                     "omega_equals_max_label", "clique_within_one_label",
                     "omega_over_np"),
    "concentration": ("trial", "status", "max_label_dev", "labels_within_bound",
                      "max_set_size", "sets_within_bound"),
    "sparse": ("trial", "status", "cycle_status", "chordal"),
    "reconstruction": ("trial", "status", "valid", "equivalent_to_truth"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: RigParams
    trials: int
    seed: int
    node_budget: int = DEFAULT_NODE_BUDGET  # quotient-search nodes per single_label trial
    cycle_budget: int = DEFAULT_CYCLE_STEPS


@dataclass
class TrialStats:
    """Per-trial rows (raw values, keyed by column name) plus ordered
    aggregate key/value pairs."""
    kind: str
    params: RigParams
    seed: int
    rows: list[dict[str, object]]
    summary: dict[str, object]

    def to_csv(self) -> str:
        columns = _COLUMNS[self.kind]
        lines = [",".join(columns)]
        for row in self.rows:
            lines.append(",".join(_cell(row.get(name)) for name in columns))
        for key, value in self.summary.items():
            lines.append(f"# summary,{key},{_cell(value)}")
        return "\n".join(lines) + "\n"


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _single_label_trial(cfg: ExperimentConfig, trial: int) -> dict[str, object]:
    # The quotient solver returns the lexicographically smallest maximum
    # clique, the same tuple as the oracle, so clique_within_one_label does
    # not depend on which solver ran.
    rep = sample_label_representation(cfg.params, cfg.seed, trial)
    g = induced_graph(rep)
    try:
        clique = find_max_clique(g, node_budget=cfg.node_budget)
    except SearchBudgetExceeded:
        return {"trial": trial, "status": "error"}
    omega = len(clique)
    max_label = max((mask.bit_count() for mask in rep.masks), default=0)
    if max_label > omega:
        # label member sets are cliques, so this can only mean a bug
        raise RuntimeError(
            f"trial {trial}: max label size {max_label} exceeds clique number {omega}")
    clique_mask = sum(1 << v for v in clique)
    contained = any(not clique_mask & ~mask for mask in rep.masks)
    expected = cfg.params.n * cfg.params.p
    ratio = omega / expected if expected > 0 else None
    return {"trial": trial, "status": "ok", "omega": omega,
            "max_label_size": max_label,
            "omega_equals_max_label": omega == max_label,
            "clique_within_one_label": contained,
            "omega_over_np": ratio}


def label_deviation_bound(params: RigParams) -> float:
    """Allowed |L_i| deviation from n*p: three sigmas of sqrt(n*p*ln n)."""
    n, p = params.n, params.p
    if n < 1:
        return 0.0
    return 3.0 * math.sqrt(n * p * math.log(n))


def set_size_bound(params: RigParams) -> float:
    """Allowed |S_v| ceiling: m*p + 3*sqrt(m*p*ln m) + ln n."""
    n, m, p = params.n, params.m, params.p
    spread = 3.0 * math.sqrt(m * p * math.log(m)) if m >= 1 else 0.0
    slack = math.log(n) if n >= 1 else 0.0
    return m * p + spread + slack


def _concentration_trial(cfg: ExperimentConfig, trial: int) -> dict[str, object]:
    matrix = sample_membership(cfg.params, cfg.seed, trial)
    n, m, p = cfg.params.n, cfg.params.m, cfg.params.p
    expected = n * p
    label_sizes = matrix.sum(axis=0)
    set_sizes = matrix.sum(axis=1)
    max_label_dev = float(abs(label_sizes - expected).max()) if m else 0.0
    max_set_size = int(set_sizes.max()) if n else 0
    return {"trial": trial, "status": "ok",
            "max_label_dev": max_label_dev,
            "labels_within_bound": max_label_dev <= label_deviation_bound(cfg.params),
            "max_set_size": max_set_size,
            "sets_within_bound": max_set_size <= set_size_bound(cfg.params)}


def _sparse_trial(cfg: ExperimentConfig, trial: int) -> dict[str, object]:
    rep = sample_label_representation(cfg.params, cfg.seed, trial)
    status, cycle = find_distinct_label_cycle(rep, step_budget=cfg.cycle_budget)
    if status == CYCLE_FOUND:
        assert cycle is not None
        check_labeled_cycle(rep, cycle)  # witness validity is non-negotiable
    chordal, _ = is_chordal(induced_graph(rep))
    return {"trial": trial, "status": "ok",
            "cycle_status": status, "chordal": chordal}


def _reconstruction_trial(cfg: ExperimentConfig, trial: int) -> dict[str, object]:
    truth = sample_label_representation(cfg.params, cfg.seed, trial)
    g = induced_graph(truth)
    result = reconstruct_labels(g, cfg.params.m, cfg.params.p)
    equivalent = bool(result.valid and result.rep is not None
                      and reps_equivalent(result.rep, truth))
    return {"trial": trial, "status": "ok",
            "valid": result.valid, "equivalent_to_truth": equivalent}


_TRIALS: dict[str, Callable[[ExperimentConfig, int], dict[str, object]]] = {
    "single_label": _single_label_trial,
    "concentration": _concentration_trial,
    "sparse": _sparse_trial,
    "reconstruction": _reconstruction_trial,
}


def _run_one(job: tuple[ExperimentConfig, int]) -> dict[str, object]:
    cfg, trial = job
    return _TRIALS[cfg.kind](cfg, trial)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1,
                   progress: Callable[[int], None] | None = None) -> TrialStats:
    """Run all trials and aggregate.

    Trials run in a process pool of min(jobs, trials, CPU count) workers,
    or in this process when that is 1; per-trial streams make the result
    identical either way. Rows are ordered by trial index.
    """
    if cfg.kind not in KINDS:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}, expected one of {KINDS}")
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    run = _TRIALS[cfg.kind]
    rows: list[dict[str, object]] = []
    workers = min(jobs, cfg.trials, os.cpu_count() or 1)
    if workers == 1:
        for trial in range(cfg.trials):
            rows.append(run(cfg, trial))
            if progress is not None:
                progress(len(rows))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for row in pool.map(_run_one, [(cfg, t) for t in range(cfg.trials)]):
                rows.append(row)
                if progress is not None:
                    progress(len(rows))
    return TrialStats(cfg.kind, cfg.params, cfg.seed, rows, _summarize(cfg, rows))


def _summarize(cfg: ExperimentConfig, rows: list[dict[str, object]]) -> dict[str, object]:
    ok = [row for row in rows if row["status"] == "ok"]
    summary: dict[str, object] = {
        "kind": cfg.kind,
        "n": cfg.params.n,
        "m": cfg.params.m,
        "p": cfg.params.p,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "errors": len(rows) - len(ok),
    }

    def frac(count: int) -> float:
        return count / len(ok) if ok else 0.0

    if cfg.kind == "single_label":
        equal = sum(1 for r in ok if r["omega_equals_max_label"])
        contained = sum(1 for r in ok if r["clique_within_one_label"])
        ratios = [r["omega_over_np"] for r in ok if r["omega_over_np"] is not None]
        summary.update(equal_count=equal, equal_frac=frac(equal),
                       contained_count=contained, contained_frac=frac(contained),
                       mean_omega_over_np=(sum(ratios) / len(ratios)) if ratios else 0.0)
    elif cfg.kind == "concentration":
        labels_ok = sum(1 for r in ok if r["labels_within_bound"])
        sets_ok = sum(1 for r in ok if r["sets_within_bound"])
        summary.update(label_bound=label_deviation_bound(cfg.params),
                       set_bound=set_size_bound(cfg.params),
                       labels_ok_count=labels_ok, labels_ok_frac=frac(labels_ok),
                       sets_ok_count=sets_ok, sets_ok_frac=frac(sets_ok))
    elif cfg.kind == "sparse":
        chordal = sum(1 for r in ok if r["chordal"])
        summary.update(
            none_count=sum(1 for r in ok if r["cycle_status"] == "none"),
            found_count=sum(1 for r in ok if r["cycle_status"] == "found"),
            unknown_count=sum(1 for r in ok if r["cycle_status"] == "unknown"),
            chordal_count=chordal, chordal_frac=frac(chordal))
    else:
        valid = sum(1 for r in ok if r["valid"])
        equivalent = sum(1 for r in ok if r["equivalent_to_truth"])
        summary.update(valid_count=valid, valid_frac=frac(valid),
                       equivalent_count=equivalent, equivalent_frac=frac(equivalent))
    return summary
