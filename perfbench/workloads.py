"""The three benchmark workloads.

Each workload is a closed loop with one caller: pass k runs only after pass
k-1 returned. ``prepare`` makes pass k's inputs from the seed alone,
``execute`` runs them against the package and is the only timed part, and
``check`` judges the outputs. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import rigclique.cli
from rigclique import (ExperimentConfig, PRESETS, find_max_clique, induced_graph,
                       resolve_params, run_experiment, sample_label_representation)
from rigclique.oracle import DEFAULT_CYCLE_STEPS, DEFAULT_MAX_CLIQUES, DEFAULT_NODE_BUDGET
from rigclique.quotient import DEFAULT_QUOTIENT_CAP

from spans import Tracer


@dataclass
class Result:
    """What one pass produced. ``output`` is compared byte for byte between
    traced and untraced runs; ``trial_s`` holds one wall time per trial.
    The runner fills in the pass's wall time and the host slowdown."""
    output: str
    trial_s: list[float]
    ops: int
    op_s: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    busy_s: float = 0.0
    slowdown: float = 1.0


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def pass_seed(seed: int, k: int) -> int:
    """64-bit master seed of pass k, derived from the workload seed."""
    digest = hashlib.sha256(f"rigclique-bench/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


LADDER_STREAM = 1204  # fixes the label structure of the solve-search instances


class SolveSearch:
    """``rigclique solve`` then ``rigclique oracle`` on one sampled graph
    file per pass, called in process through ``rigclique.cli.main``. A
    trial is one instance: both calls."""
    name = "solve-search"
    M, P, N_LO, N_HI = 10, 0.2, 200, 300
    nominal_pass_s = 0.63
    pins_hold_at_every_seed = True
    budgets = {"solve": {"quotient_cap": DEFAULT_QUOTIENT_CAP},
               "oracle": {"node_budget": DEFAULT_NODE_BUDGET}}

    def __init__(self, workdir: Path):
        self.graph_file = workdir / f"{self.name}.graph.txt"

    def prepare(self, seed: int, k: int) -> np.ndarray:
        """Write instance k of the ladder, with its vertices renamed by a
        permutation drawn from the seed, in the package's canonical graph
        format; return its adjacency matrix for the clique check. Uses
        numpy only, not the package.

        Instance k is G(n, 10, 0.2) drawn from a fixed stream, with n
        stepping through 200..300 in a stride of 61. Solve time is
        heavy-tailed over instances (a few take ten times the median), so
        runs with different seeds would otherwise differ by the instances
        they happened to draw. The renaming changes the file, the search
        order and the vertex ids of every answer, but not the clique
        number, so the pinned clique numbers hold at every seed.
        """
        n = self.N_LO + (61 * k) % (self.N_HI - self.N_LO + 1)
        rng = np.random.default_rng([LADDER_STREAM, k])
        member = (rng.random((n, self.M)) < self.P).astype(np.int32)
        perm = np.random.default_rng([seed, k]).permutation(n)
        member[perm] = member.copy()  # vertex v of the ladder becomes perm[v]
        adj = (member @ member.T) > 0
        np.fill_diagonal(adj, False)
        us, vs = np.nonzero(np.triu(adj, 1))
        lines = [f"{n} {len(us)}"]
        lines.extend(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
        self.graph_file.write_text("\n".join(lines) + "\n")
        return adj

    def execute(self, adj: np.ndarray, tracer: Tracer | None) -> Result:
        out, op_s, detail = [], {}, {}
        for cmd in ("solve", "oracle"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                start = perf_counter()
                with _span(tracer, "cli"):
                    try:
                        code = rigclique.cli.main([cmd, "--graph", str(self.graph_file)])
                    except SystemExit as exc:
                        code = exc.code
                op_s[cmd] = perf_counter() - start
            if tracer is not None:
                tracer.next_run()
            detail[cmd] = (code, stdout.getvalue(), stderr.getvalue())
            out.append(f"{cmd} exit={code}\n{stdout.getvalue()}{stderr.getvalue()}")
        return Result("".join(out), [op_s["solve"] + op_s["oracle"]], 2, op_s, detail)

    def check(self, adj: np.ndarray, res: Result, pin: int | None) -> tuple[list, list]:
        """Each clique is a clique of the sampled graph; solve and oracle
        agree on its size, and equal the instance's pinned clique number
        when there is one."""
        failures, sizes = [], {}
        for cmd in ("solve", "oracle"):
            code, stdout, stderr = res.detail[cmd]
            fail = {"op": cmd, "budget": self.budgets[cmd]}
            if code != 0:
                failures.append(fail | {"reason": f"exit {code}: {stderr.strip()}"})
                continue
            lines = stdout.splitlines()
            try:
                size = int(lines[0].removeprefix("size "))
                vertices = [int(t) for t in lines[1].split()] if len(lines) > 1 else []
            except (IndexError, ValueError):
                failures.append(fail | {"reason": f"unparsable output {stdout[:80]!r}"})
                continue
            valid = (len(set(vertices)) == len(vertices) == size
                     and all(0 <= v < len(adj) for v in vertices))
            if not valid or int(adj[np.ix_(vertices, vertices)].sum()) != size * (size - 1):
                failures.append(fail | {"reason": f"reported size {size} is not a clique"})
                continue
            sizes[cmd] = size
            if pin is not None and size != pin:
                failures.append(fail | {"reason": f"size {size} != pinned omega {pin}"})
        if len(sizes) == 2 and sizes["solve"] != sizes["oracle"]:
            failures.append({"op": "solve", "budget": self.budgets["solve"],
                             "reason": f"solve {sizes['solve']} != oracle {sizes['oracle']}"})
        return failures, []

    def pin_value(self, res: Result) -> int:
        return int(res.detail["oracle"][1].split()[1])


def _run_harness(kind: str, params, trials: int, seed: int,
                 tracer: Tracer | None) -> tuple[str, list[float]]:
    """One ``run_experiment`` call plus CSV rendering; per-trial times are
    the gaps between progress callbacks."""
    ticks: list[float] = []

    def progress(done: int) -> None:
        ticks.append(perf_counter())
        if tracer is not None:
            tracer.next_run()

    cfg = ExperimentConfig(kind=kind, params=params, trials=trials, seed=seed)
    start = perf_counter()
    with _span(tracer, "experiments"):
        csv = run_experiment(cfg, jobs=1, progress=progress).to_csv()
    if tracer is not None:
        tracer.next_run()
    return csv, [b - a for a, b in zip([start] + ticks, ticks)]


def _csv_rows(csv: str) -> list[dict[str, str]]:
    lines = [ln for ln in csv.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _row_failures(kind: str, csv: str, trials: int, budget: dict) -> list[dict]:
    rows = _csv_rows(csv)
    failures = [{"op": f"{kind} trial {r['trial']}", "budget": budget,
                 "reason": f"status={r['status']}"} for r in rows if r["status"] != "ok"]
    if len(rows) != trials:
        failures.append({"op": kind, "budget": budget,
                         "reason": f"{len(rows)} rows for {trials} trials"})
    return failures


class _Harness:
    """A workload whose passes are ``run_experiment`` calls; pass k gets a
    master seed derived from (seed, k)."""
    pins_hold_at_every_seed = False

    def __init__(self, workdir: Path):
        pass

    def prepare(self, seed: int, k: int) -> int:
        return pass_seed(seed, k)


class SingleLabelDense(_Harness):
    """``single_label`` at n=400, m=6, p=0.3: graph build and branch and
    bound, never the quotient."""
    name = "single-label-dense"
    PARAMS = resolve_params(n=400, m=6, p=0.3)
    TRIALS = 4
    nominal_pass_s = 0.7
    budget = {"oracle_budget": DEFAULT_NODE_BUDGET}

    def execute(self, seed: int, tracer: Tracer | None) -> Result:
        csv, trial_s = _run_harness("single_label", self.PARAMS, self.TRIALS, seed, tracer)
        return Result(csv, trial_s, self.TRIALS)

    def check(self, seed: int, res: Result, pin: str | None) -> tuple[list, list]:
        """Rows are ok, the CSV matches its pin, and trial 0's clique
        number equals the quotient solver's on the same sample."""
        failures = _row_failures("single_label", res.output, self.TRIALS, self.budget)
        if pin is not None and sha256(res.output) != pin:
            failures.append({"op": "single_label", "budget": self.budget,
                             "reason": "CSV differs from its pinned SHA-256"})
        row = _csv_rows(res.output)[0]
        if row["status"] == "ok":
            rep = sample_label_representation(self.PARAMS, seed, 0)
            omega = len(find_max_clique(induced_graph(rep)))
            if int(row["omega"]) != omega:
                failures.append({"op": "single_label trial 0", "budget": self.budget,
                                 "reason": f"omega {row['omega']} != quotient solver {omega}"})
        return failures, []

    def pin_value(self, res: Result) -> str:
        return sha256(res.output)


class StructureMix(_Harness):
    """``reconstruction`` at SL-100, then ``sparse`` at n=2000, m=60,
    p=0.003: clique cover, maximal-clique enumeration, chordality and the
    labelled-cycle search."""
    name = "structure-mix"
    RECONSTRUCTION = PRESETS["SL-100"]
    SPARSE = resolve_params(n=2000, m=60, p=0.003)
    TRIALS = 20
    nominal_pass_s = 0.75
    budgets = {"reconstruction": {"max_cliques": DEFAULT_MAX_CLIQUES},
               "sparse": {"cycle_budget": DEFAULT_CYCLE_STEPS}}

    def execute(self, seed: int, tracer: Tracer | None) -> Result:
        rec, rec_s = _run_harness("reconstruction", self.RECONSTRUCTION, self.TRIALS,
                                  seed, tracer)
        sparse, sparse_s = _run_harness("sparse", self.SPARSE, self.TRIALS, seed, tracer)
        return Result(rec + sparse, rec_s + sparse_s, 2 * self.TRIALS,
                      detail={"reconstruction": rec, "sparse": sparse})

    def check(self, seed: int, res: Result, pin: list[str] | None) -> tuple[list, list]:
        """Rows are ok and each CSV matches its pin. A cycle search that
        ran out of steps is not a failure, but it is written down."""
        failures = []
        for i, kind in enumerate(("reconstruction", "sparse")):
            csv = res.detail[kind]
            failures += _row_failures(kind, csv, self.TRIALS, self.budgets[kind])
            if pin is not None and sha256(csv) != pin[i]:
                failures.append({"op": kind, "budget": self.budgets[kind],
                                 "reason": "CSV differs from its pinned SHA-256"})
        exhausted = [{"op": f"sparse trial {r['trial']}", "budget": self.budgets["sparse"],
                      "reason": "cycle_status=unknown"}
                     for r in _csv_rows(res.detail["sparse"]) if r.get("cycle_status") == "unknown"]
        return failures, exhausted

    def pin_value(self, res: Result) -> list[str]:
        return [sha256(res.detail["reconstruction"]), sha256(res.detail["sparse"])]


WORKLOADS = {w.name: w for w in (SolveSearch, SingleLabelDense, StructureMix)}
