"""Benchmark for rigclique: one workload per call, timed end to end or traced.

    python3 perfbench/run.py --workload solve-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy.

``--trace 0`` runs passes until the timed calls have taken ``--seconds`` and
reports the end-to-end metrics. Trial times are divided by the host
slowdown measured beside them (see ``host_slowdown``), so they read as
seconds at the nominal speed of the host; the raw wall times are printed
beside them and kept in the results file. ``--trace 1`` runs a fixed number of passes sized
by ``--seconds`` twice, untraced then traced, requires byte-identical
outputs from both, and reports the per-layer metrics.

The last line of stdout is one JSON object; the exit code is 1 if any check
failed. A stamped results file and, for traced runs, the spans as JSON lines
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # before the workload and again after it
REF_LOOP = 60_000
REF_NOMINAL_S = 0.005  # median time of the reference loop on the 2-core box of the baseline

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "trials_per_s": "1/s",
                    "trial_p50_ms": "ms", "trial_tail_ms": "ms"}


def host_slowdown() -> float:
    """How much slower than nominal the host runs right now: the median of
    three runs of a fixed pure-Python loop, over REF_NOMINAL_S.

    On a shared 2-core host the clock speed seen by one process drifts by
    20-50% over seconds. Program time and loop time drift together, so
    dividing one by the other measures the program rather than the host.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        times.append(perf_counter() - start)
    return statistics.median(times) / REF_NOMINAL_S


def time_imports(repeats: int) -> list[float]:
    """Wall time for each of ``repeats`` fresh interpreters to import the
    package, as every CLI call does. Not scaled by the host slowdown: most
    of it is process start-up, which the reference loop does not track."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rigclique"
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(perf_counter() - start)
    return times


def tail_percentile(count: int) -> float:
    """Highest percentile of ``count`` samples with at least ten samples
    beyond it; 100 (the maximum) when there are ten or fewer."""
    return 100.0 * (count - 10) / count if count > 10 else 100.0


def tail(samples: list[float]) -> float:
    xs = sorted(samples)
    return xs[-11] if len(xs) > 10 else xs[-1]


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from disk; "unknown"
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "seed": seed}


def drive(workload, seed: int, pins: list | None, *, seconds: float | None = None,
          passes: int | None = None, tracer=None, check: bool = True) -> dict:
    """Run passes 0, 1, ... until the timed calls have taken ``seconds`` at
    nominal host speed, or exactly ``passes`` of them. Only ``execute`` is
    timed; the host slowdown is sampled between passes, and each pass gets
    the mean of the samples on either side of it. Counting the time in
    nominal seconds keeps a slow spell of the host from cutting a run short
    of the instances it would otherwise reach. On a host more than 1.5
    times slower than nominal, wall time still ends the run at 1.5 times
    ``seconds``."""
    results, failures, exhausted = [], [], []
    nominal_s = 0.0
    k = 0
    wall_limit = perf_counter() + 1.5 * (seconds or 0.0)
    before = host_slowdown()
    while (k < passes) if passes is not None else (
            k == 0 or (nominal_s < seconds and perf_counter() < wall_limit)):
        job = workload.prepare(seed, k)
        start = perf_counter()
        res = workload.execute(job, tracer)
        res.busy_s = perf_counter() - start
        after = host_slowdown()
        res.slowdown = (before + after) / 2
        before = after
        nominal_s += res.busy_s / res.slowdown
        if check:
            pin = pins[k] if pins is not None and k < len(pins) else None
            bad, spent = workload.check(job, res, pin)
            failures += [f | {"pass": k} for f in bad]
            exhausted += [e | {"pass": k} for e in spent]
        results.append(res)
        k += 1
    return {"results": results, "failures": failures, "exhausted": exhausted,
            "busy_s": sum(r.busy_s for r in results), "normalized_busy_s": nominal_s}


def trial_metrics(results: list, scale: bool) -> dict[str, float]:
    """Throughput and trial times, each divided by the host slowdown of
    its pass when ``scale`` is set, else as raw wall time."""
    def norm(t: float, slowdown: float) -> float:
        return t / slowdown if scale else t

    trial_s = [norm(t, r.slowdown) for r in results for t in r.trial_s]
    busy = sum(norm(r.busy_s, r.slowdown) for r in results)
    return {"trials_per_s": len(trial_s) / busy,
            "trial_p50_ms": 1000 * statistics.median(trial_s),
            "trial_tail_ms": 1000 * tail(trial_s)}


def end_to_end(workload, seed: int, seconds: float, pins: list | None) -> tuple[dict, dict]:
    imports = time_imports(SETUP_REPEATS)
    run = drive(workload, seed, pins, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # timed on both sides of the workload, so one slow spell weighs less
    imports += time_imports(SETUP_REPEATS)
    metrics = {"setup_s": statistics.median(imports), "peak_rss_mb": peak_rss_mb,
               **trial_metrics(run["results"], scale=True)}
    trials = sum(len(r.trial_s) for r in run["results"])
    run["extra"] = {"trials": trials,
                    "trial_tail_percentile": tail_percentile(trials),
                    "raw_wall_metrics": trial_metrics(run["results"], scale=False),
                    "host_slowdown_median": statistics.median(r.slowdown for r in run["results"])}
    return metrics, run


def per_layer(workload, seed: int, seconds: float, pins: list | None,
              spans_path: Path) -> tuple[dict, dict]:
    from spans import Tracer
    passes = max(1, round(seconds / 2 / workload.nominal_pass_s))
    workload.execute(workload.prepare(seed, 0), None)  # warm-up, so neither side pays it
    run = drive(workload, seed, pins, passes=passes)
    tracer = Tracer()
    with tracer.installed():
        traced = drive(workload, seed, None, passes=passes, tracer=tracer, check=False)
    for k, (a, b) in enumerate(zip(run["results"], traced["results"])):
        if a.output != b.output:
            run["failures"].append({"pass": k, "op": workload.name, "budget": None,
                                    "reason": "traced output differs from untraced"})
    tracer.write_jsonl(spans_path)
    metrics = tracer.layer_metrics()
    for op in ("solve", "oracle"):
        metrics[f"{op}_s"] = sum(r.op_s.get(op, 0.0) for r in run["results"])
    metrics["trace.trials"] = sum(len(r.trial_s) for r in traced["results"])
    overhead = traced["normalized_busy_s"] - run["normalized_busy_s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / run["normalized_busy_s"]
    run["extra"] = {"passes": passes, "missing_hooks": tracer.missing,
                    "untraced_s": run["busy_s"], "traced_s": traced["busy_s"]}
    return metrics, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rigclique" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/rigclique; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    import rigclique
    if Path(rigclique.__file__).resolve().parent != SRC / "rigclique":
        print(f"error: imported rigclique from {rigclique.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT)
    pins = None
    if args.seed == DEFAULT_SEED or workload.pins_hold_at_every_seed:
        pins = json.loads((HERE / "pins.json").read_text())[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, run = per_layer(workload, args.seed, args.seconds, pins,
                                 OUT / f"{tag}.spans.jsonl")
        units = _per_layer_units()
    else:
        metrics, run = end_to_end(workload, args.seed, args.seconds, pins)
        units = END_TO_END_UNITS

    attempted = sum(r.ops for r in run["results"])
    failed = min(len(run["failures"]), attempted)
    report = {
        "stamp": stamp(args.seed), "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "metrics": metrics, **run["extra"],
        "failures": run["failures"], "budget_exhausted": run["exhausted"],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    for f in run["failures"]:
        print(f"FAILED pass {f['pass']} {f['op']}: {f['reason']} (budget {f['budget']})")
    print(f"{'failed_frac':<28} {failed / attempted:.6g} fraction of {attempted} operations")
    raw = run["extra"].get("raw_wall_metrics", {})
    if not args.trace:
        print(f"{'trial_tail_ms':<28} is p{run['extra']['trial_tail_percentile']:.4g} "
              f"of {run['extra']['trials']} trials; host slowdown "
              f"{run['extra']['host_slowdown_median']:.3f} (trial times are scaled by it)")
    for name, value in metrics.items():
        wall = f"   (raw wall {raw[name]:.6g})" if name in raw else ""
        print(f"{name:<28} {value:.6g} {units[name]}{wall}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


def _per_layer_units() -> dict[str, str]:
    from spans import COUNT_NAMES, SPAN_NAMES, self_metric
    units = {}
    for name in SPAN_NAMES:
        units[self_metric(name)] = "s"
        units[f"{name}.calls"] = "count"
    units.update({name: "count" for name in COUNT_NAMES})
    units.update({"quotient.class_ratio": "ratio", "reconstruct.valid_ratio": "ratio",
                  "solve_s": "s", "oracle_s": "s", "trace.trials": "count",
                  "trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    return units


if __name__ == "__main__":
    sys.exit(main())
