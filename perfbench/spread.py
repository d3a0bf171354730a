"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload structure-mix --seeds 1-10 --seconds 20

Each seed is a separate ``run.py`` process, one after another. For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, beside the metric's bound
from BENCHMARK.json. ``--json`` keeps every run's stamped results file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c (default 1-10)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the results files of all runs here")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        report = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json")
                            .read_text())
        runs.append(report)
        print(f"seed {seed} ({time.perf_counter() - start:.1f}s wall): " + " ".join(f"{k}={v:.6g}" for k, v in report["metrics"].items()
                                          if k in bounds or args.trace), flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")

    names = runs[0]["metrics"]
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
