"""Smoke check: run every workload briefly, untraced and traced, at the
default seed, and check the benchmark's own contract.

    python3 perfbench/smoke.py            # about a minute
    python3 perfbench/smoke.py --seconds 20

For each workload it requires: exit code 0 and ``correct``; exactly the
metric names and units BENCHMARK.json lists; ``failed_frac`` on every run
and ``solve_s``/``oracle_s`` on solve-search; and spans whose children fit
inside their parents, with self times adding up to the root spans. Exits 1
on the first workload that breaks any of these, after printing all output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import nesting_problems  # noqa: E402


def run(workload: str, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    print(f"== {workload} --trace {trace}: exit {proc.returncode}")
    print(proc.stdout + proc.stderr, end="")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_workload(name: str, bench: dict, seconds: float) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run(name, seconds, trace)
        expect(result["correct"] and result["failed"] == 0, f"{name}: checks failed")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{name} --trace {trace}: metrics {got} != {want}")
        printed = {ln.split()[0] for ln in lines if ln.strip()}
        expect("failed_frac" in printed, f"{name}: failed_frac not printed")
        if trace:
            if name == "solve-search":
                expect(result["metrics"]["solve_s"]["value"] > 0
                       and result["metrics"]["oracle_s"]["value"] > 0,
                       "solve-search: solve_s and oracle_s must be measured")
            path = HERE / "out" / f"{name}-seed1-trace1.spans.jsonl"
            spans = [json.loads(ln) for ln in path.read_text().splitlines()]
            problems = nesting_problems(spans)
            expect(not problems, f"{name}: span nesting: {problems[:5]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        try:
            check_workload(workload["name"], bench, args.seconds)
        except AssertionError as exc:
            print(f"SMOKE FAILED: {exc}")
            return 1
    print("smoke ok: " + ", ".join(w["name"] for w in bench["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
