"""Regenerate pins.json: the expected outputs of the first passes of each
workload at the default seed.

    python3 perfbench/pin.py [workload ...]   # default: every workload

solve-search pins the clique number of each ladder instance (solve and
oracle must agree before it is pinned; it holds at every seed); the harness
workloads pin the SHA-256 of each CSV at the default seed. Re-pin only when
a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import run

PASSES = {"solve-search": 128, "single-label-dense": 128, "structure-mix": 96}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS
    run.OUT.mkdir(exist_ok=True)
    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    for name in sys.argv[1:] or PASSES:
        passes = PASSES[name]
        workload = WORKLOADS[name](run.OUT)
        values = []
        for k in range(passes):
            job = workload.prepare(run.DEFAULT_SEED, k)
            res = workload.execute(job, None)
            failures, _ = workload.check(job, res, None)
            if failures:
                print(f"{name} pass {k}: {failures}", file=sys.stderr)
                return 1
            values.append(workload.pin_value(res))
        pins[name] = values
        print(f"{name}: pinned {passes} passes", file=sys.stderr)
    path.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
