import json
import os
import re
import shlex
import subprocess
import sys
import types

import rigclique
from rigclique.cli import build_parser

from helpers import ROOT, checkout_env


def test_all_lists_each_public_name_once():
    # a name dropped from the imports but not from __all__, or the other
    # way round, breaks this
    public = {name for name, value in vars(rigclique).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(rigclique.__all__) == len(set(rigclique.__all__))
    assert set(rigclique.__all__) == public


def test_readme_command_lines_parse():
    # a flag renamed or removed in the parser but not in the README breaks this
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("rigclique ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_benchmark_imports_resolve():
    # the benchmark imports names from the package, some of which no package
    # code uses; dropping one fails here rather than in a benchmark run.
    # -B keeps the child from writing bytecode into the benchmark's directory.
    env = checkout_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-B", "-c", "import workloads, spans, run"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_process_pool():
    # every CLI call imports the package; the pool machinery loads only when
    # an experiment runs with more than one worker
    code = "import sys, rigclique; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-B", "-c", code],
                          capture_output=True, text=True, env=checkout_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# Passes 0-2 of each benchmark workload at the pins' seed, judged by the
# workload's own check against its pins: clique numbers, CSV digests and
# row statuses. Prints the failures as one JSON list.
PINNED_PASSES = """
import json, sys
from pathlib import Path
from workloads import WORKLOADS
pins = json.loads(Path(sys.argv[1]).read_text())
failures = []
for name, cls in WORKLOADS.items():
    workload = cls(Path.cwd())
    for k in range(3):
        job = workload.prepare(1, k)
        bad, _ = workload.check(job, workload.execute(job, None), pins[name][k])
        failures += [f | {"workload": name, "pass": k} for f in bad]
print(json.dumps(failures))
"""


def test_benchmark_pins_hold(tmp_path):
    # a change to any pinned CSV or stdout byte fails here, not only in a
    # benchmark run; the child works in tmp_path, so the benchmark's
    # directory gets no files
    env = checkout_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-B", "-c", PINNED_PASSES,
                           str(ROOT / "perfbench" / "pins.json")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
