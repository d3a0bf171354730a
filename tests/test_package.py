import os
import subprocess
import sys
import types

import rigclique

from helpers import ROOT, checkout_env


def test_all_lists_each_public_name_once():
    # a name dropped from the imports but not from __all__, or the other
    # way round, breaks this
    public = {name for name, value in vars(rigclique).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(rigclique.__all__) == len(set(rigclique.__all__))
    assert set(rigclique.__all__) == public


def test_benchmark_imports_resolve():
    # the benchmark imports names from the package, some of which no package
    # code uses; dropping one fails here rather than in a benchmark run.
    # -B keeps the child from writing bytecode into the benchmark's directory.
    env = checkout_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-B", "-c", "import workloads, spans, run"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
