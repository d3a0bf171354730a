"""End-to-end checks of the checkout's command line, one process per call.

Each call runs the package under ``src/`` in a child process, through
``python -m rigclique`` or through the ``rigclique`` console script that
``pyproject.toml`` declares, generated per test; nothing needs installing.
"""

import os
import shutil
import subprocess
import sys

import pytest

from rigclique import (build_graph, decode_graph, decode_labels, induced_graph,
                       is_clique, resolve_params, sample_label_representation)

from helpers import ROOT, checkout_env

P3 = "3 2\n0 1\n1 2\n"
C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "rigclique", *args],
                          capture_output=True, text=True, cwd=cwd, env=checkout_env())


class TestGen:
    def test_round_trip(self, tmp_path):
        proc = run_cli("gen", "--n", "30", "--m", "5", "--p", "0.3", "--seed", "4",
                       "--out-graph", "g.txt", "--out-labels", "l.txt", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        g = decode_graph((tmp_path / "g.txt").read_text())
        rep = decode_labels((tmp_path / "l.txt").read_text())
        assert induced_graph(rep) == g
        expected = sample_label_representation(
            resolve_params(n=30, m=5, p=0.3), seed=4, trial=0)
        assert rep == expected

    def test_deterministic_bytes(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            run_cli("gen", "--n", "20", "--m", "4", "--p", "0.2", "--seed", "1",
                    "--out-graph", name, cwd=tmp_path)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_alpha_and_mp2_forms(self, tmp_path):
        proc = run_cli("gen", "--n", "100", "--alpha", "0.5", "--mp2", "0.25",
                       "--out-labels", "l.txt", cwd=tmp_path)
        assert proc.returncode == 0
        rep = decode_labels((tmp_path / "l.txt").read_text())
        assert rep.n == 100 and rep.m == 10

    def test_no_output_flag_is_usage_error(self, tmp_path):
        proc = run_cli("gen", "--n", "5", "--m", "2", "--p", "0.5", cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage error" in proc.stderr


class TestCliqueCommands:
    def test_solve_path(self, tmp_path):
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli("solve", "--graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == "size 2\n0 1\n"

    def test_oracle_path(self, tmp_path):
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli("oracle", "--graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == "size 2\n0 1\n"

    def test_from_labels(self, tmp_path):
        (tmp_path / "l.txt").write_text("3 2\n0: 0\n1: 0 1\n2: 1\n")
        proc = run_cli("from-labels", "--labels", "l.txt", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == "size 2\n0 1\n"

    def test_solver_agrees_with_oracle_on_generated_instance(self, tmp_path):
        run_cli("gen", "--n", "60", "--m", "8", "--p", "0.2", "--seed", "9",
                "--out-graph", "g.txt", "--out-labels", "l.txt", cwd=tmp_path)
        solve = run_cli("solve", "--graph", "g.txt", cwd=tmp_path)
        oracle = run_cli("oracle", "--graph", "g.txt", cwd=tmp_path)
        labels = run_cli("from-labels", "--labels", "l.txt", cwd=tmp_path)
        assert solve.returncode == oracle.returncode == labels.returncode == 0
        assert solve.stdout.splitlines()[0] == oracle.stdout.splitlines()[0]

        g = decode_graph((tmp_path / "g.txt").read_text())
        size_line, ids_line = solve.stdout.splitlines()
        clique = tuple(int(v) for v in ids_line.split())
        assert len(clique) == int(size_line.split()[1])
        assert is_clique(g, clique)
        label_size = int(labels.stdout.splitlines()[0].split()[1])
        assert label_size <= len(clique)

    def test_deep_clique_under_default_budget(self, tmp_path):
        # K_1100: as many search levels as vertices, far past Python's
        # recursion limit; both solvers print the same clique
        n = 1100
        lines = [f"{n} {n * (n - 1) // 2}"]
        lines += [f"{u} {v}" for u in range(n) for v in range(u + 1, n)]
        (tmp_path / "g.txt").write_text("\n".join(lines) + "\n")
        expected = f"size {n}\n" + " ".join(map(str, range(n))) + "\n"
        for command in ("oracle", "solve"):
            proc = run_cli(command, "--graph", "g.txt", cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == expected

    def test_empty_graph(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 0\n")
        for command in ("solve", "oracle"):
            proc = run_cli(command, "--graph", "g.txt", cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == "size 0\n\n"

    def test_oracle_budget_refusal_is_runtime_failure(self, tmp_path):
        run_cli("gen", "--n", "40", "--m", "6", "--p", "0.4", "--seed", "2",
                "--out-graph", "g.txt", cwd=tmp_path)
        proc = run_cli("oracle", "--graph", "g.txt", "--budget", "1", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_solve_budget_refusal_is_runtime_failure(self, tmp_path):
        # C4 is its own quotient; its search needs more than the root node
        (tmp_path / "g.txt").write_text(C4)
        assert run_cli("solve", "--graph", "g.txt", cwd=tmp_path).returncode == 0
        proc = run_cli("solve", "--graph", "g.txt", "--budget", "1", cwd=tmp_path)
        assert proc.returncode == 1
        assert "node budget" in proc.stderr
        assert proc.stdout == ""


class TestChordal:
    def test_chordal_graph_prints_order(self, tmp_path):
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli("chordal", "--graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "chordal 1"
        assert sorted(int(v) for v in lines[1].split()) == [0, 1, 2]

    def test_hole_prints_no_order(self, tmp_path):
        (tmp_path / "g.txt").write_text(C4)
        proc = run_cli("chordal", "--graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == "chordal 0\n"


class TestReconstruct:
    def test_against_truth_with_output(self, tmp_path):
        run_cli("gen", "--n", "40", "--m", "5", "--p", "0.25", "--seed", "3",
                "--out-graph", "g.txt", "--out-labels", "l.txt", cwd=tmp_path)
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "5", "--p", "0.25",
                       "--labels", "l.txt", "--out-labels", "rec.txt", cwd=tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] in ("valid 1", "valid 0")
        assert lines[1] in ("equivalent 1", "equivalent 0")
        if lines[0] == "valid 1":
            g = decode_graph((tmp_path / "g.txt").read_text())
            rec = decode_labels((tmp_path / "rec.txt").read_text())
            assert induced_graph(rec) == g

    def test_without_truth_prints_only_validity(self, tmp_path):
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "2", "--p", "0.5",
                       cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == "valid 1\n"

    def test_bad_probability_is_runtime_failure(self, tmp_path):
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "2", "--p", "0",
                       cwd=tmp_path)
        assert proc.returncode == 1


class TestExperiment:
    ARGS = ("experiment", "concentration", "--n", "100", "--m", "10", "--p", "0.1",
            "--trials", "3", "--seed", "5")

    def test_stdout_and_file_match(self, tmp_path):
        to_stdout = run_cli(*self.ARGS, cwd=tmp_path)
        assert to_stdout.returncode == 0
        assert to_stdout.stderr == ""
        to_file = run_cli(*self.ARGS, "--csv", "out.csv", cwd=tmp_path)
        assert to_file.returncode == 0
        assert to_file.stdout == ""
        assert (tmp_path / "out.csv").read_text() == to_stdout.stdout

    def test_parallel_identical(self, tmp_path):
        sequential = run_cli(*self.ARGS, cwd=tmp_path)
        parallel = run_cli(*self.ARGS, "--jobs", "2", cwd=tmp_path)
        assert parallel.stdout == sequential.stdout

    def test_header_row(self, tmp_path):
        proc = run_cli(*self.ARGS, cwd=tmp_path)
        assert proc.stdout.splitlines()[0] == ("trial,status,max_label_dev,"
                                               "labels_within_bound,max_set_size,"
                                               "sets_within_bound")

    def test_budget_flag_reaches_trials(self, tmp_path):
        proc = run_cli("experiment", "single_label", "--n", "30", "--m", "4",
                       "--p", "0.3", "--trials", "2", "--seed", "0",
                       "--budget", "1", cwd=tmp_path)
        assert proc.returncode == 0
        assert "# summary,errors,2" in proc.stdout.splitlines()

    def test_single_label_with_one_large_label(self, tmp_path):
        # every vertex has the one label: a single quotient class of 1,100
        proc = run_cli("experiment", "single_label", "--n", "1100", "--m", "1",
                       "--p", "1", "--trials", "1", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1] == "0,ok,1100,1100,1,1,1"

    def test_reconstruction_with_one_large_label(self, tmp_path):
        # one label of about 1,100 members: a maximal clique far deeper
        # than Python's recursion limit
        proc = run_cli("experiment", "reconstruction", "--n", "1100", "--m", "1",
                       "--p", "0.999", "--trials", "1", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1] == "0,ok,1,1"


class TestExitCodes:
    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_flag(self):
        assert run_cli("solve", "--graph", "x", "--loud").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("solve").returncode == 2

    def test_bad_experiment_kind(self):
        assert run_cli("experiment", "cliques", "--n", "5", "--m", "2",
                       "--p", "0.5", "--trials", "1").returncode == 2

    def test_conflicting_model_flags(self):
        assert run_cli("gen", "--n", "5", "--m", "2", "--alpha", "0.5",
                       "--p", "0.5", "--out-graph", "g.txt").returncode == 2

    def test_missing_file(self, tmp_path):
        proc = run_cli("solve", "--graph", "nope.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_malformed_graph_file(self, tmp_path):
        (tmp_path / "g.txt").write_text("2 1\n1 1\n")
        proc = run_cli("solve", "--graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert "self-loop" in proc.stderr

    def test_unresolvable_params(self, tmp_path):
        proc = run_cli("gen", "--n", "10", "--m", "1", "--mp2", "4",
                       "--out-graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 1

    @pytest.mark.parametrize("alpha", ["400", "inf"])
    def test_alpha_out_of_range(self, tmp_path, alpha):
        proc = run_cli("gen", "--n", "10", "--alpha", alpha, "--p", "0.1",
                       "--out-graph", "g.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: alpha=")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_no_quotient_cap_flag(self):
        assert run_cli("solve", "--graph", "x", "--quotient-cap", "5").returncode == 2


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared ``rigclique`` command, started by name, solves P3."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        module, attr = pyproject["project"]["scripts"]["rigclique"].split(":")
        # the wrapper an installer writes for a console script
        bindir = tmp_path / "bin"
        bindir.mkdir()
        script = bindir / "rigclique"
        script.write_text(f"#!{sys.executable}\n"
                          "import sys\n"
                          f"from {module} import {attr}\n"
                          f"sys.exit({attr}())\n")
        script.chmod(0o755)
        # first on PATH, so no other rigclique on the caller's PATH is run
        path = os.pathsep.join(filter(None, [str(bindir), os.environ.get("PATH")]))
        assert shutil.which("rigclique", path=path) == str(script)

        (tmp_path / "g.txt").write_text(P3)
        proc = subprocess.run(["rigclique", "solve", "--graph", "g.txt"],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=checkout_env(PATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "size 2\n0 1\n"
