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

import rigclique.cli
from rigclique import (build_graph, decode_graph, decode_labels, encode_graph, encode_labels,
                       induced_graph, is_clique, resolve_params, sample_label_representation)

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


# Files the array decoder refuses, read as bytes and decoded to text for
# the line parser as Path.read_text() decodes them, under UTF-8: each with
# the exit code, stdout and stderr that solve and chordal give.
_PATH4 = "4 3\n0 1\n1 2\n2 3\n"
_SOLVED = (0, "size 2\n0 1\n", "")
_CHORDAL = (0, "chordal 1\n3 2 1 0\n", "")
_BOM_ERROR = (1, "", "error: non-numeric vertex count '\\ufeff4'\n")
_LATIN1_ERROR = (1, "", "error: 'utf-8' codec can't decode byte 0xe9 in position 21: "
                        "invalid continuation byte\n")
NON_CANONICAL_FILES = [
    ("crlf", _PATH4.replace("\n", "\r\n").encode(), _SOLVED, _CHORDAL),
    ("comment", b"# a path\n" + _PATH4.encode(), _SOLVED, _CHORDAL),
    ("utf-8 bom", b"\xef\xbb\xbf" + _PATH4.encode(), _BOM_ERROR, _BOM_ERROR),
    ("latin-1 byte", _PATH4.encode() + b"# caf\xe9\n", _LATIN1_ERROR, _LATIN1_ERROR),
]


@pytest.mark.parametrize("data, solve, chordal", [case[1:] for case in NON_CANONICAL_FILES],
                         ids=[case[0] for case in NON_CANONICAL_FILES])
def test_non_canonical_file_keeps_its_text(tmp_path, data, solve, chordal):
    (tmp_path / "g.txt").write_bytes(data)
    for command, want in (("solve", solve), ("chordal", chordal)):
        proc = subprocess.run([sys.executable, "-m", "rigclique", command, "--graph", "g.txt"],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=checkout_env(PYTHONUTF8="1"))
        assert (proc.returncode, proc.stdout, proc.stderr) == want


class TestReconstruct:
    def test_against_truth_with_output(self, tmp_path):
        run_cli("gen", "--n", "40", "--m", "5", "--p", "0.25", "--seed", "3",
                "--out-graph", "g.txt", "--out-labels", "l.txt", cwd=tmp_path)
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "5",
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
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "2", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == "valid 1\n"

    def test_probability_flag_is_usage_error(self, tmp_path):
        # recovery reads only the graph and the label count
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "2", "--p", "0.5",
                       cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_truth_of_another_vertex_count_prints_nothing(self, tmp_path):
        # the truth file is checked before reconstructing, so the error
        # leaves stdout empty and no recovered labels are written
        params = resolve_params(n=30, m=5, p=0.3)
        (tmp_path / "g.txt").write_text(
            encode_graph(induced_graph(sample_label_representation(params, seed=1))))
        (tmp_path / "l.txt").write_text(encode_labels(
            sample_label_representation(resolve_params(n=20, m=5, p=0.3), seed=1)))
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "5",
                       "--labels", "l.txt", "--out-labels", "rec.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: vertex counts differ: 30 != 20\n"
        assert not (tmp_path / "rec.txt").exists()

    def test_failed_label_write_prints_nothing(self, tmp_path):
        # the recovered labels are written before any result line, so a
        # write that fails leaves stdout empty
        params = resolve_params(n=30, m=5, p=0.3)
        rep = sample_label_representation(params, seed=1)
        (tmp_path / "g.txt").write_text(encode_graph(induced_graph(rep)))
        (tmp_path / "l.txt").write_text(encode_labels(rep))
        proc = run_cli("reconstruct", "--graph", "g.txt", "--m", "5",
                       "--labels", "l.txt", "--out-labels", "nodir/rec.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: [Errno 2] No such file or directory: "
                               "'nodir/rec.txt'\n")


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
        # trial 0 needs more than the root and errors; in trial 1 the largest
        # label is the answer, so its search closes at the root
        lines = proc.stdout.splitlines()
        assert lines[1:3] == ["0,error,,,,,", "1,ok,12,12,1,1,1.33333"]
        assert "# summary,errors,1" in lines

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

    @pytest.mark.parametrize("flags", [("--m", "3", "--p", "0"), ("--m", "3", "--p", "1"),
                                       ("--m", "3", "--mp2", "0"), ("--m", "0", "--p", "0.5")])
    def test_reconstruction_at_edge_parameters(self, tmp_path, flags):
        # no labels, labels on every vertex, and no labels to recover with:
        # each trial is a row, not an abort
        proc = run_cli("experiment", "reconstruction", "--n", "10", *flags,
                       "--trials", "2", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [row.split(",")[1] for row in proc.stdout.splitlines()[1:3]] == ["ok", "ok"]


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

    # counts of 10**15 and more fail to allocate at once on any host
    @pytest.mark.parametrize("command, flag, text, message", [
        # the array path: every endpoint fits, but no row block can be made
        ("solve", "--graph", "100000000000000000 1\n0 99999999999999999\n",
         "error: Unable to allocate "),
        # the line parser: n rows
        ("solve", "--graph", "100000000000000000 0\n", "error: out of memory"),
        ("chordal", "--graph", "# no edges\n100000000000000000 0\n", "error: out of memory"),
        # m label masks
        ("from-labels", "--labels", "1 1000000000000000\n0:\n", "error: out of memory"),
    ], ids=["array-path", "line-parser", "commented", "labels"])
    def test_impossible_count_is_runtime_failure(self, tmp_path, command, flag, text, message):
        (tmp_path / "f.txt").write_text(text)
        proc = run_cli(command, flag, "f.txt", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith(message)
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    def test_no_quotient_cap_flag(self):
        assert run_cli("solve", "--graph", "x", "--quotient-cap", "5").returncode == 2

    @pytest.mark.parametrize("args, message", [
        (("experiment", "sparse", "--n", "5", "--m", "2", "--p", "0.5", "--trials", "0"),
         "--trials must be >= 1, got 0"),
        (("experiment", "sparse", "--n", "5", "--m", "2", "--p", "0.5", "--trials", "2",
          "--jobs", "0"), "--jobs must be >= 1, got 0"),
        (("experiment", "sparse", "--n", "5", "--m", "2", "--p", "0.5", "--trials", "2",
          "--budget", "-1"), "--budget must be >= 0, got -1"),
        (("solve", "--graph", "g.txt", "--budget", "-1"), "--budget must be >= 0, got -1"),
        (("oracle", "--graph", "g.txt", "--budget", "-5"), "--budget must be >= 0, got -5"),
        # these kinds run no bounded search, so a budget would be ignored
        (("experiment", "reconstruction", "--n", "30", "--m", "3", "--p", "0.3",
          "--trials", "2", "--budget", "0"),
         "--budget applies only to single_label and sparse, not reconstruction"),
        (("experiment", "concentration", "--n", "30", "--m", "3", "--p", "0.3",
          "--trials", "2", "--budget", "5"),
         "--budget applies only to single_label and sparse, not concentration"),
    ])
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, args, message):
        (tmp_path / "g.txt").write_text(P3)
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == f"usage error: {message}\n"
        assert proc.stdout == ""

    def test_budget_zero_is_valid(self, tmp_path):
        (tmp_path / "empty.txt").write_text("0 0\n")
        (tmp_path / "g.txt").write_text(P3)
        for cmd in ("solve", "oracle"):
            assert run_cli(cmd, "--graph", "empty.txt", "--budget", "0",
                           cwd=tmp_path).returncode == 0
            refused = run_cli(cmd, "--graph", "g.txt", "--budget", "0", cwd=tmp_path)
            assert refused.returncode == 1  # a refused search, not a usage error
        proc = run_cli("experiment", "sparse", "--n", "5", "--m", "2", "--p", "0.5",
                       "--trials", "2", "--budget", "0", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


class TestInProcessReuse:
    def test_calls_in_one_process_match_first_calls(self, tmp_path, monkeypatch, capsys):
        """main keeps one parser per process: each call in a sequence that
        mixes results, a usage error and a missing file exits and prints
        exactly what the same call does as the first of a fresh process."""
        rep = sample_label_representation(resolve_params(n=60, m=8, p=0.2), seed=9, trial=0)
        (tmp_path / "g.txt").write_text(encode_graph(induced_graph(rep)))
        monkeypatch.chdir(tmp_path)
        calls = [["solve", "--graph", "g.txt"],
                 ["oracle"],
                 ["solve", "--graph", "nope.txt"],
                 ["oracle", "--graph", "g.txt"],
                 ["solve", "--graph", "g.txt"]]
        codes = []
        for args in calls:
            try:
                code = rigclique.cli.main(args)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            first = run_cli(*args, cwd=tmp_path)
            assert (code, out.out, out.err) == (first.returncode, first.stdout, first.stderr)
            codes.append(code)
        assert codes == [0, 2, 1, 0, 0]

    def test_clique_commands_see_hooks_installed_after_the_parser(self, tmp_path, monkeypatch,
                                                                   capsys):
        """solve and oracle look their solver up in this module on each call,
        and every graph command its decode_graph, so a wrapper installed
        after the cached parser is built still runs."""
        (tmp_path / "g.txt").write_text(P3)
        monkeypatch.chdir(tmp_path)
        assert rigclique.cli.main(["solve", "--graph", "g.txt"]) == 0
        calls = []
        for name in ("find_max_clique", "exact_max_clique", "decode_graph"):
            wrapped = getattr(rigclique.cli, name)

            def counted(*args, _name=name, _wrapped=wrapped, **kwargs):
                calls.append(_name)
                return _wrapped(*args, **kwargs)

            monkeypatch.setattr(rigclique.cli, name, counted)
        for command in ("solve", "oracle"):
            assert rigclique.cli.main([command, "--graph", "g.txt"]) == 0
        assert rigclique.cli.main(["chordal", "--graph", "g.txt"]) == 0
        assert rigclique.cli.main(["reconstruct", "--graph", "g.txt", "--m", "2"]) == 0
        assert calls == ["decode_graph", "find_max_clique", "decode_graph", "exact_max_clique",
                         "decode_graph", "decode_graph"]
        assert capsys.readouterr().out == ("size 2\n0 1\n" * 3 + "chordal 1\n2 1 0\n"
                                           + "valid 1\n")


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
