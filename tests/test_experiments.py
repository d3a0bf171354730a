import math

import pytest

import rigclique.experiments as experiments
from rigclique import (PRESETS, ExperimentConfig, RigParams, exact_max_clique,
                       induced_graph, label_deviation_bound, resolve_params,
                       run_experiment, sample_label_representation, set_size_bound)

from helpers import label_members


def summary_consistent(stats):
    """Aggregate counts equal sums over rows; fractions stay in [0, 1]."""
    ok = [r for r in stats.rows if r["status"] == "ok"]
    assert stats.summary["errors"] == len(stats.rows) - len(ok)
    assert stats.summary["trials"] == len(stats.rows)
    for key, value in stats.summary.items():
        if key.endswith("_count"):
            assert 0 <= value <= len(ok)
        if key.endswith("_frac"):
            assert 0.0 <= value <= 1.0


class TestPresets:
    def test_values(self):
        assert PRESETS["SL-100"] == resolve_params(n=100, m=10, p=0.15)
        assert PRESETS["CONC-10K"] == resolve_params(n=10_000, m=100, p=0.05)
        assert PRESETS["SPARSE-500"] == resolve_params(n=500, m=22, p=0.001)

    def test_bounds_at_conc_10k(self):
        params = PRESETS["CONC-10K"]
        assert format(label_deviation_bound(params), ".6g") == "203.584"
        assert format(set_size_bound(params), ".6g") == "28.6059"
        assert label_deviation_bound(params) == pytest.approx(
            3 * math.sqrt(500 * math.log(10_000)))


class TestConfigValidation:
    def test_unknown_kind(self):
        cfg = ExperimentConfig("cliques", resolve_params(n=4, m=2, p=0.5),
                               trials=1, seed=0)
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment(cfg)

    def test_zero_trials(self):
        cfg = ExperimentConfig("sparse", resolve_params(n=4, m=2, p=0.5),
                               trials=0, seed=0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_experiment(cfg)

    def test_zero_jobs(self):
        cfg = ExperimentConfig("sparse", resolve_params(n=4, m=2, p=0.5),
                               trials=1, seed=0)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiment(cfg, jobs=0)


class TestSingleLabelKind:
    def test_one_trial_row_shape(self):
        cfg = ExperimentConfig("single_label", PRESETS["SL-100"], trials=1, seed=7)
        stats = run_experiment(cfg)
        row = stats.rows[0]
        assert row["status"] == "ok"
        assert row["omega"] >= row["max_label_size"] >= 1
        assert isinstance(row["omega_equals_max_label"], bool)
        assert isinstance(row["clique_within_one_label"], bool)
        assert row["omega_over_np"] == pytest.approx(row["omega"] / 15.0)
        summary_consistent(stats)

    def test_degenerate_p_zero(self):
        # no labels chosen at all: the clique number is still 1 but no label
        # reaches it, and the expected-size ratio has no denominator
        cfg = ExperimentConfig("single_label", resolve_params(n=3, m=2, p=0.0),
                               trials=1, seed=5)
        csv = run_experiment(cfg).to_csv()
        lines = csv.splitlines()
        assert lines[0] == ("trial,status,omega,max_label_size,"
                            "omega_equals_max_label,clique_within_one_label,"
                            "omega_over_np")
        assert lines[1] == "0,ok,1,0,0,0,"

    def test_oracle_refusal_becomes_error_row(self):
        cfg = ExperimentConfig("single_label", PRESETS["SL-100"], trials=2,
                               seed=1, node_budget=1)
        stats = run_experiment(cfg)
        assert [r["status"] for r in stats.rows] == ["error", "error"]
        assert stats.to_csv().splitlines()[1] == "0,error,,,,,"
        assert stats.summary["errors"] == 2
        assert stats.summary["equal_frac"] == 0.0
        summary_consistent(stats)

    def test_no_vertices(self):
        # the quotient solver needs a vertex; the empty graph's clique is empty
        cfg = ExperimentConfig("single_label", resolve_params(n=0, m=2, p=0.5),
                               trials=1, seed=3)
        assert run_experiment(cfg).to_csv().splitlines()[1] == "0,ok,0,0,1,1,"

    def test_rows_match_oracle_at_sl_100(self):
        # the rows come from the quotient solver; recompute them on G with
        # the independent branch and bound
        params = PRESETS["SL-100"]
        stats = run_experiment(ExperimentConfig("single_label", params, trials=20, seed=1))
        for trial, row in enumerate(stats.rows):
            rep = sample_label_representation(params, 1, trial)
            clique = set(exact_max_clique(induced_graph(rep)))
            assert row["status"] == "ok"
            assert row["omega"] == len(clique)
            assert row["clique_within_one_label"] == any(clique <= s
                                                         for s in label_members(rep))


class TestConcentrationKind:
    def test_degenerate_p_zero_flags_true(self):
        cfg = ExperimentConfig("concentration", resolve_params(n=50, m=5, p=0.0),
                               trials=3, seed=0)
        stats = run_experiment(cfg)
        for row in stats.rows:
            assert row["max_label_dev"] == 0.0
            assert row["max_set_size"] == 0
            assert row["labels_within_bound"] is True
            assert row["sets_within_bound"] is True
        assert stats.summary["labels_ok_count"] == 3
        assert stats.summary["sets_ok_count"] == 3
        summary_consistent(stats)

    def test_rows_match_flag_formulas(self):
        params = resolve_params(n=300, m=30, p=0.1)
        cfg = ExperimentConfig("concentration", params, trials=5, seed=9)
        stats = run_experiment(cfg)
        for row in stats.rows:
            assert row["labels_within_bound"] == (
                row["max_label_dev"] <= label_deviation_bound(params))
            assert row["sets_within_bound"] == (
                row["max_set_size"] <= set_size_bound(params))
        assert stats.summary["label_bound"] == pytest.approx(
            label_deviation_bound(params))
        summary_consistent(stats)


class TestSparseKind:
    def test_rows_and_counts(self):
        cfg = ExperimentConfig("sparse", resolve_params(n=60, m=10, p=0.01),
                               trials=6, seed=3)
        stats = run_experiment(cfg)
        for row in stats.rows:
            assert row["cycle_status"] in ("none", "found", "unknown")
            assert isinstance(row["chordal"], bool)
        total = (stats.summary["none_count"] + stats.summary["found_count"]
                 + stats.summary["unknown_count"])
        assert total == 6
        summary_consistent(stats)

    def test_budget_zero_reports_unknown(self):
        # a dense rep certainly holds a cycle but zero steps cannot find it
        cfg = ExperimentConfig("sparse", resolve_params(n=12, m=6, p=0.9),
                               trials=2, seed=0, cycle_budget=0)
        stats = run_experiment(cfg)
        assert all(r["cycle_status"] == "unknown" for r in stats.rows)
        assert stats.summary["unknown_count"] == 2


class TestReconstructionKind:
    def test_rows_and_counts(self):
        cfg = ExperimentConfig("reconstruction", resolve_params(n=30, m=4, p=0.3),
                               trials=5, seed=2)
        stats = run_experiment(cfg)
        for row in stats.rows:
            assert isinstance(row["valid"], bool)
            assert isinstance(row["equivalent_to_truth"], bool)
            if row["equivalent_to_truth"]:
                assert row["valid"]
        assert stats.summary["equivalent_count"] <= stats.summary["valid_count"]
        summary_consistent(stats)


class TestCsvRendering:
    def test_structure(self):
        cfg = ExperimentConfig("concentration", resolve_params(n=100, m=10, p=0.2),
                               trials=4, seed=6)
        csv = run_experiment(cfg).to_csv()
        assert csv.endswith("\n")
        lines = csv.splitlines()
        assert lines[0] == ("trial,status,max_label_dev,labels_within_bound,"
                            "max_set_size,sets_within_bound")
        data = lines[1:5]
        assert [line.split(",")[0] for line in data] == ["0", "1", "2", "3"]
        assert all(line.startswith("# summary,") for line in lines[5:])

    def test_six_significant_digits(self):
        cfg = ExperimentConfig("concentration", PRESETS["CONC-10K"], trials=1, seed=0)
        lines = run_experiment(cfg).to_csv().splitlines()
        assert "# summary,label_bound,203.584" in lines
        assert "# summary,set_bound,28.6059" in lines


class TestReproducibility:
    def test_same_config_same_bytes(self):
        cfg = ExperimentConfig("reconstruction", resolve_params(n=25, m=3, p=0.3),
                               trials=5, seed=44)
        assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()

    def test_different_seed_differs(self):
        params = resolve_params(n=200, m=20, p=0.1)
        a = ExperimentConfig("concentration", params, trials=4, seed=0)
        b = ExperimentConfig("concentration", params, trials=4, seed=1)
        assert run_experiment(a).to_csv() != run_experiment(b).to_csv()

    def test_parallel_equals_sequential(self):
        cfg = ExperimentConfig("concentration", resolve_params(n=150, m=15, p=0.1),
                               trials=6, seed=8)
        assert run_experiment(cfg, jobs=2).to_csv() == run_experiment(cfg).to_csv()

    @pytest.mark.parametrize("jobs, trials, cpus, started", [
        (500, 3, 64, [3]),     # no more workers than trials
        (500, 10, 2, [2]),     # nor than CPUs
        (3, 10, 64, [3]),
        (500, 1, 64, []),      # one worker: no pool at all
        (500, 10, None, []),   # CPU count unknown: treated as one
    ])
    def test_worker_count_clamped(self, monkeypatch, jobs, trials, cpus, started):
        # an in-process stand-in records the pool size; no process is started
        recorded = []

        class FakePool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg = ExperimentConfig("sparse", resolve_params(n=30, m=6, p=0.02),
                               trials=trials, seed=0)
        sequential = run_experiment(cfg).to_csv()
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        assert run_experiment(cfg, jobs=jobs).to_csv() == sequential
        assert recorded == started

    def test_progress_counts_up(self):
        cfg = ExperimentConfig("sparse", resolve_params(n=30, m=6, p=0.02),
                               trials=4, seed=0)
        seen = []
        run_experiment(cfg, progress=seen.append)
        assert seen == [1, 2, 3, 4]
