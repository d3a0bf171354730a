"""Acceptance suite: nine end-to-end checks at fixed seeds and thresholds.

Each test prints one pass/fail line in the terminal summary. Statistical
thresholds were fixed by a calibration run at seed 1 before being written
down here; the hard checks tolerate nothing.
"""

import random
import subprocess
import sys
import time
from itertools import combinations

import networkx as nx
import pytest

from rigclique import (ExperimentConfig, PRESETS, build_graph,
                       closed_neighborhood_partition, exact_max_clique, find_max_clique,
                       induced_graph, reconstruct_labels, reps_equivalent, run_experiment,
                       sample_label_representation)

from helpers import (checkout_env, class_of, closed_neighborhood,
                     exact_intersection_number, has_edge, random_graph, subset_max_clique)


def test_criterion_1_solver_matches_oracle(acceptance):
    rng = random.Random(1001)
    start = time.perf_counter()
    size_matches = 0
    brute_matches = brute_total = 0
    for i in range(500):
        g = random_graph(rng, rng.randint(1, 30), (0.1, 0.3, 0.5, 0.8)[i % 4])
        solved = find_max_clique(g)
        oracle = exact_max_clique(g)
        if len(solved) == len(oracle):
            size_matches += 1
        if g.n <= 12:
            brute_total += 1
            if oracle == subset_max_clique(g):
                brute_matches += 1
    elapsed = time.perf_counter() - start
    ok = size_matches == 500 and brute_matches == brute_total and elapsed < 60.0
    acceptance(1, "solver matches oracle", ok,
               f"sizes {size_matches}/500, enumeration {brute_matches}/{brute_total}, "
               f"{elapsed:.1f}s")


def test_criterion_2_partition_properties(acceptance):
    rng = random.Random(1002)
    good = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 50), rng.uniform(0.05, 0.95))
        part = closed_neighborhood_partition(g)
        index = class_of(part)

        covered = sorted(v for cls in part.classes for v in cls)
        grouped = {frozenset(cls) for cls in part.classes}
        by_neighborhood = {}
        for v in range(g.n):
            by_neighborhood.setdefault(closed_neighborhood(g, v), []).append(v)
        matches_relation = (covered == list(range(g.n))
                           and grouped == {frozenset(c) for c in by_neighborhood.values()}
                           and all(index[v] == i
                                   for i, cls in enumerate(part.classes) for v in cls))

        classes_cliques = all(has_edge(g, u, v)
                              for cls in part.classes
                              for u, v in combinations(cls, 2))
        all_or_nothing = all(
            sum(1 for u in a for v in b if has_edge(g, u, v)) in (0, len(a) * len(b))
            for a, b in combinations(part.classes, 2))

        if matches_relation and classes_cliques and all_or_nothing:
            good += 1
    acceptance(2, "partition properties", good == 200, f"{good}/200 graphs clean")


def test_criterion_3_class_count_bound(acceptance):
    atlas = nx.graph_atlas_g()[1:]  # every graph on 1..7 vertices, once per isomorphism class
    within = 0
    for small in atlas:
        g = build_graph(small.number_of_nodes(),
                        [tuple(sorted(e)) for e in small.edges()])
        part = closed_neighborhood_partition(g)
        iota = exact_intersection_number(g)
        non_isolated = sum(1 for cls in part.classes if g.bits[cls[0]])
        if non_isolated <= min(2 ** iota, g.n):
            within += 1
    acceptance(3, "class count bound", within == len(atlas) == 1252,
               f"{within}/{len(atlas)} graphs within min(2^iota, n)")


@pytest.fixture(scope="module")
def concentration_run():
    cfg = ExperimentConfig("concentration", PRESETS["CONC-10K"], trials=50, seed=1)
    return run_experiment(cfg)


def test_criterion_4_label_size_concentration(acceptance, concentration_run):
    count = concentration_run.summary["labels_ok_count"]
    acceptance(4, "label size concentration", count >= 49,
               f"{count}/50 trials within bound, need 49")


def test_criterion_5_set_size_concentration(acceptance, concentration_run):
    count = concentration_run.summary["sets_ok_count"]
    acceptance(5, "vertex set size concentration", count >= 49,
               f"{count}/50 trials within bound, need 49")


def test_criterion_6_single_label_cliques(acceptance):
    cfg = ExperimentConfig("single_label", PRESETS["SL-100"], trials=200, seed=1)
    stats = run_experiment(cfg)
    ok_rows = [r for r in stats.rows if r["status"] == "ok"]
    never_above = sum(1 for r in ok_rows if r["max_label_size"] <= r["omega"])
    hard = stats.summary["errors"] == 0 and never_above == 200
    equal = stats.summary["equal_count"]
    contained = stats.summary["contained_count"]
    ok = hard and equal >= 170 and contained >= 170
    acceptance(6, "single label cliques", ok,
               f"label <= omega {never_above}/200, equal {equal}/200, "
               f"contained {contained}/200, need 170")


def test_criterion_7_sparse_regime(acceptance):
    cfg = ExperimentConfig("sparse", PRESETS["SPARSE-500"], trials=50, seed=1)
    stats = run_experiment(cfg)
    none = stats.summary["none_count"]
    chordal = stats.summary["chordal_count"]
    # any "found" status would have had its witness validated inside the trial
    ok = none == 50 and chordal == 50
    acceptance(7, "sparse regime", ok,
               f"cycle-free {none}/50, chordal {chordal}/50")


def test_criterion_8_label_recovery(acceptance):
    params = PRESETS["SL-100"]
    successes = valid = equivalent = 0
    for trial in range(100):
        truth = sample_label_representation(params, seed=1, trial=trial)
        g = induced_graph(truth)
        result = reconstruct_labels(g, params.m)
        if result.rep is None:
            continue
        successes += 1
        if induced_graph(result.rep) == g:
            valid += 1
            if reps_equivalent(result.rep, truth):
                equivalent += 1
    ok = valid == successes and equivalent >= 70
    acceptance(8, "label recovery", ok,
               f"valid {valid}/{successes} successes, "
               f"equivalent {equivalent}/100, need 70")


def test_criterion_9_reproducible_csv(acceptance):
    configs = [
        ExperimentConfig("single_label", PRESETS["SL-100"], trials=5, seed=17),
        ExperimentConfig("concentration", PRESETS["CONC-10K"], trials=5, seed=17),
        ExperimentConfig("sparse", PRESETS["SPARSE-500"], trials=5, seed=17),
        ExperimentConfig("reconstruction", PRESETS["SL-100"], trials=5, seed=17),
    ]
    identical = 0
    for cfg in configs:
        first = run_experiment(cfg).to_csv()
        again = run_experiment(cfg).to_csv()
        parallel = run_experiment(cfg, jobs=2).to_csv()
        if first == again == parallel:
            identical += 1

    cli = [sys.executable, "-m", "rigclique", "experiment", "concentration",
           "--n", "300", "--m", "20", "--p", "0.1", "--trials", "4",
           "--seed", "17", "--jobs", "2"]
    runs = [subprocess.run(cli, capture_output=True, text=True, env=checkout_env())
            for _ in range(2)]
    cli_ok = (runs[0].returncode == runs[1].returncode == 0
              and runs[0].stdout == runs[1].stdout)
    acceptance(9, "reproducible csv", identical == 4 and cli_ok,
               f"{identical}/4 kinds byte-identical over rerun and 2 jobs, "
               f"cli rerun identical: {'yes' if cli_ok else 'no'}")
