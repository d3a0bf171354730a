import random
from itertools import combinations

import pytest

from rigclique import (CYCLE_FOUND, CYCLE_NONE, CYCLE_UNKNOWN, LabeledCycle,
                       SearchBudgetExceeded, build_graph, build_labels,
                       check_labeled_cycle, degeneracy_order,
                       enumerate_maximal_cliques, exact_intersection_number,
                       exact_max_clique, find_distinct_label_cycle, induced_graph,
                       resolve_params, sample_label_representation)

from helpers import (all_maximal_cliques, complete_graph,
                     exhaustive_labeled_cycle_exists, mask_is_clique,
                     random_graph, random_label_rep, subset_max_clique,
                     two_triangles)


def brute_intersection_number(g):
    # minimum edge cover by arbitrary cliques, smallest count first
    if not g.edges:
        return 0
    edge_bit = {e: k for k, e in enumerate(g.edges)}
    clique_masks = set()
    for mask in range(1, 1 << g.n):
        if mask_is_clique(g, mask):
            vs = [v for v in range(g.n) if (mask >> v) & 1]
            cm = 0
            for pair in combinations(vs, 2):
                cm |= 1 << edge_bit[pair]
            if cm:
                clique_masks.add(cm)
    full = (1 << len(g.edges)) - 1
    masks = sorted(clique_masks)
    for r in range(1, len(g.edges) + 1):
        for pick in combinations(masks, r):
            acc = 0
            for cm in pick:
                acc |= cm
            if acc == full:
                return r
    raise AssertionError("edges cannot be covered")


class TestExactMaxClique:
    def test_cycle5(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert exact_max_clique(g) == (0, 1)

    def test_k5_minus_edge(self):
        edges = [e for e in combinations(range(5), 2) if e != (3, 4)]
        assert exact_max_clique(build_graph(5, edges)) == (0, 1, 2, 3)

    def test_two_triangles(self):
        assert exact_max_clique(two_triangles()) == (0, 1, 2)

    def test_empty_and_edgeless(self):
        assert exact_max_clique(build_graph(0, [])) == ()
        assert exact_max_clique(build_graph(3, [])) == (0,)

    def test_matches_subset_enumeration(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 11)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            assert exact_max_clique(g) == subset_max_clique(g)

    def test_budget_refusal(self):
        g = complete_graph(30)
        with pytest.raises(SearchBudgetExceeded, match="node budget"):
            exact_max_clique(g, node_budget=3)

    def test_result_is_stable(self):
        g = random_graph(random.Random(5), 40, 0.5)
        assert exact_max_clique(g) == exact_max_clique(g)

    @pytest.mark.parametrize("n, m, p, omega, nodes", [
        (400, 10, 0.2, 91, 940),  # ladder rung L1
        (400, 6, 0.3, 126, 672),  # a single-label-dense trial; phase two's colour check prunes
    ])
    def test_exact_node_count(self, n, m, p, omega, nodes):
        g = induced_graph(sample_label_representation(
            resolve_params(n=n, m=m, p=p), seed=1, trial=0))
        assert len(exact_max_clique(g, node_budget=nodes)) == omega
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            exact_max_clique(g, node_budget=nodes - 1)


class TestDegeneracyOrder:
    def test_is_permutation_and_greedy(self):
        g = two_triangles()
        order = degeneracy_order(g)
        assert sorted(order) == list(range(4))
        # 0 and 3 have degree 2, tie broken to 0
        assert order[0] == 0


class TestMaximalCliqueEnumeration:
    def test_triangle(self):
        assert enumerate_maximal_cliques(complete_graph(3)) == [(0, 1, 2)]

    def test_path(self):
        assert set(enumerate_maximal_cliques(build_graph(3, [(0, 1), (1, 2)]))) == \
            {(0, 1), (1, 2)}

    def test_c4_edges(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert set(enumerate_maximal_cliques(g)) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_isolated_vertices_are_cliques(self):
        assert set(enumerate_maximal_cliques(build_graph(2, []))) == {(0,), (1,)}

    def test_matches_brute_force_each_exactly_once(self):
        rng = random.Random(31)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 9), rng.choice([0.2, 0.5, 0.8]))
            found = enumerate_maximal_cliques(g)
            assert len(found) == len(set(found))
            assert set(found) == all_maximal_cliques(g)

    def test_emission_budget(self):
        # Moon-Moser graph on 9 vertices: 27 maximal cliques
        edges = [(u, v) for u, v in combinations(range(9), 2) if u % 3 != v % 3]
        g = build_graph(9, edges)
        assert len(enumerate_maximal_cliques(g)) == 27
        with pytest.raises(SearchBudgetExceeded, match="enumeration"):
            enumerate_maximal_cliques(g, max_cliques=26)


class TestIntersectionNumber:
    def test_known_values(self):
        assert exact_intersection_number(complete_graph(3)) == 1
        assert exact_intersection_number(
            build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == 4
        assert exact_intersection_number(two_triangles()) == 2
        assert exact_intersection_number(build_graph(5, [])) == 0

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="n <= 8"):
            exact_intersection_number(build_graph(9, []))

    def test_triangle_free_equals_edge_count(self):
        star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert exact_intersection_number(star) == 4
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert exact_intersection_number(path) == 3

    def test_matches_brute_force(self):
        rng = random.Random(47)
        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 5), rng.choice([0.3, 0.6, 0.9]))
            assert exact_intersection_number(g) == brute_intersection_number(g)

    def test_lower_bound_from_clique_number(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            if not g.edges:
                continue
            omega = len(exact_max_clique(g))
            per_clique = omega * (omega - 1) // 2
            iota = exact_intersection_number(g)
            assert iota >= -(-len(g.edges) // per_clique)


class TestDistinctLabelCycle:
    def test_triangle_of_three_labels(self):
        rep = build_labels(3, 3, [[0, 2], [0, 1], [1, 2]])
        status, cycle = find_distinct_label_cycle(rep)
        assert status == CYCLE_FOUND
        assert cycle == LabeledCycle((0, 1, 2), (0, 1, 2))
        check_labeled_cycle(rep, cycle)

    def test_single_label_star_is_acyclic(self):
        rep = build_labels(3, 1, [[0], [0], [0]])
        assert find_distinct_label_cycle(rep) == (CYCLE_NONE, None)

    def test_two_shared_labels_is_only_a_4_cycle(self):
        rep = build_labels(2, 2, [[0, 1], [0, 1]])
        assert find_distinct_label_cycle(rep) == (CYCLE_NONE, None)

    def test_budget_zero_on_cyclic_core_is_unknown(self):
        rep = build_labels(3, 3, [[0, 2], [0, 1], [1, 2]])
        assert find_distinct_label_cycle(rep, step_budget=0) == (CYCLE_UNKNOWN, None)

    def test_budget_zero_on_acyclic_instance_is_still_none(self):
        rep = build_labels(3, 1, [[0], [0], [0]])
        assert find_distinct_label_cycle(rep, step_budget=0) == (CYCLE_NONE, None)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(61)
        for _ in range(250):
            rep = random_label_rep(rng, rng.randint(0, 5), rng.randint(0, 5),
                                   rng.choice([0.2, 0.4, 0.7]))
            status, cycle = find_distinct_label_cycle(rep)
            exists = exhaustive_labeled_cycle_exists(rep)
            if status == CYCLE_FOUND:
                assert exists
                check_labeled_cycle(rep, cycle)
            elif status == CYCLE_NONE:
                assert not exists
            else:
                raise AssertionError("tiny instances must not exhaust the budget")


class TestCheckLabeledCycle:
    def test_rejects_short(self):
        rep = build_labels(2, 2, [[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="at least 3"):
            check_labeled_cycle(rep, LabeledCycle((0, 1), (0, 1)))

    def test_rejects_repeated_label(self):
        rep = build_labels(3, 3, [[0, 1, 2]] * 3)
        with pytest.raises(ValueError, match="not distinct"):
            check_labeled_cycle(rep, LabeledCycle((0, 1, 2), (0, 0, 1)))

    def test_rejects_label_that_does_not_join(self):
        rep = build_labels(3, 3, [[0, 2], [0, 1], [1, 2]])
        with pytest.raises(ValueError, match="does not join"):
            check_labeled_cycle(rep, LabeledCycle((0, 1, 2), (2, 1, 0)))
        for label in (-1, 3):  # outside 0..m-1: -1 must not read label 2
            with pytest.raises(ValueError, match="does not join"):
                check_labeled_cycle(rep, LabeledCycle((0, 1, 2), (0, 1, label)))
