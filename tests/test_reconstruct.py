import random
from itertools import combinations

import pytest

from rigclique import (LabelRepresentation, build_graph, build_labels, induced_graph,
                       reconstruct_labels, reps_equivalent)

from helpers import greedy_pair_cover, label_members, label_sets, random_label_rep


class TestReconstructExamples:
    def test_triangle_plus_edge(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        result = reconstruct_labels(g, 2, 0.5)
        assert result.valid
        assert label_members(result.rep) == (frozenset({0, 1, 2}), frozenset({3, 4}))
        assert result.covered_edges == 4
        assert result.candidate_count == 2

    def test_edgeless_all_labels_empty(self):
        g = build_graph(4, [])
        result = reconstruct_labels(g, 3, 0.5)
        assert result.valid
        assert result.rep.masks == (0, 0, 0)
        assert result.covered_edges == 0

    def test_null_graph(self):
        result = reconstruct_labels(build_graph(0, []), 2, 0.5)
        assert result.valid
        assert result.rep == LabelRepresentation(0, 2, (0, 0))

    def test_triangle_prefers_single_label(self):
        # one big clique beats a pairwise cover even when three labels are
        # available, so recovery against a pairwise ground truth fails while
        # validity holds
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        result = reconstruct_labels(g, 3, 0.5)
        assert result.valid
        assert label_members(result.rep) == (frozenset({0, 1, 2}), frozenset(), frozenset())
        pairwise = build_labels(3, 3, [[0, 1], [0, 2], [1, 2]])
        assert induced_graph(pairwise) == g
        assert not reps_equivalent(result.rep, pairwise)

    def test_path_needs_two_labels(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        result = reconstruct_labels(g, 1, 0.5)
        assert result.rep is None
        assert not result.valid
        assert result.covered_edges == 1
        assert result.candidate_count == 2

    def test_size_window_drops_small_cliques(self):
        # n=100, p=0.9: candidate floor is 90 - 3*sqrt(90 ln 100) ~ 28.9,
        # so a lone edge beside a 30-clique is not a candidate and its edge
        # stays uncovered
        edges = list(combinations(range(30), 2))
        g = build_graph(100, edges + [(30, 31)])
        result = reconstruct_labels(g, 2, 0.9)
        assert result.rep is None
        assert result.covered_edges == 435
        assert result.candidate_count == 1

    def test_size_window_keeps_large_clique(self):
        g = build_graph(100, list(combinations(range(30), 2)))
        result = reconstruct_labels(g, 1, 0.9)
        assert result.valid
        assert label_members(result.rep)[0] == frozenset(range(30))
        assert result.candidate_count == 1


class TestReconstructValidation:
    def test_m_below_one(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="m must be >= 1"):
            reconstruct_labels(g, 0, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_p_out_of_range(self, p):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="strictly between"):
            reconstruct_labels(g, 1, p)


class TestReconstructSoundness:
    def test_success_always_induces_input(self):
        rng = random.Random(11)
        successes = 0
        for _ in range(150):
            n = rng.randint(1, 25)
            m = rng.randint(1, 6)
            p = rng.uniform(0.1, 0.6)
            truth = random_label_rep(rng, n, m, p)
            g = induced_graph(truth)
            result = reconstruct_labels(g, m, p)
            if result.rep is None:
                assert not result.valid
                assert result.covered_edges < len(g.edges) or len(g.edges) == 0
                continue
            successes += 1
            assert result.valid
            assert induced_graph(result.rep) == g
            assert result.rep.n == g.n and result.rep.m == m
            assert result.covered_edges == len(g.edges)
        assert successes > 50

    def test_cover_matches_pair_set_reference(self):
        # small n keeps the size window open, so every maximal clique is a
        # candidate and the cover must choose exactly what the reference does
        rng = random.Random(15)
        for _ in range(120):
            n = rng.randint(0, 11)
            m = rng.randint(1, 5)
            p = rng.choice([0.2, 0.4, 0.6])
            g = induced_graph(random_label_rep(rng, n, m, p))
            chosen, left = greedy_pair_cover(g, m)
            result = reconstruct_labels(g, m, p)
            assert result.covered_edges == len(g.edges) - left
            if left:
                assert result.rep is None
            else:
                expect = [frozenset(c) for c in chosen] + [frozenset()] * (m - len(chosen))
                assert list(label_members(result.rep)) == expect

    def test_label_count_never_exceeds_m(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 20)
            m = rng.randint(1, 5)
            truth = random_label_rep(rng, n, m, 0.4)
            result = reconstruct_labels(induced_graph(truth), m, 0.4)
            if result.rep is not None:
                assert result.rep.m == m
                used = sum(1 for mask in result.rep.masks if mask)
                assert used <= m


class TestRepsEquivalent:
    def test_identical(self):
        a = build_labels(3, 2, [[0], [0, 1], [1]])
        assert reps_equivalent(a, a)

    def test_permuted_labels(self):
        a = build_labels(4, 2, [[0], [0], [1], [1]])
        b = build_labels(4, 2, [[1], [1], [0], [0]])
        assert reps_equivalent(a, b)

    def test_extra_singleton_label_ignored(self):
        a = build_labels(3, 2, [[0], [0], []])
        b = build_labels(3, 3, [[0], [0], [2]])
        assert reps_equivalent(a, b)

    def test_differing_effective_labels(self):
        a = build_labels(3, 1, [[0], [0], [0]])
        b = build_labels(3, 1, [[0], [0], []])
        assert not reps_equivalent(a, b)

    def test_multiset_multiplicity_matters(self):
        a = build_labels(2, 2, [[0, 1], [0, 1]])
        b = build_labels(2, 2, [[0], [0]])
        assert not reps_equivalent(a, b)

    def test_vertex_count_mismatch(self):
        a = build_labels(3, 1, [[0], [0], []])
        b = build_labels(2, 1, [[0], [0]])
        with pytest.raises(ValueError, match="vertex counts differ"):
            reps_equivalent(a, b)

    def test_equivalence_relation(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 10)
            m = rng.randint(1, 5)
            a = random_label_rep(rng, n, m, 0.4)
            assert reps_equivalent(a, a)

            perm = list(range(m))
            rng.shuffle(perm)
            b = build_labels(n, m, [sorted(perm[i] for i in s) for s in label_sets(a)])
            # padded with an unused label plus one singleton choice
            sets_c = [sorted(s) for s in label_sets(b)]
            if n > 0:
                sets_c[rng.randrange(n)].append(m)
            c = build_labels(n, m + 2, sets_c)

            assert reps_equivalent(a, b) and reps_equivalent(b, a)
            assert reps_equivalent(b, c)
            assert reps_equivalent(a, c)

    def test_symmetry_on_unrelated_pairs(self):
        rng = random.Random(14)
        for _ in range(80):
            n = rng.randint(1, 8)
            a = random_label_rep(rng, n, rng.randint(1, 4), 0.5)
            b = random_label_rep(rng, n, rng.randint(1, 4), 0.5)
            assert reps_equivalent(a, b) == reps_equivalent(b, a)
