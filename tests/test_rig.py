import math
import random

import numpy as np
import pytest

from rigclique import (RigParams, build_labels, induced_graph, is_clique,
                       max_clique_from_labels, resolve_params,
                       sample_label_representation, sample_membership, trial_rng)

from helpers import label_members, label_sets, random_label_rep


class TestResolveParams:
    def test_alpha_and_mp2(self):
        params = resolve_params(n=10_000, alpha=0.5, mp2=0.25)
        assert params.m == 100
        assert params.p == pytest.approx(0.05)

    @pytest.mark.parametrize("alpha", [400.0, math.inf])
    def test_alpha_without_finite_label_count(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            resolve_params(n=10, alpha=alpha, p=0.1)

    def test_passthrough(self):
        params = resolve_params(n=10, m=3, p=0.5)
        assert params == RigParams(n=10, m=3, p=0.5)

    def test_resolved_p_above_one(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            resolve_params(n=10, m=1, mp2=4.0)

    def test_m_and_alpha_conflict(self):
        with pytest.raises(ValueError, match="exactly one of m and alpha"):
            resolve_params(n=10, m=3, alpha=0.5, p=0.1)
        with pytest.raises(ValueError, match="exactly one of m and alpha"):
            resolve_params(n=10, p=0.1)

    def test_p_and_mp2_conflict(self):
        with pytest.raises(ValueError, match="exactly one of p and mp2"):
            resolve_params(n=10, m=3, p=0.1, mp2=0.2)
        with pytest.raises(ValueError, match="exactly one of p and mp2"):
            resolve_params(n=10, m=3)

    def test_mp2_needs_labels(self):
        with pytest.raises(ValueError, match="m = 0"):
            resolve_params(n=10, m=0, mp2=0.5)

    def test_ceiling_convention(self):
        assert resolve_params(n=10, alpha=0.5, p=0.1).m == 4  # ceil(3.162...)

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            resolve_params(n=-1, m=2, p=0.5)
        with pytest.raises(ValueError):
            resolve_params(n=4, m=2, p=-0.5)


class TestTrialStreams:
    def test_seed_range(self):
        with pytest.raises(ValueError, match="64 bits"):
            trial_rng(-1, 0)
        with pytest.raises(ValueError, match="64 bits"):
            trial_rng(2**64, 0)
        with pytest.raises(ValueError, match="trial index"):
            trial_rng(0, -1)

    def test_streams_reproduce(self):
        a = trial_rng(99, 3).random(8)
        b = trial_rng(99, 3).random(8)
        assert np.array_equal(a, b)

    def test_streams_differ_between_trials(self):
        a = trial_rng(99, 0).random(8)
        b = trial_rng(99, 1).random(8)
        assert not np.array_equal(a, b)


class TestSampling:
    PARAMS = resolve_params(n=20, m=6, p=0.3)

    def test_deterministic(self):
        a = sample_label_representation(self.PARAMS, seed=7, trial=2)
        b = sample_label_representation(self.PARAMS, seed=7, trial=2)
        assert a == b

    def test_p_zero_empty(self):
        rep = sample_label_representation(resolve_params(n=5, m=4, p=0.0), seed=1)
        assert rep.masks == (0,) * 4

    def test_p_one_full(self):
        rep = sample_label_representation(resolve_params(n=5, m=4, p=1.0), seed=1)
        assert rep.masks == (0b11111,) * 4

    def test_draw_order_is_vertex_major(self):
        # the documented contract: one uniform per (v, i), vertex-major,
        # label-ascending, off a fresh trial stream
        matrix = sample_membership(self.PARAMS, seed=11, trial=4)
        rng = trial_rng(11, 4)
        expect = np.empty((self.PARAMS.n, self.PARAMS.m), dtype=bool)
        for v in range(self.PARAMS.n):
            for i in range(self.PARAMS.m):
                expect[v, i] = rng.random() < self.PARAMS.p
        assert np.array_equal(matrix, expect)

    def test_rep_matches_matrix(self):
        # n = 70 spans more than one 64-bit word and a partial last byte
        for n in (0, 1, 20, 70):
            params = resolve_params(n=n, m=6, p=0.3)
            matrix = sample_membership(params, seed=13, trial=0)
            rep = sample_label_representation(params, seed=13, trial=0)
            assert (rep.n, rep.m, len(rep.masks)) == (n, 6, 6)
            sets = label_sets(rep)
            for v in range(n):
                assert sets[v] == frozenset(np.flatnonzero(matrix[v]).tolist())
            assert all(mask >> n == 0 for mask in rep.masks)

    def test_label_size_matches_binomial_tail(self):
        # |L_0| ~ Binomial(n, p): empirical CDF at k vs the exact tail
        n, m, p, k = 10, 3, 0.3, 3
        params = resolve_params(n=n, m=m, p=p)
        trials = 3000
        hits = sum(
            1 for t in range(trials)
            if sample_label_representation(params, seed=202, trial=t).masks[0].bit_count() <= k)
        exact = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1))
        assert abs(hits / trials - exact) < 0.03

    def test_set_size_matches_binomial_tail(self):
        n, m, p, k = 4, 12, 0.25, 3
        params = resolve_params(n=n, m=m, p=p)
        trials = 3000
        hits = sum(
            1 for t in range(trials)
            if len(label_sets(sample_label_representation(params, seed=303, trial=t))[0]) <= k)
        exact = sum(math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(k + 1))
        assert abs(hits / trials - exact) < 0.03


class TestMaxCliqueFromLabels:
    def test_largest_label_wins(self):
        rep = build_labels(4, 2, [[0], [0, 1], [1], [1]])
        assert label_members(rep) == (frozenset({0, 1}), frozenset({1, 2, 3}))
        assert max_clique_from_labels(rep) == (1, 2, 3)

    def test_tie_goes_to_smallest_label(self):
        rep = build_labels(4, 2, [[0], [0], [1], [1]])
        assert max_clique_from_labels(rep) == (0, 1)

    def test_all_empty_gives_empty(self):
        rep = build_labels(3, 2, [[], [], []])
        assert max_clique_from_labels(rep) == ()
        assert max_clique_from_labels(build_labels(3, 0, [[], [], []])) == ()

    def test_output_is_a_clique(self):
        rng = random.Random(67)
        for _ in range(100):
            rep = random_label_rep(rng, rng.randint(0, 10), rng.randint(0, 6),
                                   rng.choice([0.1, 0.3, 0.6]))
            clique = max_clique_from_labels(rep)
            assert is_clique(induced_graph(rep), clique)
