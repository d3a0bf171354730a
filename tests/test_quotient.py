import random
from itertools import combinations

import tracemalloc

import networkx as nx
import pytest
import rigclique.graph
from hypothesis import given, settings
from hypothesis import strategies as st

from rigclique import (Graph, Partition, QuotientGraph,
                       SearchBudgetExceeded, build_graph, closed_neighborhood_partition,
                       exact_max_clique, find_max_clique, induced_graph, is_clique,
                       max_weight_quotient_clique, quotient_graph, resolve_params,
                       sample_label_representation)
from rigclique.quotient import _renumbered_rows

from helpers import (check_quotient, class_of, closed_neighborhood, complete_graph,
                     exact_intersection_number, pairwise_partition, quotient_rows_loop,
                     random_graph, random_quotient, subset_max_weight_clique,
                     two_triangles)


class TestPartition:
    def test_two_triangles(self):
        part = closed_neighborhood_partition(two_triangles())
        assert part.classes == ((0,), (1, 2), (3,))
        assert class_of(part) == (0, 1, 1, 2)

    def test_complete_graph_single_class(self):
        part = closed_neighborhood_partition(complete_graph(4))
        assert part.classes == ((0, 1, 2, 3),)

    def test_edgeless_all_singletons(self):
        part = closed_neighborhood_partition(build_graph(3, []))
        assert part.classes == ((0,), (1,), (2,))

    def test_classes_ordered_by_smallest_member(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 20), 0.4)
            part = closed_neighborhood_partition(g)
            smallest = [cls[0] for cls in part.classes]
            assert smallest == sorted(smallest)
            assert all(cls == tuple(sorted(cls)) for cls in part.classes)

    def test_is_partition_and_matches_definition(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 15), rng.choice([0.2, 0.5, 0.8]))
            part = closed_neighborhood_partition(g)
            seen = [v for cls in part.classes for v in cls]
            assert sorted(seen) == list(range(g.n))
            for cls in part.classes:
                hoods = {closed_neighborhood(g, v) for v in cls}
                assert len(hoods) == 1
            for a, b in combinations(range(len(part.classes)), 2):
                assert closed_neighborhood(g, part.classes[a][0]) != \
                    closed_neighborhood(g, part.classes[b][0])

    def test_pairwise_variant_agrees(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 25), rng.choice([0.1, 0.5, 0.9]))
            assert pairwise_partition(g) == closed_neighborhood_partition(g)


class TestQuotientGraph:
    def test_two_triangles(self):
        g = two_triangles()
        part = closed_neighborhood_partition(g)
        q = quotient_graph(g, part)
        check_quotient(g, part, q)
        assert q.weights == (1, 2, 1)
        assert q.edges == ((0, 1), (1, 2))

    def test_c4_is_its_own_quotient(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        part = closed_neighborhood_partition(g)
        q = quotient_graph(g, part)
        check_quotient(g, part, q)
        assert q.weights == (1, 1, 1, 1)
        assert q.edges == g.edges

    def test_weights_sum_to_n(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 18), 0.4)
            part = closed_neighborhood_partition(g)
            q = quotient_graph(g, part)
            check_quotient(g, part, q)
            assert sum(q.weights) == g.n

    def test_all_or_nothing_cross_edges(self):
        # check_quotient re-checks every cross pair; silence here is the assertion
        rng = random.Random(37)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 14), rng.choice([0.2, 0.5, 0.8]))
            part = closed_neighborhood_partition(g)
            check_quotient(g, part, quotient_graph(g, part))

    def test_rows_equal_bit_loop(self):
        rng = random.Random(41)
        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 60), rng.choice([0.05, 0.3, 0.7, 0.95]))
            part = closed_neighborhood_partition(g)
            assert quotient_graph(g, part).graph.bits == quotient_rows_loop(g, part)

    def test_rows_equal_bit_loop_on_label_graph(self):
        g = induced_graph(sample_label_representation(resolve_params(n=400, m=10, p=0.2), 1))
        part = closed_neighborhood_partition(g)
        assert quotient_graph(g, part).graph.bits == quotient_rows_loop(g, part)

    def test_rows_equal_bit_loop_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", 64)
        rng = random.Random(43)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 60), rng.choice([0.1, 0.5, 0.9]))
            part = closed_neighborhood_partition(g)
            assert quotient_graph(g, part).graph.bits == quotient_rows_loop(g, part)

    def test_isolated_vertices_stay_cheap(self):
        # The path 0 - 199999 - 1 among 200,000 vertices. Both steps run
        # before the class cap is checked; their peak stays far below any
        # n x n buffer, and below one n-bit mask per vertex (2.5 GB).
        n = 200_000
        g = build_graph(n, [(0, n - 1), (n - 1, 1)])
        tracemalloc.start()
        try:
            part = closed_neighborhood_partition(g)
            q = quotient_graph(g, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert part.classes == tuple((v,) for v in range(n))
        assert q.graph.bits == quotient_rows_loop(g, part)
        assert q.graph.bits[n - 1] == 0b11

    def test_verify_rejects_corrupted_partition(self):
        g = build_graph(3, [(0, 1)])
        bogus = Partition(classes=((0, 2), (1,)))
        with pytest.raises(AssertionError, match="not a clique"):
            check_quotient(g, bogus, quotient_graph(g, bogus))


class TestMaxWeightQuotientClique:
    def test_single_node(self):
        assert max_weight_quotient_clique(QuotientGraph((7,), build_graph(1, []))) == (0,)

    def test_heavier_isolated_node_wins(self):
        assert max_weight_quotient_clique(QuotientGraph((5, 1), build_graph(2, []))) == (0,)
        assert max_weight_quotient_clique(QuotientGraph((1, 5), build_graph(2, []))) == (1,)

    def test_tie_breaks_lexicographically(self):
        # two disjoint edges of equal weight
        q = QuotientGraph((2, 2, 2, 2), build_graph(4, [(0, 3), (1, 2)]))
        assert max_weight_quotient_clique(q) == (0, 3)

    def test_empty_quotient(self):
        assert max_weight_quotient_clique(QuotientGraph((), build_graph(0, []))) == ()

    def test_budget_refusal(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        q = quotient_graph(g, closed_neighborhood_partition(g))
        assert max_weight_quotient_clique(q) == (0, 1)
        with pytest.raises(SearchBudgetExceeded, match="node budget 1"):
            max_weight_quotient_clique(q, node_budget=1)

    def test_best_weight_matches_networkx(self):
        rng = random.Random(47)
        for _ in range(150):
            q = random_quotient(rng, rng.randint(1, 40), rng.choice([0.1, 0.4, 0.7, 0.9]),
                                rng.choice([1, 3, 20]))
            chosen = max_weight_quotient_clique(q)
            joined = set(q.edges)
            assert all(pair in joined for pair in combinations(chosen, 2))
            nxg = nx.Graph(q.edges)
            nxg.add_nodes_from(range(q.k))
            nx.set_node_attributes(nxg, dict(enumerate(q.weights)), "weight")
            _, weight = nx.max_weight_clique(nxg, weight="weight")
            assert sum(q.weights[c] for c in chosen) == weight

    def test_lexicographically_smallest_by_subset_search(self):
        rng = random.Random(53)
        for _ in range(300):
            # few distinct weights, so maximum-weight ties are common
            q = random_quotient(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]),
                                rng.choice([1, 2, 4]))
            assert max_weight_quotient_clique(q) == subset_max_weight_clique(q)

    @pytest.mark.parametrize("block_cells", [64, 1 << 24])
    def test_renumbered_rows_permute_the_graph(self, monkeypatch, block_cells):
        monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", block_cells)
        rng = random.Random(59)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.1, 0.5, 0.9]))
            perm = list(range(g.n))
            rng.shuffle(perm)
            where = {c: i for i, c in enumerate(perm)}
            renamed = build_graph(g.n, [(where[u], where[v]) for u, v in g.edges])
            assert tuple(_renumbered_rows(g.bits, perm)) == renamed.bits

    def test_deep_quotient_cocktail_party(self):
        # K_{2x1050}: every vertex misses only its partner v ^ 1, so each is its
        # own class and the maximum clique takes one vertex of all 1,050 pairs;
        # the smallest such tuple takes the even member of each
        n = 2100
        full = (1 << n) - 1
        g = Graph(n, tuple(full ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(n)))
        q = quotient_graph(g, closed_neighborhood_partition(g))
        assert q.k == n
        chosen = max_weight_quotient_clique(q)
        assert len(chosen) == 1050
        assert chosen == tuple(range(0, n, 2))


class TestFindMaxClique:
    def test_two_triangles(self):
        assert find_max_clique(two_triangles()) == (0, 1, 2)

    def test_complete_graph(self):
        assert find_max_clique(complete_graph(5)) == (0, 1, 2, 3, 4)

    def test_edgeless(self):
        assert find_max_clique(build_graph(4, [])) == (0,)

    def test_no_vertices_gives_empty(self):
        assert find_max_clique(build_graph(0, [])) == ()

    def test_no_class_cap(self):
        # a path has as many classes as vertices; only the node budget limits
        # the search, so more than 10,000 classes still solve
        n = 10_001
        g = build_graph(n, [(v, v + 1) for v in range(n - 1)])
        assert find_max_clique(g) == exact_max_clique(g) == (0, 1)

    def test_agrees_with_oracle_and_is_union_of_classes(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.3, 0.5, 0.8]))
            clique = find_max_clique(g)
            assert is_clique(g, clique)
            assert len(clique) == len(exact_max_clique(g))
            part = closed_neighborhood_partition(g)
            index = class_of(part)
            touched = {index[v] for v in clique}
            rebuilt = sorted(v for c in touched for v in part.classes[c])
            assert rebuilt == list(clique)

    def test_solves_l1_within_fixed_node_budget(self):
        # ladder rung L1; both search phases together take 107 nodes (54 + 53)
        rep = sample_label_representation(resolve_params(n=400, m=10, p=0.2), seed=1, trial=0)
        g = induced_graph(rep)
        clique = find_max_clique(g, node_budget=250)
        assert is_clique(g, clique)
        assert len(clique) == len(exact_max_clique(g))

    @pytest.mark.parametrize("n, m, p, nodes", [
        (400, 10, 0.2, 107),  # ladder rung L1: 54 nodes in phase one, 53 in phase two
        (400, 6, 0.3, 53),  # a single-label-dense trial: 25 + 28
    ])
    def test_exact_node_count(self, n, m, p, nodes):
        g = induced_graph(sample_label_representation(resolve_params(n=n, m=m, p=p),
                                                      seed=1, trial=0))
        assert find_max_clique(g, node_budget=nodes) == exact_max_clique(g)
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            find_max_clique(g, node_budget=nodes - 1)

    @given(n=st.integers(1, 300), m=st.integers(1, 10), p=st.floats(0.02, 0.35),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_sampled_rig(self, n, m, p, seed):
        # the same tuple, not just the same size: both return the
        # lexicographically smallest maximum clique
        g = induced_graph(sample_label_representation(resolve_params(n=n, m=m, p=p), seed))
        assert find_max_clique(g) == exact_max_clique(g)


class TestQuotientSizeBound:
    def test_class_count_bounded_by_intersection_number(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            part = closed_neighborhood_partition(g)
            nonisolated = sum(1 for cls in part.classes if g.degree(cls[0]) > 0)
            iota = exact_intersection_number(g)
            assert nonisolated <= min(2 ** iota, g.n)
