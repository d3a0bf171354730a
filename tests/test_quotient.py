import random
from itertools import combinations

import tracemalloc

import networkx as nx
import pytest
import rigclique.graph
from hypothesis import given, settings
from hypothesis import strategies as st

from rigclique import (Graph, GraphError, Partition, SearchBudgetExceeded, build_graph,
                       build_labels, closed_neighborhood_partition, exact_max_clique,
                       find_max_clique, induced_graph, is_clique, max_clique_from_labels,
                       resolve_params, sample_label_representation)
from rigclique.graph import _subgraph_rows
from rigclique.oracle import DEFAULT_NODE_BUDGET
from rigclique.quotient import _colour, _simplicial_start, _weighted_search

from helpers import (QuotientGraph, all_maximal_cliques, check_quotient,
                     check_root_certificate, class_of, closed_neighborhood,
                     cocktail_party, complete_graph,
                     complete_multipartite, corona, exact_intersection_number, label_members,
                     largest_simplicial_clique, pairwise_partition, quotient_rows_loop,
                     random_graph, random_label_rep, random_quotient, subset_max_clique,
                     subset_max_weight_cliques, two_triangles)


def quotient_graph(g: Graph, partition: Partition) -> QuotientGraph:
    """Each class collapsed to one node weighted by its size. The rows are
    g's rows of the class representatives, restricted to them, as
    reconstruct_labels builds them: cross-class edges are all-or-nothing."""
    classes = partition.classes
    rows = _subgraph_rows(g, [cls[0] for cls in classes])
    return QuotientGraph(tuple(len(cls) for cls in classes), Graph(tuple(rows)))


def max_weight_quotient_clique(q: QuotientGraph, node_budget: int = DEFAULT_NODE_BUDGET,
                               clique=()) -> tuple[int, ...]:
    """find_max_clique's search run on a quotient's own nodes: the
    lexicographically smallest maximum-weight clique, as sorted node
    indices, from the incumbent clique. A clique that is not one raises
    ValueError."""
    clique = set(clique)
    if not is_clique(q.graph, clique):
        raise ValueError("incumbent is not a clique of the quotient")
    return _weighted_search(q.graph, range(q.k), q.weights, clique, node_budget)


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

    @pytest.mark.parametrize("vertices, message", [
        ([1, 0, 3, 2], "vertex 0 repeated or out of ascending order"),
        ([0, 0, 1], "vertex 0 repeated or out of ascending order"),
        ([0, 2, 1], "vertex 1 repeated or out of ascending order"),
        ([7], "vertex 7 out of range for n=4"),
        ([0, 4], "vertex 4 out of range for n=4"),
        ([-1], "vertex -1 out of range for n=4"),
        ([-1, 0], "vertex -1 out of range for n=4"),
    ], ids=["swapped", "repeated", "descending-tail", "past-n", "n", "negative",
            "negative-first"])
    def test_bad_vertices_raise(self, vertices, message):
        # 0 and 1 are twins, so a bad list would otherwise give classes out
        # of order, with repeats, or none at all
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        with pytest.raises(GraphError, match=f"^{message}$"):
            closed_neighborhood_partition(g, vertices)

    def test_ascending_vertices_in_range(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert closed_neighborhood_partition(g, []).classes == ()
        assert closed_neighborhood_partition(g, [0, 1, 3]).classes == ((0, 1), (3,))
        assert closed_neighborhood_partition(g, iter([1, 2])).classes == ((1,), (2,))


class TestQuotientGraph:
    def test_two_triangles(self):
        g = two_triangles()
        part = closed_neighborhood_partition(g)
        q = quotient_graph(g, part)
        check_quotient(g, part, q)
        assert q.weights == (1, 2, 1)
        assert q.graph.edges == ((0, 1), (1, 2))

    def test_c4_is_its_own_quotient(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        part = closed_neighborhood_partition(g)
        q = quotient_graph(g, part)
        check_quotient(g, part, q)
        assert q.weights == (1, 1, 1, 1)
        assert q.graph.edges == g.edges

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
        # The path 0 - 199999 - 1 among 200,000 vertices, as reconstruct_labels
        # partitions and collapses it: the peak stays far below any n x n
        # buffer, and below one n-bit mask per vertex (2.5 GB).
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
        # no class, no node: even a zero budget is enough
        q = QuotientGraph((), build_graph(0, []))
        assert max_weight_quotient_clique(q) == ()
        assert max_weight_quotient_clique(q, node_budget=0) == ()

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
            joined = set(q.graph.edges)
            assert all(pair in joined for pair in combinations(chosen, 2))
            nxg = nx.Graph(q.graph.edges)
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
            winners = subset_max_weight_cliques(q)
            assert max_weight_quotient_clique(q) == winners[0]
            # the largest tie as incumbent: the first witness is not the answer
            assert max_weight_quotient_clique(q, clique=winners[-1]) == winners[0]

    @pytest.mark.parametrize("block_cells", [64, 1 << 24])
    def test_renumbered_rows_permute_the_graph(self, monkeypatch, block_cells):
        # the search renumbers the classes by building their rows in its order
        monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", block_cells)
        rng = random.Random(59)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 40), rng.choice([0.1, 0.5, 0.9]))
            perm = list(range(g.n))
            rng.shuffle(perm)
            where = {c: i for i, c in enumerate(perm)}
            renamed = build_graph(g.n, [(where[u], where[v]) for u, v in g.edges])
            assert tuple(rigclique.graph._subgraph_rows(g, perm)) == renamed.bits

    def test_deep_quotient_cocktail_party(self):
        # K_{2x1050}: every vertex misses only its partner v ^ 1, so each is its
        # own class and the maximum clique takes one vertex of all 1,050 pairs;
        # the smallest such tuple takes the even member of each. The search
        # tries the lowest of equal bounds first, so its one dive finds that
        # tuple and the scan takes it whole: 1,050 nodes. Trying the highest
        # first finds the odd members, and the scan then searches again for
        # each pair, far beyond this budget.
        n = 2100
        g = cocktail_party(n // 2)
        q = quotient_graph(g, closed_neighborhood_partition(g))
        assert q.k == n
        chosen = max_weight_quotient_clique(q, node_budget=1050)
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
        assert find_max_clique(Graph(()), node_budget=0) == ()

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
        # ladder rung L1; the search takes 1 node from the simplicial start
        rep = sample_label_representation(resolve_params(n=400, m=10, p=0.2), seed=1, trial=0)
        g = induced_graph(rep)
        clique = find_max_clique(g, node_budget=250)
        assert is_clique(g, clique)
        assert len(clique) == len(exact_max_clique(g))

    # The simplicial start is a maximum clique on each, so the first search
    # closes at its root, and its root colouring answers every scan
    # question: the search is its root alone.
    @pytest.mark.parametrize("n, m, p, nodes", [
        (400, 10, 0.2, 1),  # ladder rung L1: the scan takes the start whole
        (400, 6, 0.3, 1),  # a single-label-dense trial
        (2000, 10, 0.2, 1),  # ladder rung L2
        (3000, 100, 0.02, 1),  # ladder rung L4
    ], ids=["L1", "single-label-dense", "L2", "L4"])
    def test_exact_node_count(self, n, m, p, nodes):
        g = induced_graph(sample_label_representation(resolve_params(n=n, m=m, p=p),
                                                      seed=1, trial=0))
        assert find_max_clique(g, node_budget=nodes) == exact_max_clique(g)
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            find_max_clique(g, node_budget=nodes - 1)

    @pytest.mark.parametrize("graph, nodes", [
        (complete_graph(8), 1),  # one class: the root is the whole search
        # parts {0,1,2} and {3,4,5}; 6, 7, 8 are universal, so one class.
        # The search dives through classes 3, 0 and the universal class to
        # weight 5, and the scan takes that witness whole: 3 nodes
        (complete_multipartite([3, 3, 1, 1, 1]), 3),
        # the search takes 6 nodes: the root, then a dive through the K6
        # classes 6..11. The scan passes each pendant 0..5 without a node:
        # the root sets that meet its one neighbour are charged 1, not the
        # 5 it would need. It then takes the witness
        (corona(6), 6),
    ], ids=["K8", "K3,3,1,1,1", "corona-K6"])
    def test_phase_two_stops_at_a_clique(self, graph, nodes):
        assert find_max_clique(graph, node_budget=nodes) == exact_max_clique(graph)
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            find_max_clique(graph, node_budget=nodes - 1)

    def test_dense_graphs_match_brute_force(self):
        # dense graphs leave clique candidates often, so the early stop fires
        rng = random.Random(61)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.7, 0.85, 0.95]))
            assert find_max_clique(g) == subset_max_clique(g)

    @given(n=st.integers(1, 300), m=st.integers(1, 10), p=st.floats(0.02, 0.35),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_sampled_rig(self, n, m, p, seed):
        # the same tuple, not just the same size: both return the
        # lexicographically smallest maximum clique
        g = induced_graph(sample_label_representation(resolve_params(n=n, m=m, p=p), seed))
        assert find_max_clique(g) == exact_max_clique(g)


class TestIncumbent:
    def test_non_clique_raises(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not a clique"):
            find_max_clique(g, clique=(0, 2))
        q = quotient_graph(g, closed_neighborhood_partition(g))
        with pytest.raises(ValueError, match="not a clique"):
            max_weight_quotient_clique(q, clique=(0, 2))

    def test_out_of_range_vertex_raises(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="out of range"):
            find_max_clique(g, clique=(1, 3))
        with pytest.raises(GraphError, match="out of range"):
            find_max_clique(build_graph(0, []), clique=(0,))

    def test_any_label_gives_the_same_tuple(self):
        rng = random.Random(67)
        for _ in range(40):
            params = resolve_params(n=rng.randint(1, 200), m=rng.randint(1, 8),
                                    p=rng.choice([0.05, 0.2, 0.4]))
            rep = sample_label_representation(params, rng.randrange(2**32))
            g = induced_graph(rep)
            answer = find_max_clique(g)
            for members in label_members(rep):
                assert find_max_clique(g, clique=members) == answer

    def test_tie_goes_to_the_earlier_label(self):
        # two disjoint labels of three; the later one as incumbent must
        # still give the lexicographically smaller clique
        rep = build_labels(6, 2, [[0], [0], [0], [1], [1], [1]])
        g = induced_graph(rep)
        assert find_max_clique(g, clique=(3, 4, 5)) == (0, 1, 2)
        q = quotient_graph(g, closed_neighborhood_partition(g))
        assert max_weight_quotient_clique(q, clique=(1,)) == (0,)

    @pytest.mark.parametrize("n, m, p, nodes", [
        (400, 10, 0.2, 1),  # ladder rung L1: the root; the scan takes the label whole
        # a single-label-dense trial: the root, then one scan question that
        # the root colouring cannot answer, whose search takes 23 nodes
        (400, 6, 0.3, 24),
    ], ids=["L1", "single-label-dense"])
    def test_largest_label_closes_phase_one_at_the_root(self, n, m, p, nodes):
        rep = sample_label_representation(resolve_params(n=n, m=m, p=p), seed=1, trial=0)
        g = induced_graph(rep)
        label = max_clique_from_labels(rep)
        assert find_max_clique(g, node_budget=nodes, clique=label) == exact_max_clique(g)
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            find_max_clique(g, node_budget=nodes - 1, clique=label)


@st.composite
def label_reps(draw):
    """Label representations on at most 40 vertices and eight labels, each
    vertex holding at most one to three of them: from nearly edgeless
    graphs with unlabelled and isolated vertices to nearly complete ones."""
    n = draw(st.integers(0, 40))
    m = draw(st.integers(0, 8))
    width = draw(st.integers(1, 3))
    sets = [draw(st.sets(st.integers(0, m - 1), max_size=width)) if m else set()
            for _ in range(n)]
    return build_labels(n, m, sets)


class TestAgainstNetworkx:
    @given(rep=label_reps())
    @settings(max_examples=200, deadline=None)
    def test_solvers_match_networkx_clique_size(self, rep):
        g = induced_graph(rep)
        nxg = nx.Graph(g.edges)
        nxg.add_nodes_from(range(g.n))
        _, size = nx.max_weight_clique(nxg, weight=None)
        for answer in (find_max_clique(g),
                       find_max_clique(g, clique=max_clique_from_labels(rep)),
                       exact_max_clique(g)):
            assert is_clique(g, answer)
            assert len(answer) == size


def blown_up(rng: random.Random, q: QuotientGraph) -> Graph:
    """q with each node k replaced by weights[k] twins, on shuffled ids."""
    owner = [c for c, w in enumerate(q.weights) for _ in range(w)]
    rng.shuffle(owner)
    return build_graph(len(owner), [
        (u, v) for u, v in combinations(range(len(owner)), 2)
        if owner[u] == owner[v] or q.graph.bits[owner[u]] >> owner[v] & 1])


def simplicial_start(g: Graph) -> tuple[int, ...]:
    return tuple(sorted(_simplicial_start(g)))


class TestSimplicialStart:
    @pytest.mark.parametrize("graph, start", [
        (build_graph(0, []), ()),
        (build_graph(4, []), (0,)),
        (complete_graph(5), (0, 1, 2, 3, 4)),
        (two_triangles(), (0, 1, 2)),
        (complete_multipartite([3, 3, 1, 1, 1]), ()),
        (corona(6), (0, 6)),
    ], ids=["n=0", "edgeless", "K5", "two-triangles", "K3,3,1,1,1", "corona-K6"])
    def test_small_cases(self, graph, start):
        assert simplicial_start(graph) == largest_simplicial_clique(graph) == start

    def test_matches_brute_force(self):
        rng = random.Random(71)
        for trial in range(450):
            if trial % 3 == 0:
                g = random_graph(rng, rng.randint(0, 16), rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]))
            elif trial % 3 == 1:  # twins and unlabelled isolated vertices
                g = induced_graph(random_label_rep(rng, rng.randint(0, 30), rng.randint(1, 6),
                                                   rng.choice([0.1, 0.3, 0.6])))
            else:
                g = blown_up(rng, random_quotient(rng, rng.randint(1, 10),
                                                  rng.choice([0.2, 0.5, 0.8]), 3))
            assert simplicial_start(g) == largest_simplicial_clique(g)

    @pytest.mark.parametrize("graph", [corona(k) for k in range(3, 7)] + [
        complete_multipartite([3, 3, 1, 1, 1]), complete_multipartite([2, 2, 2, 2])],
        ids=[f"corona-K{k}" for k in range(3, 7)] + ["K3,3,1,1,1", "K2,2,2,2"])
    def test_answer_when_the_start_is_short(self, graph):
        assert len(simplicial_start(graph)) < len(subset_max_clique(graph))
        assert find_max_clique(graph) == subset_max_clique(graph) == exact_max_clique(graph)

    def test_small_graphs_match_brute_force(self):
        rng = random.Random(73)
        short = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6]))
            answer = subset_max_clique(g)
            short += len(simplicial_start(g)) < len(answer)
            assert find_max_clique(g) == answer
        assert short >= 50

    def test_labels_that_overlap(self):
        # m p^2 = 1, as on ladder rung L5, where a vertex often holds several
        # labels and the start can fall short of the largest label
        rng = random.Random(79)
        short = 0
        for _ in range(40):
            rep = sample_label_representation(resolve_params(n=rng.randint(20, 80), m=25, p=0.2),
                                              rng.randrange(2**32))
            g = induced_graph(rep)
            answer = exact_max_clique(g)
            short += len(simplicial_start(g)) < len(answer)
            assert find_max_clique(g) == answer
            for members in label_members(rep):
                assert find_max_clique(g, clique=members) == answer
        assert short >= 20


@st.composite
def weighted_quotients(draw) -> QuotientGraph:
    """A random quotient on up to 10 nodes of weights 1 to 4, so
    maximum-weight ties are common; or, as find_max_clique meets it, the
    quotient of its blow-up into twins, whose rows the search takes from a
    graph's rows and in which twin nodes have merged."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    q = random_quotient(rng, draw(st.integers(1, 10)), draw(st.sampled_from([0.2, 0.5, 0.8])),
                        draw(st.integers(1, 4)))
    if draw(st.booleans()):
        g = blown_up(rng, q)
        q = quotient_graph(g, closed_neighborhood_partition(g))
    return q


class TestRootColouring:
    """The first search keeps its root colouring's peeled sets, and the
    scan passes a class over without a search when the charges of the
    root sets that meet its remaining neighbours fall short."""

    @given(q=weighted_quotients())
    @settings(deadline=None)
    def test_refusals_keep_the_answer(self, q):
        # every maximal clique as incumbent: some close the first search at
        # its root, so the scan runs on a tight root colouring
        answer = subset_max_weight_cliques(q)[0]
        assert max_weight_quotient_clique(q) == answer
        for clique in all_maximal_cliques(q.graph):
            assert max_weight_quotient_clique(q, clique=clique) == answer

    @pytest.mark.parametrize("start", ["label", "bare"])
    @pytest.mark.parametrize("n, m, p", [
        (400, 10, 0.2), (2000, 10, 0.2), (5000, 50, 0.05), (3000, 100, 0.02), (400, 6, 0.3),
    ], ids=["L1", "L2", "L3", "L4", "single-label-dense"])
    def test_root_sets_prove_omega(self, monkeypatch, n, m, p, start):
        # On each, the first search closes at its root with either start, so
        # the root colouring certifies the clique number. The search's rows
        # are built for its nodes in order, which names each node's class.
        rep = sample_label_representation(resolve_params(n=n, m=m, p=p), seed=1, trial=0)
        g = induced_graph(rep)
        nodes, roots = [], []

        def rows(graph, vertices):
            nodes.append(list(vertices))
            return _subgraph_rows(graph, vertices)

        def colour(pmask, weights, others, sets=None):
            out = _colour(pmask, weights, others, sets)
            if sets is not None:
                roots.append(sets)
            return out

        monkeypatch.setattr(rigclique.quotient, "_subgraph_rows", rows)
        monkeypatch.setattr(rigclique.quotient, "_colour", colour)
        label = max_clique_from_labels(rep)
        clique = find_max_clique(g, clique=label if start == "label" else ())
        assert len(nodes) == len(roots) == 1
        assert len(clique) == len(label)
        check_root_certificate(g, nodes[0], roots[0], len(clique))


def fewest_nodes(solve) -> tuple[int, tuple[int, ...]]:
    """The smallest node budget at which solve(budget) answers, and the
    answer; it refuses at one less."""
    budget = 0
    while True:
        try:
            return budget, solve(budget)
        except SearchBudgetExceeded:
            budget += 1


class TestRowsFromG:
    """find_max_clique builds its search rows from g's representatives of
    the classes it keeps, not from the quotient; it must run the very
    search that max_weight_quotient_clique runs on the quotient of those
    classes from the same start."""

    def test_same_search_as_on_the_quotient(self):
        rng = random.Random(83)
        branched = 0
        for trial in range(330):
            if trial % 2:  # twin classes of sizes 1 to 4
                g = blown_up(rng, random_quotient(rng, rng.randint(1, 14),
                                                  rng.choice([0.2, 0.5, 0.8]), 4))
            else:
                g = induced_graph(random_label_rep(rng, rng.randint(1, 40), rng.randint(1, 6),
                                                   rng.choice([0.1, 0.3, 0.6])))
            start = set(_simplicial_start(g))
            part = closed_neighborhood_partition(
                g, [v for v in range(g.n) if g.bits[v].bit_count() + 1 >= len(start)])
            q = quotient_graph(g, part)
            met = [c for c, cls in enumerate(part.classes) if not start.isdisjoint(cls)]
            nodes, answer = fewest_nodes(lambda budget: find_max_clique(g, budget))
            q_nodes, chosen = fewest_nodes(
                lambda budget: max_weight_quotient_clique(q, budget, clique=met))
            assert nodes == q_nodes
            assert answer == tuple(sorted(v for c in chosen for v in part.classes[c]))
            branched += nodes > 1
        assert branched >= 100


@st.composite
def sparse_label_reps(draw):
    """Label representations on at most 12 vertices where each vertex holds
    at most two of up to five labels, so isolated vertices, pendants and
    vertices too low in degree to reach the largest clique are common."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 5))
    sets = [draw(st.sets(st.integers(0, m - 1), max_size=2)) for _ in range(n)]
    return build_labels(n, m, sets)


class TestDegreeFloor:
    """find_max_clique partitions and searches only the vertices whose
    degree + 1 reaches its start's size."""

    def test_isolated_vertices_are_not_searched(self):
        # The path 0 - 49999 - 1 among 50,000 vertices: the start is {0, 49999},
        # so only the path's three vertices are searched. Searching every
        # vertex peaked at 174 MB here, as each class's mask of non-neighbours
        # is as wide as its index.
        n = 50_000
        g = build_graph(n, [(0, n - 1), (n - 1, 1)])
        tracemalloc.start()
        try:
            answer = find_max_clique(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == (0, n - 1)
        assert peak < 16 * 2**20

    def test_partition_of_twin_closed_vertices(self):
        # a union of whole classes partitions into exactly those classes
        rng = random.Random(89)
        for trial in range(200):
            if trial % 2:
                g = blown_up(rng, random_quotient(rng, rng.randint(1, 10),
                                                  rng.choice([0.2, 0.5, 0.8]), 3))
            else:
                g = random_graph(rng, rng.randint(0, 20), rng.choice([0.1, 0.4, 0.8]))
            whole = closed_neighborhood_partition(g)
            assert closed_neighborhood_partition(g, range(g.n)) == whole
            kept = [cls for cls in whole.classes if rng.random() < 0.5]
            vs = sorted(v for cls in kept for v in cls)
            assert closed_neighborhood_partition(g, vs).classes == tuple(kept)

    @given(rep=sparse_label_reps())
    @settings(max_examples=150, deadline=None)
    def test_any_start_matches_brute_force(self, rep):
        g = induced_graph(rep)
        answer = subset_max_clique(g)
        assert find_max_clique(g) == answer
        for clique in set(label_members(rep)) | all_maximal_cliques(g):
            assert find_max_clique(g, clique=clique) == answer


class TestQuotientSizeBound:
    def test_class_count_bounded_by_intersection_number(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]))
            part = closed_neighborhood_partition(g)
            nonisolated = sum(1 for cls in part.classes if g.bits[cls[0]])
            iota = exact_intersection_number(g)
            assert nonisolated <= min(2 ** iota, g.n)
