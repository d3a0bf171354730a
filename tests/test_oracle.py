import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigclique import (CYCLE_FOUND, CYCLE_NONE, CYCLE_UNKNOWN, Graph, LabeledCycle,
                       SearchBudgetExceeded, build_graph, build_labels,
                       check_labeled_cycle, enumerate_maximal_cliques,
                       exact_max_clique, find_distinct_label_cycle, induced_graph,
                       resolve_params, sample_label_representation)

from helpers import (all_maximal_cliques, cocktail_party, complete_graph,
                     complete_multipartite, corona,
                     exact_intersection_number, exhaustive_labeled_cycle_exists,
                     list_label_cycle, mask_is_clique, random_graph, random_label_rep, subset_max_clique,
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


@st.composite
def clique_rich_graphs(draw):
    """Graphs on at most 12 vertices whose searches meet candidate sets that
    are cliques below the root: near-complete graphs, complete multipartite
    graphs, coronas and disjoint unions of cliques, with ids shuffled."""
    kind = draw(st.sampled_from(["near-complete", "multipartite", "corona", "cliques"]))
    if kind == "corona":
        g = corona(draw(st.integers(1, 6)))
        n, edges = g.n, g.edges
    else:
        n = draw(st.integers(1, 12))
        pairs = list(combinations(range(n), 2))
        if kind == "near-complete":
            missing = draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
            edges = [e for e in pairs if e not in missing]
        else:  # a part per vertex; parts are joined, or each part is a clique
            part = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
            joined = kind == "multipartite"
            edges = [(u, v) for u, v in pairs if (part[u] != part[v]) == joined]
    where = draw(st.permutations(range(n)))
    return build_graph(n, [(where[u], where[v]) for u, v in edges])


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
        assert exact_max_clique(Graph(()), node_budget=0) == ()  # no node to charge
        assert exact_max_clique(build_graph(3, [])) == (0,)

    def test_matches_subset_enumeration(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 11)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            assert exact_max_clique(g) == subset_max_clique(g)

    def test_budget_refusal(self):
        # K_{2x15} colors two vertices per color at every node, so no
        # candidate set is a clique and its dive takes 15 nodes
        g = cocktail_party(15)
        with pytest.raises(SearchBudgetExceeded, match="node budget"):
            exact_max_clique(g, node_budget=3)

    def test_clique_root_is_one_node(self):
        # the root's candidates are K30 itself, colored one vertex per
        # color, so the root is a leaf
        g = complete_graph(30)
        assert exact_max_clique(g, node_budget=1) == tuple(range(30))
        with pytest.raises(SearchBudgetExceeded, match="node budget 0"):
            exact_max_clique(g, node_budget=0)

    def test_result_is_stable(self):
        g = random_graph(random.Random(5), 40, 0.5)
        assert exact_max_clique(g) == exact_max_clique(g)

    @pytest.mark.parametrize("n, m, p, trial, omega, nodes", [
        # ladder rung L1: a dive of 8 nodes, whose last candidates (83) are
        # a clique; the scan takes the witness whole
        (400, 10, 0.2, 0, 91, 9),
        # a single-label-dense trial: the rule fires at depth 2 (124
        # candidates), one more node at depth 1 and at the root's next
        # color are bounded out, then 1 node in the scan
        (400, 6, 0.3, 0, 126, 5),
        # ladder rung L2: the rule fires at depth 1 (434 candidates), then
        # 1 node in the scan
        (2000, 10, 0.2, 0, 435, 3),
        # overlapping labels (m * p^2 = 0.8): 48 nodes in the first search;
        # a scan search fires the rule at depth 8 (6 candidates), which
        # reaches its target, and stops there: 18 nodes in the scan
        (50, 20, 0.2, 29, 15, 66),
    ], ids=["L1", "single-label-dense", "L2", "overlapping-labels"])
    def test_exact_node_count(self, n, m, p, trial, omega, nodes):
        g = induced_graph(sample_label_representation(
            resolve_params(n=n, m=m, p=p), seed=1, trial=trial))
        assert len(exact_max_clique(g, node_budget=nodes)) == omega
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            exact_max_clique(g, node_budget=nodes - 1)


    @pytest.mark.parametrize("graph, nodes", [
        # the root's candidates are a clique, so the rule fires there
        (complete_graph(8), 1),
        # parts {0,1,2} and {3,4,5}, then 6, 7, 8: the rule fires at depth
        # 2, on the candidates {6, 7, 8}
        (complete_multipartite([3, 3, 1, 1, 1]), 3),
        # a dive into the K6 6..11; the rule fires at depth 2, on its last
        # four vertices; each pendant 0..5 has one neighbour left, too few
        # to complete a clique of 6, so the scan searches none
        (corona(6), 3),
    ], ids=["K8", "K3,3,1,1,1", "corona-K6"])
    def test_phase_two_stops_at_a_clique(self, graph, nodes):
        assert exact_max_clique(graph, node_budget=nodes) == subset_max_clique(graph)
        with pytest.raises(SearchBudgetExceeded, match=f"node budget {nodes - 1}"):
            exact_max_clique(graph, node_budget=nodes - 1)

    def test_cocktail_party(self):
        # K_{2x300}: each vertex misses only its partner v ^ 1; the smallest
        # maximum clique takes the even member of each pair. Each color is
        # peeled from the highest id down, so the lowest id of a color is
        # tried first and one dive finds that tuple: 300 nodes. Every set it
        # colors, down to the last pair, holds both members of each pair,
        # two vertices per color, so none is a clique and the dive takes
        # one node per vertex. Trying the highest first finds the odd
        # members, and the scan then searches again for each pair, far
        # beyond this budget.
        g = cocktail_party(300)
        assert exact_max_clique(g, node_budget=300) == tuple(range(0, 600, 2))

    @given(g=clique_rich_graphs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_clique_candidates_match_brute_force(self, g):
        assert exact_max_clique(g) == subset_max_clique(g)

    def test_dense_graphs_match_brute_force(self):
        # dense graphs leave clique candidates often, so the early stop fires
        rng = random.Random(71)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.7, 0.85, 0.95]))
            assert exact_max_clique(g) == subset_max_clique(g)


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

    def test_matches_whole_incidence_graph_search(self):
        # empty labels, one-member labels and unlabelled vertices get no
        # node; the status, the witness and the step at which the budget
        # runs out are those of the search over every node
        rng = random.Random(29)
        seen = set()
        for _ in range(400):
            n, m = rng.randint(0, 14), rng.randint(0, 9)
            sets = [[] if rng.random() < 0.3 else
                    [i for i in range(m) if rng.random() < rng.choice([0.15, 0.35])]
                    for _ in range(n)]
            if m:
                for v in range(n):  # one label only vertex 0 holds
                    sets[v] = [i for i in sets[v] if i != m - 1]
                if n:
                    sets[0].append(m - 1)
            rep = build_labels(n, m, sets)
            for budget in (1, 3, 10, 30, 100, None):
                kwargs = {} if budget is None else {"step_budget": budget}
                got = find_distinct_label_cycle(rep, **kwargs)
                assert got == list_label_cycle(rep, **kwargs)
                seen.add(got[0])
        assert seen == {CYCLE_FOUND, CYCLE_NONE, CYCLE_UNKNOWN}

    def test_sparse_regime_matches_whole_incidence_graph_search(self):
        params = resolve_params(n=2000, m=60, p=0.003)
        for trial in range(30):
            rep = sample_label_representation(params, 2, trial)
            for budget in (1, 3, 10, 30, 100, None):
                kwargs = {} if budget is None else {"step_budget": budget}
                assert find_distinct_label_cycle(rep, **kwargs) == list_label_cycle(rep, **kwargs)


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
