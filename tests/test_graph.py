import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigclique import (FormatError, GraphError, LabelRepresentation, build_graph,
                       build_labels, decode_graph, decode_labels, encode_graph,
                       encode_labels, induced_graph, is_chordal, is_clique)

from helpers import (brute_chordal, complete_graph, has_chordless_cycle, label_sets,
                     random_graph, two_triangles)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return build_graph(n, edges)


@st.composite
def label_reps(draw, max_n=8, max_m=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    sets = [draw(st.sets(st.integers(0, m - 1))) if m else set() for _ in range(n)]
    return build_labels(n, m, sets)


class TestBuildGraph:
    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.bits == (0b010, 0b101, 0b010)

    def test_empty(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.edges == ()

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"self-loop \(1, 1\)"):
            build_graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match=r"\(0, 3\)"):
            build_graph(3, [(0, 3)])

    def test_duplicate_rejected_either_order(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(1, 0\)"):
            build_graph(2, [(0, 1), (1, 0)])

    def test_unordered_pairs_normalized(self):
        assert build_graph(3, [(2, 0)]).edges == ((0, 2),)

    def test_edges_sorted_and_round_trip(self):
        g = random_graph(random.Random(7), 12, 0.4)
        assert list(g.edges) == sorted(g.edges)
        assert all(u < v for u, v in g.edges)
        assert build_graph(g.n, g.edges) == g

    def test_edges_of_sparse_wide_graph(self):
        # deriving the pairs follows the rows, not the vertex count
        n = 200_000
        g = build_graph(n, [(n - 1, 3), (0, 1)])
        assert g.edges == ((0, 1), (3, n - 1))

    def test_repr_counts_edges_from_rows(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert repr(g) == "Graph(n=4, edges=3)"
        assert g._edges is None  # the edge list is still underived


class TestLabelRepresentation:
    def test_inverse_consistency(self):
        rep = build_labels(3, 2, [[0], [0, 1], [1]])
        assert rep.masks == (0b011, 0b110)
        assert rep == LabelRepresentation(3, 2, (0b011, 0b110))

    def test_slots(self):
        assert LabelRepresentation.__slots__ == ("n", "m", "masks")

    def test_out_of_range_label(self):
        with pytest.raises(GraphError, match="label 2 out of range"):
            build_labels(1, 2, [[2]])

    def test_wrong_set_count(self):
        with pytest.raises(GraphError, match="expected 2 label sets, got 1"):
            build_labels(2, 1, [[0]])

    def test_negative_count(self):
        with pytest.raises(GraphError, match="counts must be >= 0"):
            build_labels(1, -1, [[]])

    def test_repeated_label_is_harmless(self):
        assert build_labels(2, 1, [[0, 0], [0]]) == build_labels(2, 1, [[0], [0]])

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sets(st.integers(0, 4)), min_size=n, max_size=n))))
    def test_views_are_inverses(self, case):
        n, sets = case
        rep = build_labels(n, 5, sets)
        assert len(rep.masks) == 5
        for v in range(n):
            for i in range(5):
                assert (rep.masks[i] >> v) & 1 == (i in sets[v])
        assert all(mask >> n == 0 for mask in rep.masks)


class TestInducedGraph:
    def test_shared_labels_make_edges(self):
        rep = build_labels(3, 2, [[0], [0, 1], [1]])
        assert induced_graph(rep).edges == ((0, 1), (1, 2))

    def test_no_labels_no_edges(self):
        rep = build_labels(4, 2, [[], [], [], []])
        assert induced_graph(rep).edges == ()

    def test_common_label_is_complete(self):
        rep = build_labels(5, 1, [[0]] * 5)
        assert induced_graph(rep) == complete_graph(5)

    @given(label_reps())
    @settings(max_examples=60)
    def test_edge_iff_sets_intersect(self, rep):
        g = induced_graph(rep)
        sets = label_sets(rep)
        for u in range(rep.n):
            for v in range(u + 1, rep.n):
                assert g.has_edge(u, v) == bool(sets[u] & sets[v])
        pairs = [(u, v) for u in range(rep.n) for v in range(u + 1, rep.n)
                 if sets[u] & sets[v]]
        by_definition = build_graph(rep.n, pairs)
        assert g == by_definition
        assert hash(g) == hash(by_definition)
        assert all((g.bits[v] >> v) & 1 == 0 for v in range(g.n))


class TestIsClique:
    def test_complete(self):
        assert is_clique(complete_graph(4), [0, 1, 2, 3])

    def test_path_ends(self):
        assert not is_clique(build_graph(3, [(0, 1), (1, 2)]), [0, 2])

    def test_singleton_and_empty(self):
        g = build_graph(6, [])
        assert is_clique(g, [5])
        assert is_clique(g, [])

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            is_clique(build_graph(2, []), [3])


class TestIsChordal:
    def test_c4(self):
        ok, order = is_chordal(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert not ok and order is None

    def test_tree(self):
        ok, _ = is_chordal(build_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)]))
        assert ok

    def test_c4_with_chord(self):
        ok, _ = is_chordal(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))
        assert ok

    def test_empty(self):
        ok, order = is_chordal(build_graph(0, []))
        assert ok and order == ()

    def _check_order_simplicial(self, g, order):
        # independent check: each vertex simplicial among later ones
        assert sorted(order) == list(range(g.n))
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [w for w in range(g.n) if g.has_edge(v, w) and pos[w] > pos[v]]
            for i in range(len(later)):
                for j in range(i + 1, len(later)):
                    assert g.has_edge(later[i], later[j])

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 9), rng.choice([0.15, 0.35, 0.6]))
            ok, order = is_chordal(g)
            assert ok == brute_chordal(g)
            if ok:
                self._check_order_simplicial(g, order)
            else:
                assert has_chordless_cycle(g)

    def test_large_interval_like_graph(self):
        # overlapping cliques in a row stay chordal
        edges = set()
        for start in range(0, 60, 3):
            block = range(start, min(start + 6, 64))
            edges.update((a, b) for a in block for b in block if a < b)
        ok, order = is_chordal(build_graph(64, sorted(edges)))
        assert ok
        self._check_order_simplicial(build_graph(64, sorted(edges)), order)


class TestGraphCodec:
    def test_decode_path(self):
        assert decode_graph("3 2\n0 1\n1 2\n") == build_graph(3, [(0, 1), (1, 2)])

    def test_decode_empty(self):
        assert decode_graph("0 0\n") == build_graph(0, [])

    def test_decode_self_loop_reported_as_such(self):
        with pytest.raises(GraphError, match="self-loop"):
            decode_graph("2 1\n1 1\n")

    def test_comments_skipped(self):
        text = "# generated\n3 1\n# middle\n0 2\n"
        assert decode_graph(text) == build_graph(3, [(0, 2)])

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="header"):
            decode_graph("3\n")

    def test_non_numeric_token(self):
        with pytest.raises(FormatError, match="non-numeric"):
            decode_graph("2 1\n0 x\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="expected 2 edge lines"):
            decode_graph("3 2\n0 1\n")

    @given(graphs())
    def test_round_trip(self, g):
        assert decode_graph(encode_graph(g)) == g

    @given(graphs())
    def test_canonical_fixed_point(self, g):
        text = encode_graph(g)
        assert encode_graph(decode_graph(text)) == text
        assert text.endswith("\n") and "\r" not in text


class TestLabelCodec:
    def test_decode_example(self):
        rep = decode_labels("3 2\n0: 0\n1: 0 1\n2: 1\n")
        assert rep.masks == (0b011, 0b110)

    def test_empty_set_line(self):
        rep = decode_labels("1 1\n0:\n")
        assert rep.masks == (0,)

    def test_label_out_of_range(self):
        with pytest.raises(FormatError, match="label 1 out of range"):
            decode_labels("2 1\n0: 1\n1:\n")

    def test_vertex_line_out_of_order(self):
        with pytest.raises(FormatError, match="expected prefix '0:'"):
            decode_labels("2 1\n1:\n0:\n")

    def test_vertex_line_missing(self):
        with pytest.raises(FormatError, match="expected 2 vertex lines"):
            decode_labels("2 1\n0: 0\n")

    @given(label_reps())
    def test_round_trip(self, rep):
        assert decode_labels(encode_labels(rep)) == rep

    @given(label_reps())
    def test_canonical_fixed_point(self, rep):
        text = encode_labels(rep)
        assert encode_labels(decode_labels(text)) == text
