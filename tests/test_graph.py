import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigclique.graph
from rigclique import (FormatError, Graph, GraphError, LabelRepresentation, build_graph,
                       build_labels, closed_neighborhood_partition, decode_graph,
                       decode_labels, encode_graph, encode_labels, induced_graph,
                       is_chordal, is_clique, resolve_params, sample_label_representation)

from helpers import (_set_bits, brute_chordal, complete_graph, has_chordless_cycle, has_edge,
                     label_sets, mcs_order, random_graph, two_triangles,
                     whole_graph_is_chordal)


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
        assert Graph.__slots__ == ("bits",)  # no edge list is kept beside the rows

    def test_frozen_with_n_from_rows(self):
        g = build_graph(4, [(0, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.bits = ()
        assert Graph(()).n == 0
        for h, n in ((g, 4), (build_graph(0, []), 0), (decode_graph("5 1\n3 4\n"), 5),
                     (induced_graph(build_labels(3, 0, [[]] * 3)), 3)):
            assert h.n == len(h.bits) == n


class TestLabelRepresentation:
    def test_inverse_consistency(self):
        rep = build_labels(3, 2, [[0], [0, 1], [1]])
        assert rep.masks == (0b011, 0b110)
        assert rep == LabelRepresentation(3, (0b011, 0b110))

    def test_slots(self):
        assert LabelRepresentation.__slots__ == ("n", "masks")

    def test_frozen_with_m_from_masks(self):
        rep = build_labels(3, 2, [[0], [0, 1], [1]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.masks = ()
        assert rep.m == len(rep.masks) == 2
        assert LabelRepresentation(3, ()).m == 0
        assert build_labels(2, 0, [[], []]).m == 0
        params = resolve_params(n=4, m=0, p=0.5)
        assert sample_label_representation(params, seed=0).m == 0

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


def spread_mask(count, width=2000):
    """A mask of count set bits at random places below width."""
    return sum(1 << v for v in random.Random(count).sample(range(width), count))


DENSE = rigclique.graph._DENSE_MEMBERS
RUN = (1 << (DENSE + 1)) - 1  # the lowest DENSE + 1 bits


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
                assert has_edge(g, u, v) == bool(sets[u] & sets[v])
        pairs = [(u, v) for u in range(rep.n) for v in range(u + 1, rep.n)
                 if sets[u] & sets[v]]
        by_definition = build_graph(rep.n, pairs)
        assert g == by_definition
        assert hash(g) == hash(by_definition)
        assert all((g.bits[v] >> v) & 1 == 0 for v in range(g.n))

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_iff_sets_intersect_with_dense_labels(self, seed):
        # labels of 60-120 members take _members' numpy path; one label sits
        # just above the threshold, and some vertices hold no label
        rng = random.Random(seed)
        n, m = rng.randint(150, 300), 5
        labelled = rng.sample(range(n), n - 10)
        sets = [set() for _ in range(n)]
        for i in range(m - 1):
            for v in rng.sample(labelled, rng.randint(60, 120)):
                sets[v].add(i)
        for v in rng.sample(labelled, DENSE + 1):
            sets[v].add(m - 1)
        rep = build_labels(n, m, sets)
        assert min(map(int.bit_count, rep.masks)) > DENSE
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if sets[u] & sets[v]]
        assert induced_graph(rep) == build_graph(n, pairs)


class TestMembers:
    @pytest.mark.parametrize("mask", [
        0, 1 << 37, 1, 1 << 9999, (1 << 10_000) - 1,
        spread_mask(DENSE - 1), spread_mask(DENSE), spread_mask(DENSE + 1),
        RUN, RUN << 5000,
    ], ids=["zero", "single", "bit0", "top-bit", "ones-10000", "dense-1", "dense",
            "dense+1", "low-run", "high-run"])
    def test_equals_bit_loop(self, mask):
        got = rigclique.graph._members(mask)
        assert got == _set_bits(mask)
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("dense", [0, 10 ** 9])
    def test_both_paths_agree(self, monkeypatch, dense):
        # each path forced in turn, on masks of every density near the threshold
        monkeypatch.setattr(rigclique.graph, "_DENSE_MEMBERS", dense)
        rng = random.Random(3)
        for _ in range(200):
            width = rng.randint(1, 3000)
            mask = sum(1 << v for v in rng.sample(range(width), rng.randint(0, min(width, 60))))
            got = rigclique.graph._members(mask)
            assert got == _set_bits(mask)
            assert all(type(v) is int for v in got)


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
            later = [w for w in range(g.n) if has_edge(g, v, w) and pos[w] > pos[v]]
            for i in range(len(later)):
                for j in range(i + 1, len(later)):
                    assert has_edge(g, later[i], later[j])

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


def restricted(g, vs):
    """g restricted to the vertex list vs, renumbered in its order, edge by edge."""
    return build_graph(len(vs), [(i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
                                 if has_edge(g, vs[i], vs[j])])


@pytest.mark.parametrize("block_cells", [64, 1 << 24])
def test_subgraph_rows_restrict_any_sorted_vertex_list(monkeypatch, block_cells):
    monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", block_cells)
    # a kept vertex whose only neighbour is dropped and lies below it
    assert rigclique.graph._subgraph_rows(build_graph(6, [(2, 5)]), [5]) == [0]
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 40), rng.choice([0.05, 0.3, 0.8]))
        vs = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
        assert tuple(rigclique.graph._subgraph_rows(g, vs)) == restricted(g, vs).bits


@pytest.mark.parametrize("block_cells", [64, 1 << 24])
def test_subgraph_rows_restrict_any_vertex_order(monkeypatch, block_cells):
    monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", block_cells)
    # a kept vertex listed before a lower kept vertex whose only neighbour is dropped
    g = build_graph(6, [(2, 5), (1, 3)])
    assert rigclique.graph._subgraph_rows(g, [5, 1]) == [0, 0]
    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 40), rng.choice([0.05, 0.3, 0.8]))
        vs = rng.sample(range(g.n), rng.randint(0, g.n))
        assert tuple(rigclique.graph._subgraph_rows(g, vs)) == restricted(g, vs).bits


def test_subgraph_rows_blocks_stay_within_bound_in_any_order(monkeypatch):
    # A band graph: vertex v sees only ids near v, so a low vertex's row is
    # narrow, while its class representatives in degree order list high ids
    # early, so the columns such a row needs run far past its width.
    cells = 256
    monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", cells)
    unpacked, packed = [], []
    unpack, pack = rigclique.graph._unpack_rows, rigclique.graph._pack_rows

    def recording_unpack(rows, width):
        block = unpack(rows, width)
        unpacked.append(block.shape)
        return block

    def recording_pack(cells):
        packed.append(cells.shape)
        return pack(cells)

    monkeypatch.setattr(rigclique.graph, "_unpack_rows", recording_unpack)
    monkeypatch.setattr(rigclique.graph, "_pack_rows", recording_pack)
    rng = random.Random(61)
    n = 120
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(u + 6, n))
                        if v - u == 1 or rng.random() < 0.5])
    reps = [cls[0] for cls in closed_neighborhood_partition(g).classes]
    reps.sort(key=lambda v: -g.bits[v].bit_count())
    assert sum(g.bits[v].bit_length() < len(reps) // 4 for v in reps) > 20
    assert tuple(rigclique.graph._subgraph_rows(g, reps)) == restricted(g, reps).bits
    assert len(unpacked) == len(packed) > 1
    assert any(rows > 1 for rows, _ in packed)
    for rows, columns in unpacked:  # each row unpacked to whole bytes
        assert rows * columns <= cells + 7 * rows
    for rows, columns in packed:
        assert rows * columns <= cells


class TestChordalOrderMatchesWholeGraphSearch:
    """is_chordal searches g's own rows over the mask of the vertices with
    an edge; its answer is the tuple that maximum cardinality search over
    all of g gives."""

    @pytest.mark.parametrize("n, edges", [
        (0, []),
        (1, []),
        (4, []),
        # isolated vertices before, between and above two paths
        (9, [(2, 3), (3, 4), (6, 7)]),
        # a triangle, an isolated 3, an edge, isolated 6 and 7, a star
        (12, [(0, 1), (1, 2), (0, 2), (4, 5), (8, 9), (8, 10), (8, 11)]),
        # components whose smallest vertices interleave with isolated ones
        (10, [(1, 9), (2, 5), (5, 8), (4, 7)]),
        # a chordless 4-cycle beside isolated vertices
        (7, [(1, 2), (2, 4), (4, 5), (1, 5)]),
        # isolated vertices 5..11 above the highest vertex with an edge
        (12, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        # isolated vertices 3..5 and 9 between components
        (12, [(0, 1), (1, 2), (6, 7), (7, 8), (6, 8), (10, 11)]),
        # MCS reaches the chordless 4-cycle 8-9-10-11 only after the
        # triangle and the isolated run 3..7
        (12, [(0, 1), (1, 2), (0, 2), (8, 9), (9, 10), (10, 11), (8, 11)]),
        # the same cycle after the run, with a tree beyond it
        (14, [(0, 1), (6, 8), (8, 9), (9, 7), (7, 6), (10, 12), (12, 13)]),
        # rows far narrower than the mask: short paths spread over 300 ids
        (300, [(0, 1), (1, 2), (140, 141), (297, 298), (298, 299)]),
    ])
    def test_small_graphs(self, n, edges):
        g = build_graph(n, edges)
        assert is_chordal(g) == whole_graph_is_chordal(g)

    def test_mask_wider_than_every_row(self):
        # over all n vertices, isolated ones included, the search is plain
        # MCS over g: the top vertices have no edge, so the mask reaches
        # beyond every row
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 24)
            low = rng.randint(0, n - 1)
            edges = [(u, v) for u in range(low) for v in range(u + 1, low) if rng.random() < 0.3]
            g = build_graph(n, edges)
            chordal, _ = whole_graph_is_chordal(g)
            visit = rigclique.graph._perfect_mcs_order(g.bits, (1 << n) - 1)
            assert visit == (list(mcs_order(g)) if chordal else None)

    def test_random_graphs_with_isolated_vertices(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 30)
            active = sorted(rng.sample(range(n), rng.randint(0, n)))
            edges = [(u, v) for i, u in enumerate(active) for v in active[i + 1:]
                     if rng.random() < 0.25]
            g = build_graph(n, edges)
            assert is_chordal(g) == whole_graph_is_chordal(g)

    def test_sparse_regime_samples(self):
        params = resolve_params(n=2000, m=60, p=0.003)
        for trial in range(200):
            g = induced_graph(sample_label_representation(params, 1, trial))
            assert is_chordal(g) == whole_graph_is_chordal(g)


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
