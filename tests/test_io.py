"""Graph file decoding: the exact error contract, the array path for
canonical files, and its memory bound."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigclique.graph
import rigclique.io
from rigclique import FormatError, GraphError, build_graph, decode_graph, encode_graph

from helpers import random_graph

# Each text with the exception and the full message the line parser gives.
MALFORMED = [
    ("blank edge line", "3 2\n0 1\n\n",
     FormatError, "malformed edge line '': expected 'u v'"),
    ("blank line among edges", "3 2\n0 1\n\n1 2\n",
     FormatError, "expected 2 edge lines, found 3"),
    ("three tokens", "3 1\n0 1 2\n",
     FormatError, "malformed edge line '0 1 2': expected 'u v'"),
    # two spaces and two newlines, as two edges would have
    ("one line with two spaces", "46 2\n1 2 3\n45\n",
     FormatError, "malformed edge line '1 2 3': expected 'u v'"),
    ("minus sign", "3 1\n-1 2\n",
     GraphError, "endpoint out of range (-1, 2) for n=3"),
    ("beyond int64", "2 1\n0 18446744073709551617\n",
     GraphError, "endpoint out of range (0, 18446744073709551617) for n=2"),
    ("nineteen digits", "2 1\n0 1000000000000000000\n",
     GraphError, "endpoint out of range (0, 1000000000000000000) for n=2"),
    ("self-loop", "3 2\n0 1\n2 2\n", GraphError, "self-loop (2, 2)"),
    ("out of range", "3 2\n0 1\n1 3\n", GraphError, "endpoint out of range (1, 3) for n=3"),
    ("pair repeated reversed", "3 2\n0 1\n1 0\n", GraphError, "duplicate edge (1, 0)"),
    ("pair repeated", "3 3\n0 1\n1 2\n0 1\n", GraphError, "duplicate edge (0, 1)"),
    ("too few edge lines", "3 3\n0 1\n1 2\n", FormatError, "expected 3 edge lines, found 2"),
    ("too many edge lines", "3 1\n0 1\n1 2\n", FormatError, "expected 1 edge lines, found 2"),
    ("trailing blank line", "3 1\n0 1\n\n", FormatError, "expected 1 edge lines, found 2"),
    ("trailing token without newline", "3 1\n0 1\n2",
     FormatError, "expected 1 edge lines, found 2"),
    ("bad header", "3\n0 1\n",
     FormatError, "malformed header '3': expected 'n edge count'"),
    ("non-numeric header", "3 x\n", FormatError, "non-numeric edge count 'x'"),
    ("non-numeric endpoint", "3 1\n0 y\n", FormatError, "non-numeric endpoint 'y'"),
    ("empty", "", FormatError, "missing header line"),
]

# Each text the line parser accepts, with the graph it means.
ACCEPTED = [
    ("crlf", "3 2\r\n0 1\r\n1 2\r\n", 3, [(0, 1), (1, 2)]),
    ("comment line in body", "3 2\n0 1\n# note\n1 2\n", 3, [(0, 1), (1, 2)]),
    ("plus sign", "3 1\n+1 2\n", 3, [(1, 2)]),
    ("non-ascii digits", "3 1\n0 ٢\n", 3, [(0, 2)]),
    ("missing final newline", "3 2\n0 1\n1 2", 3, [(0, 1), (1, 2)]),
    ("leading zeros", "3 1\n00 02\n", 3, [(0, 2)]),
    ("extra spaces and a tab", "3 2\n 0  1\n1\t2\n", 3, [(0, 1), (1, 2)]),
    ("canonical", "4 3\n0 1\n0 3\n2 3\n", 4, [(0, 1), (0, 3), (2, 3)]),
    ("canonical, pairs in any order", "4 3\n3 2\n1 0\n0 3\n", 4, [(0, 1), (0, 3), (2, 3)]),
    ("no edges", "5 0\n", 5, []),
]


@pytest.mark.parametrize("text, exc, message",
                         [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_exact_error(text, exc, message):
    with pytest.raises(exc) as info:
        decode_graph(text)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("text, n, edges",
                         [case[1:] for case in ACCEPTED], ids=[case[0] for case in ACCEPTED])
def test_accepted_equals_build_graph(text, n, edges):
    assert decode_graph(text) == build_graph(n, edges)


@st.composite
def larger_graphs(draw, max_n=300):
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


@settings(max_examples=40, deadline=None)
@given(larger_graphs())
def test_round_trip_up_to_300_vertices(g):
    assert decode_graph(encode_graph(g)) == g


def test_small_blocks_give_same_rows(monkeypatch):
    monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", 64)
    rng = random.Random(7)
    for n, p in [(1, 0.0), (2, 1.0), (40, 0.2), (90, 0.5), (70, 1.0)]:
        g = random_graph(rng, n, p)
        assert decode_graph(encode_graph(g)) == g


def _refuse(*args):
    raise AssertionError("the line parser ran")


def test_canonical_file_takes_array_path(monkeypatch):
    rng = random.Random(5)
    g = random_graph(rng, 120, 0.3)
    monkeypatch.setattr(rigclique.io, "build_graph", _refuse)
    assert decode_graph(encode_graph(g)) == g


def test_commented_file_takes_line_parser(monkeypatch):
    calls = []

    def recording(n, edges):
        calls.append(n)
        return build_graph(n, edges)

    monkeypatch.setattr(rigclique.io, "build_graph", recording)
    assert decode_graph("# made by hand\n3 1\n0 2\n") == build_graph(3, [(0, 2)])
    assert calls == [3]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text, edge", [("1000000 1\n0 1\n", (0, 1)),
                                        ("1000000 1\n999999 0\n", (999999, 0))])
def test_sparse_decode_memory_follows_output(text, edge):
    # The rows alone are two n-entry sequences (16 MB); no n x n buffer fits.
    g, peak = _peak_bytes(decode_graph, text)
    assert peak < 64 * 2**20
    assert g == build_graph(1_000_000, [edge])
