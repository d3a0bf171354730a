"""Graph file decoding: the exact error contract, the array path for
canonical files, and its memory bound."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigclique.graph
import rigclique.io
from rigclique import (FormatError, GraphError, build_graph, decode_graph, decode_labels,
                       encode_graph, induced_graph, resolve_params, sample_label_representation)

from helpers import random_graph

# Each text with the exception and the full message the line parser gives.
MALFORMED = [
    ("blank edge line", "3 2\n0 1\n\n",
     FormatError, "malformed edge line '': expected 'u v'"),
    ("blank line among edges", "3 2\n0 1\n\n1 2\n",
     FormatError, "expected 2 edge lines, found 3"),
    # separators in the canonical places, but an empty token and a byte
    # above '9', each of which would read as an endpoint in range
    ("empty token", "300 2\n0 1\n 2\n",
     FormatError, "malformed edge line ' 2': expected 'u v'"),
    ("colon for a digit", "20 1\n0 :\n", FormatError, "non-numeric endpoint ':'"),
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
    # the widest int32 token, the narrowest int64 one and the widest one read
    *[(f"{d} nines", f"3 2\n0 1\n2 {'9' * d}\n",
       GraphError, f"endpoint out of range (2, {'9' * d}) for n=3") for d in (9, 10, 18)],
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
    # a number is an optional sign and ASCII digits, not any int() literal
    ("underscore in header", "3_0 1\n0 1\n", FormatError, "non-numeric vertex count '3_0'"),
    ("underscore in endpoint", "3 1\n0 0_2\n", FormatError, "non-numeric endpoint '0_2'"),
    ("arabic-indic digit", "3 1\n0 \u0662\n", FormatError, "non-numeric endpoint '\u0662'"),
    ("fullwidth digit", "\uff13 1\n0 1\n", FormatError, "non-numeric vertex count '\uff13'"),
    ("sign alone", "3 1\n0 +\n", FormatError, "non-numeric endpoint '+'"),
]

# The same for label files.
MALFORMED_LABELS = [
    ("underscore in header", "2 1_0\n0:\n1:\n", "non-numeric label count '1_0'"),
    ("underscore in label id", "2 2\n0: 0_1\n1:\n", "non-numeric label id '0_1'"),
    ("arabic-indic digit", "2 2\n0: \u0661\n1:\n", "non-numeric label id '\u0661'"),
    ("fullwidth digit", "\uff12 2\n0:\n1:\n", "non-numeric vertex count '\uff12'"),
]

# Each text the line parser accepts, with the graph it means.
ACCEPTED = [
    ("crlf", "3 2\r\n0 1\r\n1 2\r\n", 3, [(0, 1), (1, 2)]),
    ("comment line in body", "3 2\n0 1\n# note\n1 2\n", 3, [(0, 1), (1, 2)]),
    ("plus sign", "3 1\n+1 2\n", 3, [(1, 2)]),
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


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED_LABELS],
                         ids=[case[0] for case in MALFORMED_LABELS])
def test_malformed_label_file_exact_error(text, message):
    with pytest.raises(FormatError) as info:
        decode_labels(text)
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


# column counts of one block each: a block wider than 64 cells sits
# between narrow ones, and blocks of 0 columns and around one byte
PACK_WIDTHS = [[1], [5, 3, 8], [3, 5, 200, 2, 7, 64, 65, 1], [9] * 20, [0, 7, 8, 9]]


@pytest.mark.parametrize("widths", PACK_WIDTHS)
def test_pack_rows_same_rows_at_any_block_size(widths):
    rng = random.Random(len(widths))
    for rows, columns in [(0, max(widths))] + [(rng.randint(1, 5), w) for w in widths]:
        want = [rng.getrandbits(columns) for _ in range(rows)]
        if rows and columns:
            want[0] |= 1 << (columns - 1)  # the highest column is set
        cells = np.array([[(row >> j) & 1 for j in range(columns)] for row in want],
                         dtype=bool).reshape(rows, columns)
        assert rigclique.graph._pack_rows(cells) == want


def _refuse(*args):
    raise AssertionError("the line parser ran")


def test_ladder_file_same_graph_at_any_block_size(monkeypatch):
    # G(250, 10, 0.2), the size of the files the benchmark's solve calls read
    rep = sample_label_representation(resolve_params(n=250, m=10, p=0.2), seed=1, trial=0)
    g = induced_graph(rep)
    text = encode_graph(g)
    monkeypatch.setattr(rigclique.io, "build_graph", _refuse)
    for cells in (64, 1 << 40):
        monkeypatch.setattr(rigclique.graph, "_BLOCK_CELLS", cells)
        assert decode_graph(text) == g


def test_canonical_file_takes_array_path(monkeypatch):
    rng = random.Random(5)
    g = random_graph(rng, 120, 0.3)
    monkeypatch.setattr(rigclique.io, "build_graph", _refuse)
    assert decode_graph(encode_graph(g)) == g


# tokens of 9, 10 and 18 digits at n=3: int32 columns, int64 columns, and
# the longest token the array path reads
WIDE_TOKENS = [("000000000", "000000002"), ("0000000000", "0000000002"),
               ("0" * 18, "0" * 17 + "2"), ("2", "0" * 18)]


@pytest.mark.parametrize("u, v", WIDE_TOKENS, ids=["9-digit", "10-digit", "18-digit", "1-and-18"])
def test_wide_tokens_take_array_path(monkeypatch, u, v):
    monkeypatch.setattr(rigclique.io, "build_graph", _refuse)
    assert decode_graph(f"3 2\n{u} 1\n1 {v}\n") == build_graph(3, [(0, 1), (1, 2)])


def test_nineteen_digit_token_takes_line_parser(monkeypatch):
    calls = []

    def recording(n, edges):
        calls.append(edges)
        return build_graph(n, edges)

    monkeypatch.setattr(rigclique.io, "build_graph", recording)
    assert decode_graph(f"3 1\n{'0' * 19} 2\n") == build_graph(3, [(0, 2)])
    assert calls == [[(0, 2)]]


# digits, the two separators, whitespace and signs the line parser allows,
# a comment mark and a digit int() reads but both paths refuse
EDIT_ALPHABET = "0123456789 \n\t\r#+-\u0662"


@st.composite
def edited_graph_files(draw):
    """A canonical file with one to three characters inserted, replaced or
    deleted."""
    k = draw(st.integers(min_value=0, max_value=25))
    p = draw(st.sampled_from([0.1, 0.3, 0.7]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), k, p)
    # with 300 isolated vertices more, a separator misread as a digit
    # (218 or 240) would be an endpoint in range
    n = k + draw(st.sampled_from([0, 300]))
    text = encode_graph(build_graph(n, g.edges))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        char = "" if edit == "delete" else draw(st.sampled_from(EDIT_ALPHABET))
        text = text[:at] + char + text[at + (edit != "insert"):]
    return text


def _outcome(text):
    try:
        return decode_graph(text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(edited_graph_files())
def test_array_path_changes_no_answer_or_error(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigclique.io, "_decode_canonical", lambda data: None)
        expected = _outcome(text)
    assert _outcome(text) == expected
    # the file's bytes, as the graph commands pass them, decode alike
    assert _outcome(text.encode()) == expected


def test_crlf_bytes_take_array_path(monkeypatch):
    # decoded to text with universal newlines, as Path.read_text() reads them
    g = random_graph(random.Random(6), 60, 0.3)
    monkeypatch.setattr(rigclique.io, "build_graph", _refuse)
    assert decode_graph(encode_graph(g).replace("\n", "\r\n").encode()) == g


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
