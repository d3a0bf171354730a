"""Plain-text codecs for graphs and label sets.

Graph file: header line "n e", then e lines "u v".
Label file: header line "n m", then n lines "v: i1 i2 ..." with v ascending
from 0; a vertex without labels is written as "v:".

Lines starting with '#' are skipped on input. Writers emit canonical form:
ascending order, single spaces, LF line endings. decode(encode(x)) == x, and
encode(decode(t)) == t for canonical t.

A graph file in exactly the canonical layout (ASCII digits, single spaces,
LF endings, a final newline, no comments, tokens of at most 18 digits)
whose pairs are distinct, in range and free of self-loops is decoded with
array operations and no text parser: one scan finds the separators, which
prove the layout, and the digits are read one column at a time. Any other
file goes through the line parser, and the array path gives each file the
graph or the error the line parser would. The graph decoder takes the
file's text or its bytes; bytes reach the line parser decoded as
Path.read_text() decodes them. The line parser reads a number as an
optional sign and ASCII digits, nothing else int() would take.
"""

from __future__ import annotations

import io
import re

import numpy as np

from .graph import (Graph, LabelRepresentation, _block_height, _members, _pack_rows,
                    build_graph, build_labels)

_CANONICAL_HEADER = re.compile(rb"([0-9]{1,18}) ([0-9]{1,18})\n")
_MAX_DIGITS = 18  # int64 holds every number of this many digits exactly
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")  # int() alone also reads '_' and non-ASCII digits


class FormatError(ValueError):
    """Raised for text that does not follow the file format."""


def _content_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]


def _int(token: str, what: str) -> int:
    if _INT_TOKEN.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(f"non-numeric {what} {token!r}")


def _header(lines: list[str], second_field: str) -> tuple[int, int]:
    if not lines:
        raise FormatError("missing header line")
    toks = lines[0].split()
    if len(toks) != 2:
        raise FormatError(f"malformed header {lines[0]!r}: expected 'n {second_field}'")
    return _int(toks[0], "vertex count"), _int(toks[1], second_field)


def _decode_canonical(data: bytes) -> Graph | None:
    """The graph of a canonical file with at least one edge, or None as soon
    as any check fails, leaving the file to the line parser.

    The layout is proven on the separators alone, the bytes below '0', in
    a body with no byte above '9': there are 2e of them, they alternate
    space and newline, and the gaps between them, 1..18 digits each, add
    up to every other byte, so the last is the final byte and each line
    holds two tokens. The tokens are then read by digit columns from the
    right: the separator positions step left in place, and each column
    adds its digits times a power of ten to every token long enough to
    have one. The columns are summed in int32 when no token has more than
    9 digits, else in int64, and the endpoints are then held in int64, the
    width numpy indexes with on 64-bit hosts, so no later index is cast.
    In the int32 case three 2e-entry buffers are allocated: the separator
    positions, the int32 sums, and the int64 endpoints, whose two int32
    halves hold the token lengths and the current column until the
    endpoints are written.

    The popcounts of the rows sum to 2e only if there is no self-loop and
    no pair repeats in either order. No array is sized by n or sorted; the
    rows that have an arc are packed in blocks as wide as the largest
    endpoint plus one, rounded up to whole bytes, as many rows to a block
    as _BLOCK_CELLS allows. Each arc's cell among those rows is computed
    once, and each block sets the cells in its own row range.
    """
    head = _CANONICAL_HEADER.match(data)
    if head is None:
        return None
    n, e = int(head[1]), int(head[2])
    body = np.frombuffer(data, np.uint8)[head.end():]
    if e == 0 or body.size == 0 or body.max() > ord("9"):
        return None
    seps = np.flatnonzero(body < ord("0"))
    if len(seps) != 2 * e:
        return None
    kinds = body.take(seps)
    if (kinds.view("<u2") != ord(" ") | ord("\n") << 8).any():  # each pair is " \n"
        return None
    endpoints = np.empty(2 * e, np.int64)  # first the lengths and column
    lengths = endpoints.view(np.int32)[:2 * e]  # digits per token
    lengths[0] = seps[0] + 1
    np.subtract(seps[1:], seps[:-1], out=lengths[1:], casting="unsafe")
    lengths -= 1
    longest = int(lengths.max())
    # the tokens hold every byte but the separators only if the last
    # separator is the final byte and no int32 difference wrapped
    if (lengths.min() < 1 or longest > _MAX_DIGITS
            or int(lengths.sum(dtype=np.int64)) != body.size - 2 * e):
        return None
    narrow = longest <= 9  # every token fits in int32
    if narrow:
        values, column = np.empty(2 * e, np.int32), endpoints.view(np.int32)[2 * e:]
    else:
        values, column = np.empty(2 * e, np.int64), np.empty(2 * e, np.int64)
    digits = kinds  # reused: each token's byte in the current column
    for k in range(longest):
        seps -= 1  # the k-th digit from the right, where the token has one
        body.take(seps, out=digits, mode="clip")
        if k == 0:
            np.subtract(digits, ord("0"), out=values, casting="unsafe")
            continue
        np.subtract(digits, ord("0"), out=column, casting="unsafe")
        column *= lengths > k
        column *= 10**k
        values += column
    del lengths, column
    if narrow:
        np.copyto(endpoints, values)
        values = endpoints
    top = int(values.max())
    if top >= n:
        return None
    has_arc = np.zeros(top + 1, dtype=bool)
    has_arc[values] = True
    active = np.flatnonzero(has_arc)
    rank = np.cumsum(has_arc) - 1  # position of each vertex among active
    width = (top + 8) // 8 * 8  # whole bytes, so _pack_rows pads nothing
    cells = seps.reshape(e, 2)  # reused: the flat cell of arc u->v and of v->u
    rank.take(values, out=seps, mode="clip")  # "raise" would fill a copy of seps
    cells *= width
    cells[:, 0] += values[1::2]
    cells[:, 1] += values[::2]
    height = _block_height(width)
    rows: list[int] = []
    for start in range(0, len(active), height):
        block = np.zeros((min(height, len(active) - start), width), dtype=bool)
        if len(block) == len(active):  # every arc lands in this block
            block.reshape(-1)[seps] = True
        else:
            lo = start * width
            mine = seps[(seps >= lo) & (seps < lo + block.size)]
            block.reshape(-1)[mine - lo] = True
        rows.extend(_pack_rows(block))
    if sum(map(int.bit_count, rows)) != 2 * e:
        return None  # a self-loop, or a pair repeated in either order
    bits = [0] * n
    for w, row in zip(active.tolist(), rows):
        bits[w] = row
    return Graph(tuple(bits))


def decode_graph(data: str | bytes) -> Graph:
    """Parse a graph file, given as its text or as its bytes; the graph
    commands pass the bytes. Structural validation is left to build_graph,
    so e.g. a self-loop line is reported as a self-loop, not a syntax error.
    Canonical files take the array path of _decode_canonical. Any other
    bytes are decoded to text as Path.read_text() decodes a file (the
    locale's encoding, universal newlines), and that text is decoded, so a
    canonical file with CRLF endings still takes the array path."""
    if isinstance(data, bytes):
        g = _decode_canonical(data)
        if g is not None:
            return g
        return decode_graph(io.TextIOWrapper(io.BytesIO(data),
                                             encoding=io.text_encoding(None)).read())
    text = data
    # a non-ASCII character becomes '?', which the canonical check refuses
    g = _decode_canonical(text.encode("ascii", "replace"))
    if g is not None:
        return g
    lines = _content_lines(text)
    n, e = _header(lines, "edge count")
    if len(lines) - 1 != e:
        raise FormatError(f"expected {e} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise FormatError(f"malformed edge line {ln!r}: expected 'u v'")
        edges.append((_int(toks[0], "endpoint"), _int(toks[1], "endpoint")))
    return build_graph(n, edges)


def encode_graph(g: Graph) -> str:
    edges = g.edges
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def decode_labels(text: str) -> LabelRepresentation:
    """Parse a label file. Vertex lines must appear in ascending order with
    no gaps; label ids must lie in 0..m-1."""
    lines = _content_lines(text)
    n, m = _header(lines, "label count")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} vertex lines, found {len(lines) - 1}")
    label_sets = []
    for v, ln in enumerate(lines[1:]):
        toks = ln.split()
        if not toks or toks[0] != f"{v}:":
            raise FormatError(f"vertex line {ln!r}: expected prefix '{v}:'")
        labels = [_int(t, "label id") for t in toks[1:]]
        for i in labels:
            if not (0 <= i < m):
                raise FormatError(f"label {i} out of range for m={m} (vertex {v})")
        label_sets.append(labels)
    return build_labels(n, m, label_sets)


def encode_labels(rep: LabelRepresentation) -> str:
    """Label file text; each vertex's line lists its labels ascending."""
    tails = [""] * rep.n
    for i, mask in enumerate(rep.masks):
        for v in _members(mask):
            tails[v] += f" {i}"
    lines = [f"{rep.n} {rep.m}"] + [f"{v}:{tail}" for v, tail in enumerate(tails)]
    return "\n".join(lines) + "\n"
