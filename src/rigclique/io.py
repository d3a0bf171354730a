"""Plain-text codecs for graphs and label sets.

Graph file: header line "n e", then e lines "u v".
Label file: header line "n m", then n lines "v: i1 i2 ..." with v ascending
from 0; a vertex without labels is written as "v:".

Lines starting with '#' are skipped on input. Writers emit canonical form:
ascending order, single spaces, LF line endings. decode(encode(x)) == x, and
encode(decode(t)) == t for canonical t.

A graph file in exactly the canonical layout (ASCII digits, single spaces,
LF endings, a final newline, no comments) whose pairs are distinct, in
range and free of self-loops is decoded with array operations. Any other
text goes through the line parser, which accepts and rejects exactly what
it always has, with the same messages.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import (Graph, LabelRepresentation, _members, _pack_rows, build_graph,
                    build_labels)

_CANONICAL_HEADER = re.compile(rb"([0-9]{1,18}) ([0-9]{1,18})\n")
_MAX_DIGITS = 18  # np.fromstring saturates longer tokens without a warning


class FormatError(ValueError):
    """Raised for text that does not follow the file format."""


def _content_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"non-numeric {what} {token!r}") from None


def _header(lines: list[str], second_field: str) -> tuple[int, int]:
    if not lines:
        raise FormatError("missing header line")
    toks = lines[0].split()
    if len(toks) != 2:
        raise FormatError(f"malformed header {lines[0]!r}: expected 'n {second_field}'")
    return _int(toks[0], "vertex count"), _int(toks[1], second_field)


def _decode_canonical(text: str) -> Graph | None:
    """The graph of a canonical file with at least one edge, or None as soon
    as any check fails, leaving the text to the line parser.

    The layout is proven on the bytes before any number is parsed: each
    line holds one space between two tokens of 1..18 digits. After parsing,
    the popcounts of the rows sum to 2e only if there is no self-loop and
    no pair repeats in either order. No array is sized by n or sorted; the
    rows that have an arc are packed in blocks as wide as their largest
    neighbour.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    head = _CANONICAL_HEADER.match(data)
    if head is None:
        return None
    n, e = int(head[1]), int(head[2])
    body = np.frombuffer(data, np.uint8)[head.end():]
    if e == 0 or body.size == 0 or body[-1] != ord("\n"):
        return None
    spaces = np.flatnonzero(body == ord(" "))
    ends = np.flatnonzero(body == ord("\n"))
    digits = np.count_nonzero((body >= ord("0")) & (body <= ord("9")))
    if len(spaces) != e or len(ends) != e or digits != body.size - 2 * e:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    if not ((starts < spaces).all() and (spaces < ends - 1).all()
            and (spaces - starts <= _MAX_DIGITS).all()
            and (ends - spaces <= _MAX_DIGITS + 1).all()):
        return None
    pairs = np.fromstring(data[head.end():], np.int64, sep=" ").reshape(e, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    top = int(pairs.max())
    if top >= n:
        return None
    last = np.full(top + 1, -1)  # largest neighbour, -1 if none
    np.maximum.at(last, u, v)
    np.maximum.at(last, v, u)
    has_arc = last >= 0
    active = np.flatnonzero(has_arc)
    rank = np.cumsum(has_arc) - 1  # position of each vertex among active

    def fill(start: int, stop: int, width: int) -> np.ndarray:
        block = np.zeros((stop - start, width), dtype=bool)
        lo, hi = active[start], active[stop - 1]
        for a, b in ((u, v), (v, u)):
            arcs = (a >= lo) & (a <= hi)
            block.reshape(-1)[(rank[a[arcs]] - start) * width + b[arcs]] = True
        return block

    rows = _pack_rows((last[active] + 1).tolist(), fill)
    if sum(map(int.bit_count, rows)) != 2 * e:
        return None  # a self-loop, or a pair repeated in either order
    bits = [0] * n
    for w, row in zip(active.tolist(), rows):
        bits[w] = row
    return Graph(n, tuple(bits))


def decode_graph(text: str) -> Graph:
    """Parse a graph file. Structural validation is left to build_graph, so
    e.g. a self-loop line is reported as a self-loop, not a syntax error.
    Canonical files take the array path of _decode_canonical."""
    g = _decode_canonical(text)
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
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
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
