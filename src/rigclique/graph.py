"""Core graph and label-representation types.

Vertices are 0-indexed everywhere. Graphs are simple, undirected, and
immutable once built. Adjacency is kept once, as one bitmask per vertex;
the sorted edge list is derived from those rows on each use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graph or label-set input."""


def _members(mask: int) -> list[int]:
    """Set bits of mask, a nonnegative int, ascending, as a list of ints.

    A mask with more than _DENSE_MEMBERS set bits is unpacked to bytes and
    its set bits are found by numpy in one pass; a sparser one is walked a
    low bit at a time, which costs less below that count. Both paths give
    the same list.
    """
    if mask.bit_count() > _DENSE_MEMBERS:
        data = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
        return np.flatnonzero(np.unpackbits(data, bitorder="little")).tolist()
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1. Build via build_graph()
    or induced_graph()."""

    bits: tuple[int, ...]  # bitmask per vertex, bit u set iff {v, u} is an edge

    @property
    def n(self) -> int:
        """Vertex count: one row per vertex."""
        return len(self.bits)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (u, v) pairs with u < v, derived from bits on each call."""
        return tuple((u, u + 1 + j) for u, row in enumerate(self.bits)
                     for j in _members(row >> (u + 1)))  # bits above u

    def __repr__(self) -> str:
        edges = sum(map(int.bit_count, self.bits)) // 2  # without deriving the edge list
        return f"Graph(n={self.n}, edges={edges})"


_BLOCK_CELLS = 1 << 24  # cells in one transient block: 16 MB of booleans
_DENSE_MEMBERS = 24  # above this many set bits, _members unpacks with numpy


def _block_height(width: int) -> int:
    """Rows per transient block of the given width: as many as fit in
    _BLOCK_CELLS cells, at least one."""
    return max(_BLOCK_CELLS // width, 1)


def _pack_rows(cells: np.ndarray) -> list[int]:
    """Bitmask rows of a boolean block, column j as bit j.

    Each row is padded to whole bytes, at least one, and the block is
    packed as one flat array, which numpy does far faster than packing
    along axis 1.
    """
    step = max((cells.shape[1] + 7) // 8, 1)
    if cells.shape[1] != 8 * step:
        padded = np.zeros((len(cells), 8 * step), cells.dtype)
        padded[:, :cells.shape[1]] = cells
        cells = padded
    data = np.packbits(cells.ravel(), bitorder="little").tobytes()
    return [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]


def _unpack_rows(rows: Sequence[int], width: int) -> np.ndarray:
    """Bitmask rows, each below 2**width, as a boolean block: one row per
    mask, bit j in column j, width rounded up to whole bytes."""
    nbytes = (width + 7) // 8
    data = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    return np.unpackbits(np.frombuffer(data, np.uint8).reshape(len(rows), nbytes),
                         axis=1, bitorder="little")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validated constructor.

    Accepts endpoint pairs in either order. Rejects self-loops, endpoints
    outside 0..n-1, and duplicate edges, naming the offending pair.
    """
    if n < 0:
        raise GraphError(f"vertex count must be >= 0, got {n}")
    bits = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"endpoint out of range ({u}, {v}) for n={n}")
        if (bits[u] >> v) & 1:
            raise GraphError(f"duplicate edge ({u}, {v})")
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return Graph(tuple(bits))


@dataclass(frozen=True, slots=True, repr=False)
class LabelRepresentation:
    """Label member sets L_0..L_{m-1} on vertices 0..n-1, one bitmask per
    label. Build via build_labels() or sample_label_representation()."""

    n: int
    masks: tuple[int, ...]  # bitmask per label, bit v set iff vertex v holds label i

    @property
    def m(self) -> int:
        """Label count: one mask per label."""
        return len(self.masks)

    def __repr__(self) -> str:
        return f"LabelRepresentation(n={self.n}, m={self.m})"


def build_labels(n: int, m: int, label_sets: Iterable[Iterable[int]]) -> LabelRepresentation:
    """Validated constructor from per-vertex label sets S_0..S_{n-1}.

    Rejects negative counts, a number of sets other than n, and label ids
    outside 0..m-1, naming the offending vertex. Repeated ids are harmless.
    """
    if n < 0 or m < 0:
        raise GraphError(f"counts must be >= 0, got n={n}, m={m}")
    sets = list(label_sets)
    if len(sets) != n:
        raise GraphError(f"expected {n} label sets, got {len(sets)}")
    masks = [0] * m
    for v, s in enumerate(sets):
        for i in s:
            if not (0 <= i < m):
                raise GraphError(f"label {i} out of range for m={m} (vertex {v})")
            masks[i] |= 1 << v
    return LabelRepresentation(n, tuple(masks))


def induced_graph(rep: LabelRepresentation) -> Graph:
    """Graph with an edge wherever two vertices share at least one label.

    Each L_i contributes a clique: its mask is ORed into the row of every
    member, and each labelled vertex's row then drops its own bit. Only
    the labelled vertices, the members of the union of the masks, are
    visited; an unlabelled vertex keeps its empty row. The members of a
    mask come from _members, whose dense and sparse paths give the same
    list, so the rows do not depend on which path ran.
    """
    bits = [0] * rep.n
    labelled = 0
    for mask in rep.masks:
        labelled |= mask
        for v in _members(mask):
            bits[v] |= mask
    for v in _members(labelled):
        bits[v] ^= 1 << v
    return Graph(tuple(bits))


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the given vertices are pairwise adjacent (size <= 1 counts)."""
    vs = sorted(set(vertices))
    n = g.n
    for v in vs:
        if not (0 <= v < n):
            raise GraphError(f"vertex {v} out of range for n={n}")
    mask = _mask(vs, n)
    for v in vs:
        if (g.bits[v] & mask).bit_count() != len(vs) - 1:
            return False
    return True


def _mask(vertices: Iterable[int], n: int) -> int:
    """Bitmask of the given vertices of 0..n-1, set byte by byte, so the
    cost is linear in n and in the number of vertices."""
    packed = bytearray(n // 8 + 1)
    for v in vertices:
        packed[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(packed, "little")


def _subgraph_rows(g: Graph, vertices: Sequence[int]) -> list[int]:
    """Rows of g restricted to vertices, distinct vertex ids in any order,
    and renumbered in that order: bit j of row i is set iff vertices[i] and
    vertices[j] are adjacent. The quotient search passes its class
    representatives in degree order, reconstruct in ascending order.

    Only the nonzero rows are unpacked, in blocks, to the widest one's
    bit_length() plus one column, not to n; a kept vertex at or beyond
    that reads the last column, which is zero. Each block's kept columns
    are taken and packed again.
    """
    rows = [g.bits[v] for v in vertices]
    nonzero = [i for i, row in enumerate(rows) if row]
    top = max((rows[i].bit_length() for i in nonzero), default=0)
    keep = np.minimum(np.array(vertices, dtype=np.intp), top)
    height = _block_height(max(top + 1, len(keep)))
    out = [0] * len(rows)
    for start in range(0, len(nonzero), height):
        block = nonzero[start:start + height]
        cells = _unpack_rows([rows[i] for i in block], top + 1).take(keep, axis=1)
        for i, row in zip(block, _pack_rows(cells)):
            out[i] = row
    return out


def _perfect_mcs_order(rows: Sequence[int], within: int) -> list[int] | None:
    """Maximum cardinality search visit order over the vertices in the mask
    within, which must hold every neighbour of each of its vertices, with
    rows[v] the bitmask row of vertex v; or None when its reverse is not a
    perfect elimination ordering.

    Each step visits an unvisited vertex adjacent to the most visited ones,
    smallest id on ties. buckets[k] masks the unvisited vertices adjacent to
    exactly k visited ones; top never falls below the highest such k.

    The reverse is perfect when the neighbours of each vertex visited before
    it form a clique. It suffices that all of them are adjacent to the one
    visited last, parent[v] (Tarjan and Yannakakis' follower), so each
    vertex is checked as it is visited and the search stops at the first
    that fails.
    """
    steps = within.bit_count()
    weight = [0] * len(rows)
    parent = [0] * len(rows)  # the neighbour visited last so far
    buckets = [within] + [0] * steps
    unvisited = within
    top = 0
    out: list[int] = []
    for _ in range(steps):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        if top > 1:  # v has two or more visited neighbours
            p = parent[v]
            if rows[v] & ~unvisited & ~(rows[p] | 1 << p):
                return None
        out.append(v)
        rest = rows[v] & unvisited
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            k = weight[w]
            weight[w] = k + 1
            parent[w] = v
            buckets[k] ^= bit
            buckets[k + 1] |= bit
        top += 1
    return out


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality test via maximum cardinality search (Tarjan and
    Yannakakis 1984).

    Returns (True, order) where order is a perfect elimination ordering
    (order[0] is simplicial, and each vertex is simplicial among the vertices
    after it), or (False, None). The reversed MCS visit order is perfect
    exactly when g is chordal; the search checks that ordering directly as
    it goes instead of trusting it.

    Isolated vertices neither change the answer nor constrain the ordering,
    so the search and the check run on g's own rows over the mask of the
    other vertices only. The isolated vertices are then spliced into the
    visit order where MCS over all of g visits them: each just before the
    first component start above it, or at the end, a component start being
    a vertex that no earlier-visited vertex sees. Whenever no visited vertex
    sees an unvisited one, MCS takes the smallest unvisited vertex, so the
    order is the whole-graph one.
    """
    visit = _perfect_mcs_order(g.bits, _mask((v for v, row in enumerate(g.bits) if row), g.n))
    if visit is None:
        return False, None
    isolated = [v for v, row in enumerate(g.bits) if not row]
    order: list[int] = []
    j = 0
    seen = 0
    for v in visit:
        if not g.bits[v] & seen:  # a component start
            k = bisect_left(isolated, v, j)
            order.extend(isolated[j:k])
            j = k
        order.append(v)
        seen |= 1 << v
    order.extend(isolated[j:])
    return True, tuple(reversed(order))
