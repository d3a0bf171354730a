"""Core graph and label-representation types.

Vertices are 0-indexed everywhere. Graphs are simple, undirected, and
immutable once built. Adjacency is kept once, as one bitmask per vertex;
the sorted edge list is derived from those rows on first use.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graph or label-set input."""


def _members(mask: int) -> list[int]:
    """Set bits of mask, ascending."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Simple undirected graph on vertices 0..n-1. Build via build_graph()
    or induced_graph()."""

    __slots__ = ("n", "bits", "_edges")

    def __init__(self, n: int, bits: tuple[int, ...]):
        self.n = n
        self.bits = bits  # bitmask per vertex, bit u set iff {v, u} is an edge
        self._edges: tuple[tuple[int, int], ...] | None = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (u, v) pairs with u < v, derived once from bits."""
        if self._edges is None:
            self._edges = tuple((u, u + 1 + j) for u, row in enumerate(self.bits)
                                for j in _members(row >> (u + 1)))  # bits above u
        return self._edges

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.bits[u] >> v) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        edges = sum(map(int.bit_count, self.bits)) // 2  # leaves the edge list underived
        return f"Graph(n={self.n}, edges={edges})"


_BLOCK_CELLS = 1 << 24  # cells in one transient block: 16 MB of booleans


def _pack_rows(widths: Sequence[int],
               fill: Callable[[int, int, int], np.ndarray]) -> list[int]:
    """Bitmask rows built from boolean blocks, column j of a block as bit j.

    Row i needs widths[i] >= 1 cells. Consecutive rows share a block while
    rows times the widest of them stays within _BLOCK_CELLS (a wider row
    gets a block of its own), so the transient cost follows the rows, not
    the vertex count. fill(start, stop, width) returns rows start..stop-1
    as a boolean array of stop - start rows and 1..width columns. Each
    block is padded to whole bytes per row and packed as one flat array,
    which numpy does far faster than packing along axis 1.
    """
    rows: list[int] = []
    start = 0
    while start < len(widths):
        stop, width = start + 1, widths[start]
        while stop < len(widths) and (stop + 1 - start) * max(width, widths[stop]) <= _BLOCK_CELLS:
            width = max(width, widths[stop])
            stop += 1
        cells = fill(start, stop, width)
        step = (cells.shape[1] + 7) // 8
        if cells.shape[1] != 8 * step:
            padded = np.zeros((stop - start, 8 * step), cells.dtype)
            padded[:, :cells.shape[1]] = cells
            cells = padded
        data = np.packbits(cells.ravel(), bitorder="little").tobytes()
        rows.extend(int.from_bytes(data[i:i + step], "little")
                    for i in range(0, len(data), step))
        start = stop
    return rows


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
    return Graph(n, tuple(bits))


class LabelRepresentation:
    """Label member sets L_0..L_{m-1} on vertices 0..n-1, one bitmask per
    label. Build via build_labels() or sample_label_representation()."""

    __slots__ = ("n", "m", "masks")

    def __init__(self, n: int, m: int, masks: tuple[int, ...]):
        self.n = n
        self.m = m
        self.masks = masks  # bitmask per label, bit v set iff vertex v holds label i

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelRepresentation):
            return NotImplemented
        return (self.n, self.m, self.masks) == (other.n, other.m, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.masks))

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
    return LabelRepresentation(n, m, tuple(masks))


def induced_graph(rep: LabelRepresentation) -> Graph:
    """Graph with an edge wherever two vertices share at least one label.

    Each L_i contributes a clique: its mask is ORed into the row of every
    member, and each row then drops its own vertex.
    """
    bits = [0] * rep.n
    for mask in rep.masks:
        for v in _members(mask):
            bits[v] |= mask
    return Graph(rep.n, tuple(row & ~(1 << v) for v, row in enumerate(bits)))


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the given vertices are pairwise adjacent (size <= 1 counts)."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    mask = 0
    for v in vs:
        mask |= 1 << v
    for v in vs:
        if (g.bits[v] & mask).bit_count() != len(vs) - 1:
            return False
    return True


def _mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search visit order, deterministic.

    Each step visits an unvisited vertex adjacent to the most visited ones,
    smallest id on ties. buckets[k] masks the unvisited vertices adjacent to
    exactly k visited ones; top never falls below the highest such k.
    """
    n = g.n
    weight = [0] * n
    buckets = [(1 << n) - 1] + [0] * n
    unvisited = (1 << n) - 1
    top = 0
    out: list[int] = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        out.append(v)
        for w in _members(g.bits[v] & unvisited):
            k = weight[w]
            weight[w] = k + 1
            buckets[k] ^= 1 << w
            buckets[k + 1] |= 1 << w
        top += 1
    return tuple(out)


def _is_elimination_order(g: Graph, elim: tuple[int, ...]) -> bool:
    """Check elim is perfect: the vertices adjacent to and after each vertex
    form a clique.

    Uses the parent shortcut: it suffices that all of them but the first are
    adjacent to that first one.
    """
    pos = [0] * g.n
    for i, v in enumerate(elim):
        pos[v] = i
    remaining = (1 << g.n) - 1
    for v in elim:
        remaining ^= 1 << v
        later = g.bits[v] & remaining
        if later & (later - 1) == 0:
            continue  # at most one later neighbor
        parent = min(_members(later), key=pos.__getitem__)
        if later & ~(g.bits[parent] | 1 << parent):
            return False
    return True


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality test via maximum cardinality search (Tarjan and
    Yannakakis 1984).

    Returns (True, order) where order is a perfect elimination ordering
    (order[0] is simplicial, and each vertex is simplicial among the vertices
    after it), or (False, None). The reversed MCS visit order is perfect
    exactly when g is chordal; the verification step checks the candidate
    ordering directly instead of trusting the search.
    """
    elim = tuple(reversed(_mcs_order(g)))
    if _is_elimination_order(g, elim):
        return True, elim
    return False, None
