"""Loop-free digraphs on up to 64 labelled vertices, stored as bit rows.

Vertices are dense integer labels 0..n-1.  Row ``u`` is a plain int whose
bit ``v`` is set exactly when the arc (u, v) is present, so a whole
out-neighbourhood fits in one machine word at the capacity limit.  A
Digraph is a NamedTuple (n, rows): immutable and hashable, it sorts as that
tuple, and rows given as a list are stored as a tuple.  Every structural
operation returns a fresh value.

The per-row work of the core runs in C-level bulk calls, not in Python
loops over the rows.  A Digraph validates all rows at once: row u ANDed
with ``-(1 << n) | 1 << u`` is non-zero exactly when the row is negative,
addresses a vertex >= n or holds the loop (u, u).  The packed bit matrix
that digon_count and in_rows transpose is converted to and from the row
tuple in bulk: one byte per row at n <= 8, else one fixed-width ``array``
item per row, at a stride of 16, 32 or 64 bits (_pack_rows, _unpack_rows).
spliced_digon_counts masks two such packed matrices and their transposes
to count the digons of each row splice of two digraphs without building it.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 64

# _FORBIDDEN[n][u]: the bits row u of an n-vertex Digraph must not have, namely
# bits >= n (so also the sign of a negative row) and the loop bit u.
_FORBIDDEN = tuple(tuple(-(1 << n) | 1 << u for u in range(n)) for n in range(MAX_VERTICES + 1))


def _iter_bits(word: int) -> Iterator[int]:
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _closure(rows: Sequence[int], start: int, within: int) -> int:
    """Vertices of ``within`` that ``start`` reaches along ``rows`` inside ``within``, and ``start``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        grown = 0
        for u in _iter_bits(frontier):
            grown |= rows[u]
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


class _DigraphFields(NamedTuple):
    n: int
    rows: tuple[int, ...]


class Digraph(_DigraphFields):
    """Immutable digraph; instances compare and sort by (n, rows)."""

    __slots__ = ()

    def __new__(cls, n: int, rows: Sequence[int]) -> Digraph:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if not isinstance(rows, tuple):
            rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        if any(map(operator.and_, rows, _FORBIDDEN[n])):
            for u, row in enumerate(rows):
                if row >> n:
                    raise ValueError(f"row {u} addresses vertices >= n={n}")
                if row >> u & 1:
                    raise ValueError(f"loop arc ({u}, {u}) is not allowed")
        return tuple.__new__(cls, (n, rows))

    @classmethod
    def _make(cls, fields: Iterable) -> Digraph:
        # _replace builds through _make; validate there too.
        return cls(*fields)

    @property
    def e(self) -> int:
        """Number of arcs."""
        return sum(map(int.bit_count, self.rows))

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def out_degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def in_degree(self, v: int) -> int:
        return sum(row >> v & 1 for row in self.rows)

    def out_neighbors(self, u: int) -> Iterator[int]:
        return _iter_bits(self.rows[u])

    def in_neighbors(self, v: int) -> Iterator[int]:
        return (u for u in range(self.n) if self.rows[u] >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs in lexicographic (tail, head) order."""
        for u in range(self.n):
            for v in _iter_bits(self.rows[u]):
                yield (u, v)


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a digraph from an arc list.  Duplicate arcs are idempotent.

    Raises ValueError for loops (u, u), out-of-range endpoints, and vertex
    counts outside 1..64.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    rows = [0] * n
    for u, v in arcs:
        if u == v:
            raise ValueError(f"loop arc ({u}, {u}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


# Array typecode per item size in bytes, for rows wider than one byte.
_TYPECODES = {array(code).itemsize: code for code in "HILQ"}
if not {2, 4, 8} <= _TYPECODES.keys():
    raise ImportError(f"array lacks a typecode of 2, 4 or 8 bytes: {_TYPECODES}")
_BIG_ENDIAN = sys.byteorder == "big"


def _pack_rows(rows: Sequence[int], stride: int) -> int:
    """One int holding row u at bits [u * stride, (u + 1) * stride); stride is 8, 16, 32 or 64.

    The rows become one byte each (stride 8) or fixed-width unsigned array
    items, whose bytes are read as one little-endian int; a big-endian host
    swaps each item's bytes first.
    """
    if stride == 8:
        return int.from_bytes(bytes(rows), "little")
    items = array(_TYPECODES[stride // 8], rows)
    if _BIG_ENDIAN:
        items.byteswap()
    return int.from_bytes(items, "little")


def _unpack_rows(packed: int, stride: int, count: int) -> tuple[int, ...]:
    """The first ``count`` stride-bit rows of ``packed``: the inverse of _pack_rows."""
    data = packed.to_bytes(count * stride // 8, "little")
    if stride == 8:
        return tuple(data)
    items = array(_TYPECODES[stride // 8], data)
    if _BIG_ENDIAN:
        items.byteswap()
    return tuple(items)


@lru_cache(maxsize=None)
def _transpose_layout(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(stride, rounds) of the packed transpose of an n x n bit matrix.

    The matrix is taken as size x size, size the next power of two >= n,
    with rows at a stride of max(8, size) bits so that a row is whole bytes
    for _pack_rows.  Round j of the log2(size) block-swap rounds exchanges
    bit j of the row and column indices: its mask marks cells (u, v) with
    u & j == 0 and v & j != 0, whose partners (u + j, v - j) sit
    j * (stride - 1) bits higher (Warren, Hacker's Delight, section 7-3).
    One entry per vertex count, so at most MAX_VERTICES entries.
    """
    size = 1 << (n - 1).bit_length()
    stride = max(8, size)
    rounds = []
    j = 1
    while j < size:
        cols = sum(1 << v for v in range(size) if v & j)
        mask = sum(cols << (u * stride) for u in range(size) if not u & j)
        rounds.append((j * (stride - 1), mask))
        j <<= 1
    return stride, tuple(rounds)


def _packed_transpose(g: Digraph) -> tuple[int, int, int]:
    """(stride, A, A^T): the rows packed at ``stride`` bits apart, and their transpose.

    Packing and unpacking go through bytes or fixed-width ``array`` items
    in little-endian byte order (_pack_rows, _unpack_rows).  The transpose
    is log2(size) masked block swaps of the packed int, size the next power
    of two >= n (_transpose_layout).  Bits at columns >= n, and rows >= n
    of A^T, are zero.
    """
    stride, rounds = _transpose_layout(g.n)
    packed = _pack_rows(g.rows, stride)
    transposed = packed
    for shift, mask in rounds:
        swap = (transposed ^ (transposed >> shift)) & mask
        transposed ^= swap ^ (swap << shift)
    return stride, packed, transposed


@lru_cache(maxsize=None)
def _column_unit(n: int) -> int:
    """Bit 0 of each of rows 0..n-1 at _transpose_layout(n)'s stride.

    Times a column mask m < 2**stride, it is m in each of those rows.  One
    entry per vertex count, so at most MAX_VERTICES entries.
    """
    stride, _ = _transpose_layout(n)
    return sum(1 << (u * stride) for u in range(n))


def spliced_digon_counts(head: Digraph, tail: Digraph, cuts: Iterable[int]) -> list[int]:
    """digon_count(Digraph(n, head.rows[:c] + tail.rows[c:])) for each cut c, none of them built.

    The splice's packed matrix is head's in the rows below c and tail's
    from row c on.  The transpose of a row splice is the column splice of
    the transposes, so the splice's transpose is head's in the columns
    below c and tail's from column c on.  Each cut costs a few whole-int
    masks and one popcount; the two ends are transposed once.
    """
    if head.n != tail.n:
        raise ValueError(f"cannot splice n={head.n} rows with n={tail.n} rows")
    stride, head_rows, head_cols = _packed_transpose(head)
    _, tail_rows, tail_cols = _packed_transpose(tail)
    unit = _column_unit(head.n)
    # A splice is tail ^ ((head ^ tail) & mask): head's bits inside the mask, tail's outside.
    diff_rows = head_rows ^ tail_rows
    diff_cols = head_cols ^ tail_cols
    counts = []
    for c in cuts:
        packed = tail_rows ^ (diff_rows & ((1 << (c * stride)) - 1))
        transposed = tail_cols ^ (diff_cols & (((1 << c) - 1) * unit))
        counts.append((packed & transposed).bit_count() // 2)
    return counts


def in_rows(g: Digraph) -> tuple[int, ...]:
    """In-neighbour bitmask per vertex: bit u of entry v is set exactly when (u, v) is an arc."""
    stride, _, transposed = _packed_transpose(g)
    return _unpack_rows(transposed, stride, g.n)


def digon_count(g: Digraph) -> int:
    """Number of unordered pairs {u, v} joined by arcs in both directions.

    Half the popcount of A & A^T, with A^T the packed transpose that in_rows
    unpacks (the diagonal is empty because loops are not allowed).
    """
    _, packed, transposed = _packed_transpose(g)
    return (packed & transposed).bit_count() // 2


def permute(g: Digraph, perm: Sequence[int]) -> Digraph:
    """Relabel vertices: arc (u, v) in g becomes (perm[u], perm[v])."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of 0..n-1")
    rows = [0] * g.n
    for u in range(g.n):
        target = 0
        for v in _iter_bits(g.rows[u]):
            target |= 1 << perm[v]
        rows[perm[u]] = target
    return Digraph(g.n, tuple(rows))


def is_weakly_connected(g: Digraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    und = [row | into for row, into in zip(g.rows, in_rows(g))]
    full = (1 << g.n) - 1
    return _closure(und, 0, full) == full


def out_degree_sequence(g: Digraph) -> tuple[int, ...]:
    """All n outdegrees, non-increasing."""
    return tuple(sorted(map(int.bit_count, g.rows), reverse=True))
