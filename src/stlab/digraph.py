"""Loop-free digraphs on up to 64 labelled vertices, stored as bit rows.

Vertices are dense integer labels 0..n-1.  Row ``u`` is a plain int whose
bit ``v`` is set exactly when the arc (u, v) is present, so a whole
out-neighbourhood fits in one machine word at the capacity limit.  A
Digraph is a collections.namedtuple subclass (n, rows): immutable and
hashable, it sorts as that tuple, and rows given as a list are stored as a
tuple.  Every structural operation returns a fresh value.

The per-row work of the core runs in C-level bulk calls, not in Python
loops over the rows.  A Digraph validates all rows at once: row u ANDed
with ``-(1 << n) | 1 << u`` is non-zero exactly when the row is negative,
addresses a vertex >= n or holds the loop (u, u).  The packed bit matrix
that digon_count and in_rows transpose is converted to and from the row
tuple by one ``struct`` call: one little-endian unsigned field per row, of
8 bits at n <= 8, else of 16, 32 or 64 bits (_transpose_layout).  The
widest field sets MAX_VERTICES: a width-generic codec (joined
int.to_bytes) is several times slower on every in_rows call and
canonical_label leaf (timeit, best of 5, 2-vCPU VM: pack 0.47 against
3.5-5.0 us and unpack 0.77 against 6.4 us at n = 16; pack 2.8 against
6.8-12.8 us at n = 64), and nothing needs a Digraph above 64 vertices.

Relabelling has one bulk primitive, _relabelled_rows(ins, order): moving
vertex order[p] to position p permutes both the rows and the columns of the
matrix.  The in-rows taken in position order are the transpose of the
column-permuted matrix, so one packed transpose gives that matrix, and its
rows taken in the same order are the relabelled rows.  permute goes through
it, and so does every leaf of search.canonical_label, which has the in-rows
from its colour refinement; neither sets one bit per arc.
"""

from __future__ import annotations

import operator
import struct
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

MAX_VERTICES = 64

# _FORBIDDEN[n][u]: the bits row u of an n-vertex Digraph must not have, namely
# bits >= n (so also the sign of a negative row) and the loop bit u.
_FORBIDDEN = tuple(tuple(-(1 << n) | 1 << u for u in range(n)) for n in range(MAX_VERTICES + 1))


def _iter_bits(word: int) -> Iterator[int]:
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _reach_layers(rows: Sequence[int], start: int, within: int) -> list[int]:
    """Entry d: ``start`` and the vertices it reaches in at most d steps along ``rows`` without leaving ``within``.

    The last entry is the closure: every vertex ``start`` reaches there.
    """
    seen = frontier = 1 << start
    layers = [seen]
    while True:
        grown = 0
        while frontier:  # _iter_bits, inlined to skip a generator per layer
            low = frontier & -frontier
            grown |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(seen)


class Digraph(namedtuple("Digraph", "n rows")):
    """Immutable digraph; instances compare and sort by (n, rows).

    rows is a tuple of n ints, row u holding the out-neighbours of u as bits.
    """

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


# struct format code of an unsigned row field per stride in bits.
_ROW_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=None)
def _transpose_layout(n: int) -> tuple[struct.Struct, tuple[tuple[int, int], ...]]:
    """(codec, rounds) of the packed transpose of an n x n bit matrix.

    The matrix is taken as size x size, size the next power of two >= n,
    with rows at a stride of max(8, size) bits so that a row is a whole
    field of codec: n little-endian unsigned stride-bit fields, so the
    packed int holds row u at bits [u * stride, (u + 1) * stride) on any
    host.  rounds holds the (shift, mask) of each of the log2(size)
    block-swap rounds: round j exchanges bit j of the row and column
    indices, its mask marks cells (u, v) with u & j == 0 and v & j != 0,
    whose partners (u + j, v - j) sit j * (stride - 1) bits higher (Warren,
    Hacker's Delight, section 7-3).  One entry per vertex count, built on
    first use.
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
    return struct.Struct(f"<{n}{_ROW_CODES[stride]}"), tuple(rounds)


def _packed_transpose(rows: Sequence[int]) -> tuple[int, int]:
    """(A, A^T): the n rows of an n x n bit matrix packed into one int, and their transpose.

    The rows are packed by one call of the layout's codec, and the
    transpose is log2(size) masked block swaps of the packed int, size the
    next power of two >= n (_transpose_layout).  Bits at columns >= n, and
    rows >= n of A^T, are zero, so the codec reads A^T back as n rows.
    """
    codec, rounds = _transpose_layout(len(rows))
    packed = int.from_bytes(codec.pack(*rows), "little")
    transposed = packed
    for shift, mask in rounds:
        swap = (transposed ^ (transposed >> shift)) & mask
        transposed ^= swap ^ (swap << shift)
    return packed, transposed


def _transposed_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """The n rows of the transpose of the n x n bit matrix with these rows."""
    codec = _transpose_layout(len(rows))[0]
    return codec.unpack(_packed_transpose(rows)[1].to_bytes(codec.size, "little"))


def _relabelled_rows(ins: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the digraph with in-rows ``ins`` after vertex order[p] moves to position p.

    Row p has bit q set exactly when (order[p], order[q]) is an arc.  The
    in-rows taken in position order are the transpose of the column-permuted
    matrix, whose row u has bit q set exactly when (u, order[q]) is an arc;
    one packed transpose gives that matrix, and its rows taken in the same
    order are the relabelled rows.
    """
    cols = _transposed_rows([ins[v] for v in order])
    return tuple([cols[v] for v in order])


def in_rows(g: Digraph) -> tuple[int, ...]:
    """In-neighbour bitmask per vertex: bit u of entry v is set exactly when (u, v) is an arc."""
    return _transposed_rows(g.rows)


def digon_count(g: Digraph) -> int:
    """Number of unordered pairs {u, v} joined by arcs in both directions.

    Half the popcount of A & A^T, with A^T the packed transpose whose rows
    in_rows reads (the diagonal is empty because loops are not allowed).
    """
    packed, transposed = _packed_transpose(g.rows)
    return (packed & transposed).bit_count() // 2


def permute(g: Digraph, perm: Sequence[int]) -> Digraph:
    """Relabel vertices: arc (u, v) in g becomes (perm[u], perm[v])."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of 0..n-1")
    order = sorted(range(g.n), key=perm.__getitem__)  # order[perm[u]] = u
    return Digraph(g.n, _relabelled_rows(in_rows(g), order))


def is_weakly_connected(g: Digraph) -> bool:
    """True iff the underlying undirected graph is connected."""
    und = [row | into for row, into in zip(g.rows, in_rows(g))]
    full = (1 << g.n) - 1
    return _reach_layers(und, 0, full)[-1] == full


def out_degree_sequence(g: Digraph) -> tuple[int, ...]:
    """All n outdegrees, non-increasing."""
    return tuple(sorted(map(int.bit_count, g.rows), reverse=True))
