"""Loop-free digraphs on up to 64 labelled vertices, stored as bit rows.

Vertices are dense integer labels 0..n-1.  Row ``u`` is a plain int whose
bit ``v`` is set exactly when the arc (u, v) is present, so a whole
out-neighbourhood fits in one machine word at the capacity limit.  Digraph
values are immutable and hashable; every structural operation returns a
fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


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


@dataclass(frozen=True, order=True)
class Digraph:
    """Immutable digraph; instances compare and sort by (n, rows)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for u, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {u} addresses vertices >= n={self.n}")
            if row >> u & 1:
                raise ValueError(f"loop arc ({u}, {u}) is not allowed")

    @cached_property
    def e(self) -> int:
        """Number of arcs."""
        return sum(row.bit_count() for row in self.rows)

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


@lru_cache(maxsize=None)
def _transpose_rounds(width: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per block-swap round of a packed width x width transpose.

    Round j exchanges bit j of the row and column indices: the mask marks
    cells (u, v) with u & j == 0 and v & j != 0, whose partners (u + j, v - j)
    sit j * (width - 1) bits higher (Warren, Hacker's Delight, section 7-3).
    """
    rounds = []
    j = 1
    while j < width:
        cols = sum(1 << v for v in range(width) if v & j)
        mask = sum(cols << (u * width) for u in range(width) if not u & j)
        rounds.append((j * (width - 1), mask))
        j <<= 1
    return tuple(rounds)


def _packed_transpose(g: Digraph) -> tuple[int, int, int]:
    """(width, A, A^T): the rows packed at a power-of-two stride ``width``, and their transpose.

    The transpose is log2(width) masked block swaps of the packed int.
    """
    width = 1 << (g.n - 1).bit_length()
    packed = 0
    for u, row in enumerate(g.rows):
        packed |= row << (u * width)
    transposed = packed
    for shift, mask in _transpose_rounds(width):
        swap = (transposed ^ (transposed >> shift)) & mask
        transposed ^= swap ^ (swap << shift)
    return width, packed, transposed


def in_rows(g: Digraph) -> tuple[int, ...]:
    """In-neighbour bitmask per vertex: bit u of entry v is set exactly when (u, v) is an arc."""
    width, _, transposed = _packed_transpose(g)
    full = (1 << width) - 1
    return tuple([transposed >> shift & full for shift in range(0, g.n * width, width)])


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


@dataclass(frozen=True)
class DegreeSequence:
    """Non-increasing integer sequence with prefix sums of the t largest.

    ``prefix[t]`` is the sum of the t largest values; ``prefix[0] == 0`` and
    ``prefix[n]`` equals the total.
    """

    values: tuple[int, ...]
    prefix: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-increasing")

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> DegreeSequence:
        values = tuple(sorted(degrees, reverse=True))
        prefix = [0]
        for d in values:
            prefix.append(prefix[-1] + d)
        return cls(values, tuple(prefix))

    def __len__(self) -> int:
        return len(self.values)


def out_degree_sequence(g: Digraph) -> DegreeSequence:
    """Descending sequence of all n outdegrees, with prefix sums."""
    return DegreeSequence.from_degrees(row.bit_count() for row in g.rows)
