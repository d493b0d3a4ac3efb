"""Generators for the extremal digraph families.

All families share one shape: an ordered chain of blocks occupying
consecutive vertex labels, where every vertex sends an arc to every vertex
of every later block and receives none back ("forward domination"), and
each block carries its own internal pattern.

* ``gen_fnk``: blocks are complete digraphs of size k, with at most one
  residual block of size r = n mod k whose position is selectable.
* ``gen_bk``: blocks are balanced complete bipartite digraphs (both arcs
  between the sides, none within a side); the larger side gets the lower
  labels.
* transitive tournaments and complete digraphs are the one-block and
  all-singleton degenerate cases.

Block order matters: distinct orderings are distinct (generally
non-isomorphic) members, so enumerators walk compositions, not partitions.

The fnk placements are measured block by block, none built: a vertex of a
complete block starting at label s has outdegree n - 1 - s, so each block's
outdegree is one number, and every placement is a prefix of the
residual-last chain's k-blocks, the residual block and a suffix of the
residual-first chain's k-blocks (``fnk_placement_blocks``).  A block of b
vertices with outdegree d adds b*d arcs and b*d^2 to M1, so a sum over any
placement is two prefix-sum lookups over q = n // k blocks, and
``fnk_placement_arcs``, ``majorization.fnk_placement_energies``,
``majorization.verify_fnk_ordering`` and the claims' generator columns do
O(q) work per (n, k), at any order: only what builds a Digraph is held to
MAX_VERTICES.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, repeat

from stlab.digraph import MAX_VERTICES, Digraph

FAMILY_KINDS = ("fnk", "bk", "tt", "kd")


class FamilySpec(namedtuple("FamilySpec", "kind n k r_position parts", defaults=(None, None, None))):
    """Declarative description of one family member.

    kind "fnk" uses n, k and r_position (1-based index of the residual
    block, present exactly when n % k != 0); kind "bk" uses parts, a tuple
    of block sizes; kinds "tt" and "kd" use n alone.  k, r_position and
    parts default to None.
    """

    __slots__ = ()


def _complete_rows(size: int) -> tuple[int, ...]:
    full = (1 << size) - 1
    return tuple(full ^ (1 << i) for i in range(size))


def _bipartite_rows(size: int) -> tuple[int, ...]:
    first = (size + 1) // 2
    side_a = (1 << first) - 1
    side_b = ((1 << size) - 1) ^ side_a
    return (side_b,) * first + (side_a,) * (size - first)


def _block_chain(sizes: Sequence[int], rows_for_block: Callable[[int], tuple[int, ...]]) -> Digraph:
    """The forward-dominating chain of blocks of these sizes, each block's rows from rows_for_block."""
    full = (1 << sum(sizes)) - 1
    stops = list(accumulate(sizes))
    starts = [0, *stops[:-1]]
    laters = [full >> stop << stop for stop in stops]
    rows = tuple(
        [
            local << start | later
            for block, start, later in zip(map(rows_for_block, sizes), starts, laters)
            for local in block
        ]
    )
    return Digraph(len(rows), rows)


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


def fnk_block_sizes(n: int, k: int, r_position: int | None = None) -> list[int]:
    """Ordered block sizes for one chain-of-complete-digraphs member."""
    if k < 1:
        raise ValueError(f"block size k must be >= 1, got {k}")
    _check_order(n)
    q, r = divmod(n, k)
    if r == 0:
        if r_position is not None:
            raise ValueError(f"r_position given but n={n} is a multiple of k={k}")
        return [k] * q
    if r_position is None:
        raise ValueError(f"r_position required: n={n} leaves a residual block of size {r}")
    if not 1 <= r_position <= q + 1:
        raise ValueError(f"r_position must be in 1..{q + 1}, got {r_position}")
    sizes = [k] * q
    sizes.insert(r_position - 1, r)
    return sizes


def gen_fnk(n: int, k: int, r_position: int | None = None) -> Digraph:
    """Chain of complete-digraph blocks (sizes k, one residual r = n mod k).

    Blocks occupy consecutive labels in chain order; the residual block
    sits at ``r_position`` (1-based).  Every vertex of an earlier block
    dominates every vertex of every later block.
    """
    return _block_chain(fnk_block_sizes(n, k, r_position), _complete_rows)


def enumerate_fnk_members(n: int, k: int) -> list[Digraph]:
    """All members for the given order: q+1 residual placements, or one when r=0."""
    if k < 1 or n < 1:
        raise ValueError("n and k must be >= 1")
    q, r = divmod(n, k)
    if r == 0:
        return [gen_fnk(n, k)]
    return [gen_fnk(n, k, p) for p in range(1, q + 2)]


def fnk_placement_blocks(n: int, k: int) -> tuple[range, range, range]:
    """(head, resid, tail): the block outdegrees of the members of enumerate_fnk_members(n, k).

    Placement p (from 0) has blocks [k]*p + [r] + [k]*(q-p), and a vertex of
    the block starting at label s has outdegree n - 1 - s.  So its k-blocks
    before the residual block have outdegrees head[:p] (n - 1 - ik), its
    residual block resid[p] (n - 1 - pk) and its k-blocks after it tail[p:]
    (n - 1 - r - ik).  When r = 0 the one member is placement q: head's q
    blocks and an empty residual block.
    """
    if k < 1 or n < 1:
        raise ValueError("n and k must be >= 1")
    r = n % k
    return range(n - 1, r - 1, -k), range(n - 1, r - 2, -k), range(n - 1 - r, -1, -k)


def fnk_block_sums(n: int, k: int, blocks: tuple[range, range, range], power: int) -> list[int]:
    """sum(d ** power) over the outdegrees d of each placement whose blocks are fnk_placement_blocks(n, k).

    A block of b vertices with outdegree d adds b * d ** power, so placement
    p's sum is k times head's prefix sum to p and tail's suffix sum from p,
    plus r * resid[p] ** power: O(q) for every placement together, and one
    sum when r = 0 leaves one member.  It takes the blocks rather than
    building them so that majorization.verify_fnk_ordering measures the
    very blocks it checks.
    """
    head, resid, tail = blocks
    r = n % k
    heads = [0, *accumulate(map(pow, head, repeat(power)))]
    if not r:
        return [k * heads[-1]]
    tails = [0, *accumulate(map(pow, tail, repeat(power)))]
    total = tails[-1]
    return [k * (h + total - t) + r * d**power for h, t, d in zip(heads, tails, resid)]


def fnk_placement_arcs(n: int, k: int) -> list[int]:
    """Arc count of each member of enumerate_fnk_members(n, k), none built."""
    return fnk_block_sums(n, k, fnk_placement_blocks(n, k), 1)


def gen_bk(parts: Sequence[int]) -> Digraph:
    """Chain of balanced complete bipartite blocks with forward domination.

    At most one part may be odd; a size-1 part is a single vertex with no
    internal arcs.
    """
    parts = tuple(parts)
    return build_family(FamilySpec("bk", n=sum(parts), parts=parts))


def bk01_compositions(n: int) -> list[tuple[int, ...]]:
    """Block-size compositions of the even/odd extremal sets.

    Even n: all compositions into parts from {4, 2}.  Odd n: compositions
    with parts from {4, 2} followed by one final part of 3 or 1.  Listed in
    descending lexicographic order.  Capped at MAX_VERTICES: its caller,
    enumerate_bk01_members, builds one digraph per composition.
    """
    _check_order(n)

    def even_parts(total: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
        for p in (4, 2):
            if p <= total:
                for rest in even_parts(total - p):
                    yield (p,) + rest

    if n % 2 == 0:
        combos = list(even_parts(n))
    else:
        combos = [pre + (last,) for last in (3, 1) for pre in even_parts(n - last)]
    return sorted(combos, reverse=True)


def bk01_energy_range(n: int) -> tuple[int, int]:
    """(min, max) Laplacian energy over the bk01 members of order n, none built.

    A block of size s, sides a = ceil(s/2) and b = floor(s/2), with t later
    vertices adds a(b+t)^2 + b(a+t)^2 + 2ab.  span[m] is the range over the
    last m vertices; it holds only m of n's parity, so 3 and 1 end a chain.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    span = {0: (0, 0)}
    for m in range(2 - n % 2, n + 1, 2):
        options = []
        for s in (4, 3, 2, 1):
            if m - s in span:
                a, b, t = (s + 1) // 2, s // 2, m - s
                block = a * (b + t) ** 2 + b * (a + t) ** 2 + 2 * a * b
                lo, hi = span[m - s]
                options += (lo + block, hi + block)
        span[m] = min(options), max(options)
    return span[n]


def enumerate_bk01_members(n: int) -> list[Digraph]:
    """gen_bk of every bk01 composition of n, in bk01_compositions order."""
    return [gen_bk(parts) for parts in bk01_compositions(n)]


def gen_transitive_tournament(n: int) -> Digraph:
    """Acyclic tournament: arc (u, v) iff u < v."""
    return build_family(FamilySpec("tt", n=n))


def gen_complete_digraph(n: int) -> Digraph:
    """All n(n-1) ordered pairs are arcs."""
    return build_family(FamilySpec("kd", n=n))


def spec_block_sizes(spec: FamilySpec) -> list[int]:
    """Ordered block sizes of a spec's member; raises ValueError on a bad spec."""
    if spec.kind == "fnk":
        return fnk_block_sizes(spec.n, spec.k, spec.r_position)
    if spec.kind == "bk":
        if not spec.parts:
            raise ValueError("parts must be non-empty")
        if any(p < 1 for p in spec.parts):
            raise ValueError(f"parts must be >= 1, got {spec.parts}")
        if sum(p % 2 for p in spec.parts) > 1:
            raise ValueError(f"at most one part may be odd, got {spec.parts}")
        if spec.n != sum(spec.parts):
            raise ValueError(f"bk order n={spec.n} must equal the sum of parts {spec.parts}")
        _check_order(spec.n)
        return list(spec.parts)
    if spec.kind not in ("tt", "kd"):
        raise ValueError(f"unknown family kind {spec.kind!r}")
    _check_order(spec.n)
    if spec.kind == "tt":
        return [1] * spec.n
    return [spec.n]


def family_blocks(spec: FamilySpec) -> list[tuple[int, int]]:
    """Half-open label ranges [start, stop) of the blocks, in chain order."""
    ranges = []
    start = 0
    for size in spec_block_sizes(spec):
        ranges.append((start, start + size))
        start += size
    return ranges


def build_family(spec: FamilySpec) -> Digraph:
    rows_for_block = _bipartite_rows if spec.kind == "bk" else _complete_rows
    return _block_chain(spec_block_sizes(spec), rows_for_block)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical string form.

    ``fnk:n=9,k=3,s=3`` (s = residual-block position, given iff n % k != 0),
    ``bk:parts=4+2+3``, ``tt:n=7``, ``kd:n=5``.
    """
    kind, sep, body = text.partition(":")
    if not sep or kind not in FAMILY_KINDS:
        raise ValueError(f"family spec must start with one of {FAMILY_KINDS}, got {text!r}")
    fields: dict[str, str] = {}
    for item in body.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"malformed family spec field {item!r} in {text!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"family spec field {key}= is repeated in {text!r}")
        fields[key] = value.strip()

    def take_int(key: str) -> int:
        try:
            return int(fields.pop(key))
        except KeyError:
            raise ValueError(f"family spec {text!r} is missing {key}=") from None
        except ValueError:
            raise ValueError(f"family spec field {key} must be an integer in {text!r}") from None

    if kind == "fnk":
        n = take_int("n")
        k = take_int("k")
        pos = take_int("s") if "s" in fields else None
        spec = FamilySpec("fnk", n=n, k=k, r_position=pos)
    elif kind == "bk":
        raw = fields.pop("parts", None)
        if raw is None:
            raise ValueError(f"family spec {text!r} is missing parts=")
        try:
            parts = tuple(int(p) for p in raw.split("+"))
        except ValueError:
            raise ValueError(f"parts must be +-separated integers in {text!r}") from None
        spec = FamilySpec("bk", n=sum(parts), parts=parts)
    else:
        spec = FamilySpec(kind, n=take_int("n"))
    if fields:
        raise ValueError(f"unexpected family spec fields {sorted(fields)} in {text!r}")
    spec_block_sizes(spec)  # validate eagerly
    return spec

