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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from stlab.digraph import Digraph

FAMILY_KINDS = ("fnk", "bk", "tt", "kd")


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of one family member.

    kind "fnk" uses n, k and r_position (1-based index of the residual
    block, present exactly when n % k != 0); kind "bk" uses parts; kinds
    "tt" and "kd" use n alone.
    """

    kind: str
    n: int
    k: int | None = None
    r_position: int | None = None
    parts: tuple[int, ...] | None = None


def _complete_rows(size: int) -> list[int]:
    full = (1 << size) - 1
    return [full ^ (1 << i) for i in range(size)]


def _bipartite_rows(size: int) -> list[int]:
    first = (size + 1) // 2
    side_a = (1 << first) - 1
    side_b = ((1 << size) - 1) ^ side_a
    return [side_b] * first + [side_a] * (size - first)


def _block_chain(sizes: Sequence[int], rows_for_block: Callable[[int], list[int]]) -> Digraph:
    n = sum(sizes)
    full = (1 << n) - 1
    rows = []
    start = 0
    for size in sizes:
        stop = start + size
        later = full ^ ((1 << stop) - 1)
        for local in rows_for_block(size):
            rows.append((local << start) | later)
        start = stop
    return Digraph(n, tuple(rows))


def fnk_block_sizes(n: int, k: int, r_position: int | None = None) -> list[int]:
    """Ordered block sizes for one chain-of-complete-digraphs member."""
    if k < 1:
        raise ValueError(f"block size k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
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
    q, r = divmod(n, k)
    if k < 1 or n < 1:
        raise ValueError("n and k must be >= 1")
    if r == 0:
        return [gen_fnk(n, k)]
    return [gen_fnk(n, k, pos) for pos in range(1, q + 2)]


def _check_bk_parts(parts: tuple[int, ...]) -> None:
    if not parts:
        raise ValueError("parts must be non-empty")
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be >= 1, got {parts}")
    if sum(p % 2 for p in parts) > 1:
        raise ValueError(f"at most one part may be odd, got {parts}")


def gen_bk(parts: Sequence[int]) -> Digraph:
    """Chain of balanced complete bipartite blocks with forward domination.

    At most one part may be odd; a size-1 part is a single vertex with no
    internal arcs.
    """
    parts = tuple(parts)
    _check_bk_parts(parts)
    return _block_chain(parts, _bipartite_rows)


def bk01_compositions(n: int) -> list[tuple[int, ...]]:
    """Block-size compositions of the even/odd extremal sets.

    Even n: all compositions into parts from {4, 2}.  Odd n: compositions
    with parts from {4, 2} followed by one final part of 3 or 1.  Listed in
    descending lexicographic order.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")

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


def enumerate_bk01_members(n: int) -> list[Digraph]:
    return [gen_bk(parts) for parts in bk01_compositions(n)]


def gen_transitive_tournament(n: int) -> Digraph:
    """Acyclic tournament: arc (u, v) iff u < v."""
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    return _block_chain([1] * n, _complete_rows)


def gen_complete_digraph(n: int) -> Digraph:
    """All n(n-1) ordered pairs are arcs."""
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    return _block_chain([n], _complete_rows)


def spec_block_sizes(spec: FamilySpec) -> list[int]:
    """Ordered block sizes of a spec's member; raises ValueError on a bad spec."""
    if spec.kind == "fnk":
        return fnk_block_sizes(spec.n, spec.k, spec.r_position)
    if spec.kind == "bk":
        _check_bk_parts(spec.parts)
        if spec.n != sum(spec.parts):
            raise ValueError(f"bk order n={spec.n} must equal the sum of parts {spec.parts}")
        return list(spec.parts)
    if spec.kind not in ("tt", "kd"):
        raise ValueError(f"unknown family kind {spec.kind!r}")
    if spec.n < 1:
        raise ValueError(f"order n must be >= 1, got {spec.n}")
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
        fields[key.strip()] = value.strip()

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


def format_family_spec(spec: FamilySpec) -> str:
    if spec.kind == "fnk":
        suffix = f",s={spec.r_position}" if spec.r_position is not None else ""
        return f"fnk:n={spec.n},k={spec.k}{suffix}"
    if spec.kind == "bk":
        return "bk:parts=" + "+".join(str(p) for p in spec.parts)
    return f"{spec.kind}:n={spec.n}"
