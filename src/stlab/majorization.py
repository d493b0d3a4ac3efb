"""Majorization and the squared-sum comparison it licenses.

Sequences are plain non-increasing integer sequences, such as the tuples
that digraph.out_degree_sequence returns.  Only f(t) = t^2 is built in: it
is the one strictly convex function the energy comparisons need, and
keeping it fixed makes the contract exactly testable.

The fnk placements are measured from prefix sums, none built or
materialised: each placement splices the residual-last outdegree sequence
onto the residual-first one at a cut (families.fnk_placement_ends), so its
energy, its prefix sums and its monotonicity follow from the two end
sequences' prefix sums in O(n) per (n, k).
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import accumulate, compress, count
from typing import Sequence

# gen_fnk and laplacian_energy stay importable here: perfbench's tracer wraps them at this site.
from stlab.families import fnk_placement_ends, gen_fnk
from stlab.invariants import laplacian_energy


class KaramataVerdict(Enum):
    HOLDS_STRICT = "holds_strict"
    HOLDS_EQUAL = "holds_equal"
    NOT_APPLICABLE = "not_applicable"


def _check_pair(x: Sequence[int], y: Sequence[int]) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    for seq, name in ((x, "x"), (y, "y")):
        if any(map(operator.lt, seq, seq[1:])):
            raise ValueError(f"{name} is not non-increasing: {tuple(seq)}")


def majorizes(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff every prefix sum of x dominates y's and the totals agree."""
    _check_pair(x, y)
    return all(map(operator.ge, accumulate(x), accumulate(y))) and sum(x) == sum(y)


def karamata_square_check(x: Sequence[int], y: Sequence[int]) -> KaramataVerdict:
    """Verdict of the squared-sum inequality under majorization.

    NOT_APPLICABLE when x does not majorize y; HOLDS_EQUAL when x == y;
    otherwise HOLDS_STRICT, with sum(x^2) > sum(y^2) verified numerically.
    """
    if not majorizes(x, y):
        return KaramataVerdict.NOT_APPLICABLE
    if tuple(x) == tuple(y):
        return KaramataVerdict.HOLDS_EQUAL
    sq_x = sum(a * a for a in x)
    sq_y = sum(b * b for b in y)
    if sq_x <= sq_y:
        raise ArithmeticError(
            f"strict convexity violated: {sq_x} <= {sq_y} for majorizing {tuple(x)} over {tuple(y)}"
        )
    return KaramataVerdict.HOLDS_STRICT


def _energies(n: int, k: int, head: list[int], tail: list[int], cuts: range) -> list[int]:
    """Laplacian energy of each placement head[:c] + tail[c:], c in cuts.

    The energy is M1 + c2: M1 sums the squared outdegrees, read off the
    prefix sums of head's and tail's squares, and c2 = q*k(k-1) + r(r-1)
    counts closed 2-walks, s(s-1) in each complete block of size s.
    """
    q, r = divmod(n, k)
    c2 = q * k * (k - 1) + r * (r - 1)
    heads = [0, *accumulate(map(operator.mul, head, head))]
    tails = [0, *accumulate(map(operator.mul, tail, tail))]
    return [heads[c] + tails[n] - tails[c] + c2 for c in cuts]


def fnk_placement_energies(n: int, k: int) -> list[int]:
    """Laplacian energy of each member of enumerate_fnk_members(n, k), none built."""
    return _energies(n, k, *fnk_placement_ends(n, k))


def verify_fnk_ordering(n: int, k: int) -> list[tuple[int, int]]:
    """Laplacian energies of the residual-block placements, checked increasing.

    Returns [(s, LE of the member with the residual block at position s+1)]
    for s = 0..q.  Raises ArithmeticError if a placement's outdegree
    sequence is not non-increasing, if the energies are not strictly
    increasing in s or if a later placement fails to majorize an earlier
    one (prefix sums of the outdegree sequence, checked between
    consecutive placements).  Raises ValueError unless n and k are >= 1,
    and when there is a single member with nothing to order: n % k == 0,
    or n < k.  The placements are measured from fnk_placement_ends'
    prefix sums, none built, in O(n) per (n, k).
    """
    head, tail, cuts = fnk_placement_ends(n, k)
    if len(cuts) == 1:
        raise ValueError(f"n={n}, k={k}: single member, no ordering to verify")
    # Placement s = head[:c] + tail[c:] is non-increasing iff head[:c] has no
    # rise (c <= head_stop, one past head's first rise), tail[c:] has none
    # (c > tail_start, tail's last rise) and the junction does not rise.
    head_stop = next(compress(count(1), map(operator.lt, head, head[1:])), n)
    tail_start = max(compress(count(), map(operator.lt, tail, tail[1:])), default=-1)
    for s, c in enumerate(cuts):
        if not tail_start < c <= head_stop or 0 < c < n and head[c - 1] < tail[c]:
            raise ArithmeticError(f"placement {s} is not non-increasing: {tuple(head[:c] + tail[c:])}")
    energies = _energies(n, k, head, tail, cuts)
    if not all(map(operator.lt, energies, energies[1:])):
        s = next(s for s in range(len(cuts) - 1) if not energies[s] < energies[s + 1])
        raise ArithmeticError(
            f"energy ordering violated at n={n}, k={k}: "
            f"LE(s={s})={energies[s]} !< LE(s={s + 1})={energies[s + 1]}"
        )
    # Placements s and s+1 share their prefix sums up to cuts[s].  With
    # diff = prefix sums of head minus those of tail, s+1's prefix sums
    # exceed s's by diff[i] - diff[cuts[s]] up to cuts[s+1] and by the
    # constant diff[cuts[s+1]] - diff[cuts[s]] after it, so s+1 majorizes s
    # iff that constant is 0 (the totals agree) and diff never drops below
    # diff[cuts[s]] in the window.  The windows tile [cuts[0], n], so every
    # placement majorizes the one before it iff diff is the same at every
    # cut and no lower from cuts[0] on; only a failure looks for its window.
    # Majorization between equal-length sequences is transitive, so the
    # consecutive chain implies every later placement majorizes every
    # earlier one.
    diff = [0, *map(operator.sub, accumulate(head), accumulate(tail))]
    base = diff[cuts[0]]
    if min(diff[cuts[0] :]) < base or any(diff[c] != base for c in cuts):
        s = next(
            s
            for s, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
            if not (diff[hi] == diff[lo] and min(diff[lo : hi + 1]) >= diff[lo])
        )
        raise ArithmeticError(
            f"majorization violated at n={n}, k={k}: placement {s + 1} does not majorize placement {s}"
        )
    return list(enumerate(energies))
