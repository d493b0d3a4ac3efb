"""Majorization and the squared-sum comparison it licenses.

Sequences are plain non-increasing integer sequences, such as the tuples
that digraph.out_degree_sequence returns.  Only f(t) = t^2 is built in: it
is the one strictly convex function the energy comparisons need, and
keeping it fixed makes the contract exactly testable.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import accumulate
from typing import Sequence

from stlab.digraph import spliced_digon_counts
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


def fnk_placement_measures(n: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(Laplacian energy, outdegree sequence) of each member of enumerate_fnk_members(n, k).

    No member is built.  Member p is the row splice head.rows[:c] +
    tail.rows[c:] of fnk_placement_ends, whose rows are rows of validated
    digraphs, so it needs no validation.  Its energy is M1 + c2: M1 is a
    prefix sum of head's squared outdegrees plus a suffix sum of tail's,
    and c2 is twice spliced_digon_counts'.
    """
    head, tail, cuts = fnk_placement_ends(n, k)
    head_degrees = list(map(int.bit_count, head.rows))
    tail_degrees = list(map(int.bit_count, tail.rows))
    head_m1 = list(accumulate([d * d for d in head_degrees], initial=0))
    tail_m1 = list(accumulate([d * d for d in tail_degrees], initial=0))
    return [
        (
            head_m1[c] + tail_m1[n] - tail_m1[c] + 2 * digons,
            tuple(sorted(head_degrees[:c] + tail_degrees[c:], reverse=True)),
        )
        for c, digons in zip(cuts, spliced_digon_counts(head, tail, cuts))
    ]


def verify_fnk_ordering(n: int, k: int) -> list[tuple[int, int]]:
    """Laplacian energies of the residual-block placements, checked increasing.

    Returns [(s, LE of the member with the residual block at position s+1)]
    for s = 0..q.  Raises if the energies are not strictly increasing in s,
    or if a later placement fails to majorize an earlier one (prefix sums
    of the outdegree sequence, checked between consecutive placements).
    Raises ValueError unless n and k are >= 1, and when there is a single
    member with nothing to order: n % k == 0, or n < k.  The placements
    are measured by fnk_placement_measures, from the packed matrices of
    the two end members, without building any placement.
    """
    measures = fnk_placement_measures(n, k)
    if len(measures) == 1:
        raise ValueError(f"n={n}, k={k}: single member, no ordering to verify")
    energies, seqs = zip(*measures)
    for s in range(len(measures) - 1):
        if not energies[s] < energies[s + 1]:
            raise ArithmeticError(
                f"energy ordering violated at n={n}, k={k}: "
                f"LE(s={s})={energies[s]} !< LE(s={s + 1})={energies[s + 1]}"
            )
    # Majorization between equal-length sequences is transitive, so the
    # consecutive chain implies every later placement majorizes every earlier one.
    for s in range(len(measures) - 1):
        if not majorizes(seqs[s + 1], seqs[s]):
            raise ArithmeticError(
                f"majorization violated at n={n}, k={k}: "
                f"placement {s + 1} does not majorize placement {s}"
            )
    return list(enumerate(energies))
