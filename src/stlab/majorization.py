"""Laplacian energy of the fnk placements and the majorization order between them.

The fnk placements are measured block by block, none built or
materialised: each placement is a prefix of the residual-last chain's
k-blocks, the residual block and a suffix of the residual-first chain's
k-blocks (families.fnk_placement_blocks), and every vertex of a block has
the block's outdegree.  So a placement's energy is two prefix-sum lookups
over the q = n // k blocks, and its monotonicity and the majorization
between consecutive placements are read at block boundaries, in O(q) per
(n, k).
"""

from __future__ import annotations

import operator

# gen_fnk and laplacian_energy stay importable here: perfbench's tracer wraps them at this site.
from stlab.families import fnk_block_sums, fnk_placement_blocks, gen_fnk
from stlab.invariants import laplacian_energy


def _energies(n: int, k: int, blocks: tuple[range, range, range]) -> list[int]:
    """Laplacian energy of each placement with these blocks.

    The energy is M1 + c2: M1 sums the squared outdegrees
    (families.fnk_block_sums), and c2 = q*k(k-1) + r(r-1) counts closed
    2-walks, s(s-1) in each complete block of size s.
    """
    q, r = divmod(n, k)
    c2 = q * k * (k - 1) + r * (r - 1)
    return [m1 + c2 for m1 in fnk_block_sums(n, k, blocks, 2)]


def fnk_placement_energies(n: int, k: int) -> list[int]:
    """Laplacian energy of each member of enumerate_fnk_members(n, k), none built."""
    return _energies(n, k, fnk_placement_blocks(n, k))


def fnk_residual_last_energy(n: int, k: int) -> int:
    """Laplacian energy of the residual-last member alone, the last placement."""
    return fnk_placement_energies(n, k)[-1]


def _outdegrees(n: int, k: int, blocks: tuple[range, range, range], p: int) -> tuple[int, ...]:
    """Placement p's outdegree sequence, vertex by vertex: each block's outdegree repeated over its size."""
    head, resid, tail = blocks
    before = [d for d in head[:p] for _ in range(k)]
    after = [d for d in tail[p:] for _ in range(k)]
    return tuple(before + [resid[p]] * (n % k) + after)


def verify_fnk_ordering(n: int, k: int) -> list[tuple[int, int]]:
    """Laplacian energies of the residual-block placements, checked increasing.

    Returns [(s, LE of the member with the residual block at position s+1)]
    for s = 0..q.  Raises ArithmeticError if a placement's outdegree
    sequence is not non-increasing, if the energies are not strictly
    increasing in s or if a later placement fails to majorize an earlier
    one (prefix sums of the outdegree sequence, checked between
    consecutive placements).  Raises ValueError unless n and k are >= 1,
    and when there is a single member with nothing to order: n % k == 0,
    or n < k.  The placements are measured from fnk_placement_blocks'
    block outdegrees, none built, in O(q) per (n, k).
    """
    blocks = fnk_placement_blocks(n, k)
    head, resid, tail = blocks
    q, r = divmod(n, k)
    if not q or not r:
        raise ValueError(f"n={n}, k={k}: single member, no ordering to verify")
    # Every block is constant, so every placement is non-increasing iff no two
    # blocks that meet in some placement rise: consecutive heads (all meet in
    # placement q), consecutive tails (in placement 0), and head[s-1] before
    # resid[s] and resid[s] before tail[s] in placement s.  Only a failure
    # lays placements out vertex by vertex to find the first with a rise.
    meets = ((head, head[1:]), (tail, tail[1:]), (head, resid[1:]), (resid, tail))
    if any(any(map(operator.lt, x, y)) for x, y in meets):
        seqs = (_outdegrees(n, k, blocks, s) for s in range(q + 1))
        s, seq = next((s, seq) for s, seq in enumerate(seqs) if any(map(operator.lt, seq, seq[1:])))
        raise ArithmeticError(f"placement {s} is not non-increasing: {seq}")
    energies = _energies(n, k, blocks)
    if not all(map(operator.lt, energies, energies[1:])):
        s = next(s for s in range(q) if not energies[s] < energies[s + 1])
        raise ArithmeticError(
            f"energy ordering violated at n={n}, k={k}: "
            f"LE(s={s})={energies[s]} !< LE(s={s + 1})={energies[s + 1]}"
        )
    # Placements s and s+1 agree outside the k + r labels from sk: there s
    # has r vertices of a = resid[s] then k of t = tail[s], and s+1 has k of
    # h = head[s] then r of b = resid[s+1].  The difference D(j) of their
    # prefix sums j labels into that window is linear between 0 < r < k < k + r,
    # so s+1 majorizes s iff D(r) = r(h - a) >= 0, D(k) = kh - ra - (k - r)t >= 0
    # and D(k + r) = k(h - t) - r(a - b) = 0 (equal totals).
    # Majorization between equal-length sequences is transitive, so the
    # consecutive chain implies every later placement majorizes every
    # earlier one.
    for s, (h, a, b, t) in enumerate(zip(head, resid, resid[1:], tail)):
        if h < a or k * h < r * a + (k - r) * t or k * (h - t) != r * (a - b):
            raise ArithmeticError(
                f"majorization violated at n={n}, k={k}: placement {s + 1} does not majorize placement {s}"
            )
    return list(enumerate(energies))
