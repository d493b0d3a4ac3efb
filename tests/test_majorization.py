import time

import pytest
from hypothesis import given, strategies as st

from stlab import majorization
from stlab.digraph import out_degree_sequence
from stlab.families import (
    enumerate_fnk_members,
    fnk_placement_arcs,
    fnk_placement_blocks,
    gen_fnk,
    gen_transitive_tournament,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck
from stlab.invariants import laplacian_energy
from stlab.majorization import (
    fnk_placement_energies,
    fnk_residual_last_energy,
    verify_fnk_ordering,
)

from conftest import fnk_placement_degrees, naive_majorizes

# naive_majorizes is the reference the built-members test checks consecutive
# placements with; the law tests below pin it to majorization's definition.


def sorted_seqs(max_len=10, max_val=20):
    return st.lists(st.integers(0, max_val), min_size=1, max_size=max_len).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


@st.composite
def transfer_pairs(draw):
    """(x, y) with x majorizing y: y arises from rich-to-poor unit transfers."""
    x = list(draw(sorted_seqs()))
    y = list(x)
    for _ in range(draw(st.integers(0, 6))):
        if len(y) < 2:
            break
        i = draw(st.integers(0, len(y) - 2))
        j = draw(st.integers(i + 1, len(y) - 1))
        if y[i] > y[j]:
            y[i] -= 1
            y[j] += 1
            y.sort(reverse=True)
    return tuple(x), tuple(y)


def test_examples():
    assert naive_majorizes((3, 2, 1, 0), (2, 2, 1, 1))
    assert not naive_majorizes((2, 2, 2), (3, 2, 1))
    assert naive_majorizes((4, 1), (4, 1))


@given(sorted_seqs())
def test_reflexive(x):
    assert naive_majorizes(x, x)


@given(transfer_pairs())
def test_transfers_majorize(pair):
    x, y = pair
    assert naive_majorizes(x, y)


@given(transfer_pairs())
def test_antisymmetric(pair):
    x, y = pair
    if naive_majorizes(y, x):
        assert x == y


@given(transfer_pairs(), st.data())
def test_transitive(pair, data):
    x, y = pair
    z = list(y)
    for _ in range(data.draw(st.integers(0, 4))):
        if len(z) < 2:
            break
        i = data.draw(st.integers(0, len(z) - 2))
        j = data.draw(st.integers(i + 1, len(z) - 1))
        if z[i] > z[j]:
            z[i] -= 1
            z[j] += 1
            z.sort(reverse=True)
    z = tuple(z)
    assert naive_majorizes(y, z)
    assert naive_majorizes(x, z)


def test_ordering_pinned_pair():
    assert verify_fnk_ordering(5, 3) == [(0, 52), (1, 58)]


def test_ordering_is_strictly_increasing():
    energies = [le for _, le in verify_fnk_ordering(7, 3)]
    assert energies == sorted(energies)
    assert len(set(energies)) == len(energies)


def test_ordering_single_member_notice():
    with pytest.raises(ValueError, match="single member"):
        verify_fnk_ordering(4, 2)


@pytest.mark.parametrize("n, k", [(2, 3), (1, 2)])
def test_ordering_rejects_order_below_block_size(n, k):
    # n < k leaves the residual block alone: one member, nothing to order.
    with pytest.raises(ValueError, match="single member"):
        verify_fnk_ordering(n, k)


@pytest.mark.parametrize("n, k", [(5, 0), (0, 3)])
def test_ordering_rejects_nonpositive_arguments(n, k):
    with pytest.raises(ValueError, match="n and k must be >= 1"):
        verify_fnk_ordering(n, k)


def test_placement_measures_match_built_members():
    # Every order and block size, including k > n and the r = 0 chains: the prefix-sum
    # energies, arcs and ordering check against the built members, the placements laid out
    # vertex by vertex from their blocks against the block-by-block reference, and the
    # reference majorization on every consecutive pair of built sequences.
    # The k = 1 chain is the transitive tournament, so this also checks thm1.5's generator column.
    members = 0
    for n in range(1, 65):
        assert gen_fnk(n, 1) == gen_transitive_tournament(n), n
        for k in range(1, n + 2):
            built = enumerate_fnk_members(n, k)
            energies = [laplacian_energy(g) for g in built]
            seqs = [out_degree_sequence(g) for g in built]
            assert fnk_placement_energies(n, k) == energies, (n, k)
            assert fnk_residual_last_energy(n, k) == energies[-1], (n, k)
            assert fnk_placement_arcs(n, k) == [g.e for g in built], (n, k)
            blocks, (q, r) = fnk_placement_blocks(n, k), divmod(n, k)
            laid_out = [majorization._outdegrees(n, k, blocks, p) for p in (range(q + 1) if r else [q])]
            assert laid_out == seqs == fnk_placement_degrees(n, k), (n, k)
            assert all(map(naive_majorizes, seqs[1:], seqs)), (n, k)
            if len(built) > 1:
                assert verify_fnk_ordering(n, k) == list(enumerate(energies)), (n, k)
            members += len(built)
    assert members == 6845


@pytest.mark.parametrize("n", [65, 100, 127, 128, 129, 200, 256])
def test_placement_measures_match_block_reference_past_max_vertices(n):
    # No Digraph holds these orders, and fnk_block_sizes is capped with it, so
    # the reference lays out each placement's blocks [k]*p + [r] + [k]*(q-p)
    # itself: a vertex of the block starting at label s has outdegree n - 1 - s,
    # and a complete block of size b closes b(b-1) 2-walks.
    for k in range(1, n + 2):
        q, r = divmod(n, k)
        arcs, energies = [], []
        for p in range(q + 1) if r else [q]:
            sizes = [k] * p + [r] * bool(r) + [k] * (q - p)
            seq: list[int] = []
            for size in sizes:
                seq += [n - 1 - len(seq)] * size
            arcs.append(sum(seq))
            energies.append(sum(d * d for d in seq) + sum(b * (b - 1) for b in sizes))
        assert fnk_placement_arcs(n, k) == arcs, (n, k)
        assert fnk_placement_energies(n, k) == energies, (n, k)
        assert fnk_residual_last_energy(n, k) == energies[-1], (n, k)
        if r and q:
            assert verify_fnk_ordering(n, k) == list(enumerate(energies)), (n, k)


def test_placement_measures_cost_follows_q_not_n():
    # Two placements of a million-vertex chain: O(q) work, q = 1, where a per-vertex
    # layout of each placement takes over half a second.  Placement s's energy is
    # ex_le_ck(n, k) - (q - s)kr(k - r), and every placement has ex_arcs_ck(n, k) arcs.
    n, k = 10**6 + 1, 10**6
    start = time.perf_counter()
    measured = (
        verify_fnk_ordering(n, k),
        fnk_placement_arcs(n, k),
        fnk_placement_energies(n, k),
        fnk_residual_last_energy(n, k),
    )
    elapsed = time.perf_counter() - start
    le = ex_le_ck(n, k).value
    energies = [le - k * (k - 1), le]
    assert measured == (list(enumerate(energies)), [ex_arcs_ck(n, k).value] * 2, energies, le)
    assert all(type(value) is int for value in (*measured[1], *measured[2], measured[3]))
    assert elapsed < 0.1, elapsed


def _patch_blocks(monkeypatch, edit):
    """Hand verify_fnk_ordering F(7, 3)'s blocks, head [6, 3], resid [6, 3, 0] and tail [5, 2], after edit."""
    blocks = [list(outdegrees) for outdegrees in fnk_placement_blocks(7, 3)]
    monkeypatch.setattr(majorization, "fnk_placement_blocks", lambda n, k: edit(*blocks))


def test_ordering_reports_majorization_violation(monkeypatch):
    # A lower tail[0]: placement 0's total falls short of placement 1's, while every
    # placement stays non-increasing and the energies still increase.
    _patch_blocks(monkeypatch, lambda head, resid, tail: (head, resid, [4] + tail[1:]))
    with pytest.raises(ArithmeticError, match="majorization violated at n=7, k=3: placement 1"):
        verify_fnk_ordering(7, 3)
    # Equal totals, but placement 0's prefix sums pass placement 1's inside their window:
    # 8 against 7 at its first label.
    monkeypatch.setattr(majorization, "fnk_placement_blocks", lambda n, k: ([7, 4], [8, 4, 0], [6, 3]))
    with pytest.raises(ArithmeticError, match="majorization violated at n=9, k=4: placement 1"):
        verify_fnk_ordering(9, 4)


def test_ordering_reports_energy_violation(monkeypatch):
    # Swapped head and tail run the placements backwards: residual last first.
    _patch_blocks(monkeypatch, lambda head, resid, tail: (tail, resid, head))
    with pytest.raises(ArithmeticError, match="energy ordering violated at n=7, k=3"):
        verify_fnk_ordering(7, 3)


def test_ordering_reports_non_increasing_violation(monkeypatch):
    # Placement s is head[:s], resid[s], tail[s:] block by block: a rise in tail shows first
    # in placement 0, a rise in head in placement q, the one that holds all of head, and a
    # rise where the residual block meets the block after or before it in that placement alone.
    _patch_blocks(monkeypatch, lambda head, resid, tail: (head, resid, tail[::-1]))
    with pytest.raises(ArithmeticError, match=r"placement 0 is not non-increasing: \(6, 2, 2, 2, 5, 5, 5\)"):
        verify_fnk_ordering(7, 3)
    _patch_blocks(monkeypatch, lambda head, resid, tail: (head[::-1], resid, tail))
    with pytest.raises(ArithmeticError, match=r"placement 2 is not non-increasing: \(3, 3, 3, 6, 6, 6, 0\)"):
        verify_fnk_ordering(7, 3)
    _patch_blocks(monkeypatch, lambda head, resid, tail: (head, resid, tail[:1] + [4]))
    with pytest.raises(ArithmeticError, match=r"placement 1 is not non-increasing: \(6, 6, 6, 3, 4, 4, 4\)"):
        verify_fnk_ordering(7, 3)
    _patch_blocks(monkeypatch, lambda head, resid, tail: (head, resid[:2] + [4], tail))
    with pytest.raises(ArithmeticError, match=r"placement 2 is not non-increasing: \(6, 6, 6, 3, 3, 3, 4\)"):
        verify_fnk_ordering(7, 3)
