import random

import pytest
from hypothesis import given, strategies as st

from stlab import majorization
from stlab.digraph import out_degree_sequence
from stlab.families import (
    enumerate_fnk_members,
    fnk_placement_arcs,
    fnk_placement_ends,
    gen_fnk,
    gen_transitive_tournament,
)
from stlab.invariants import laplacian_energy
from stlab.majorization import (
    KaramataVerdict,
    fnk_placement_energies,
    fnk_residual_last_energy,
    karamata_square_check,
    majorizes,
    verify_fnk_ordering,
)

from conftest import fnk_placement_degrees


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
    assert majorizes((3, 2, 1, 0), (2, 2, 1, 1))
    assert not majorizes((2, 2, 2), (3, 2, 1))
    assert majorizes((4, 1), (4, 1))


def naive_majorizes(x, y):
    sx = sy = 0
    for a, b in zip(x, y):
        sx += a
        sy += b
        if sx < sy:
            return False
    return sx == sy


def test_agrees_with_prefix_sum_loop():
    rng = random.Random(20261018)
    for _ in range(500):
        length = rng.randint(1, 12)
        x = sorted((rng.randint(0, 6) for _ in range(length)), reverse=True)
        y = sorted((rng.randint(0, 6) for _ in range(length)), reverse=True)
        if rng.random() < 0.5 and y[-1] >= sum(y) - sum(x):  # equal totals: the prefixes decide
            y[-1] += sum(x) - sum(y)
            y.sort(reverse=True)
        assert majorizes(x, y) == naive_majorizes(x, y), (x, y)


def test_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        majorizes((2, 1), (2, 1, 0))
    with pytest.raises(ValueError, match="length"):
        karamata_square_check((2, 1), (2, 1, 0))


def test_unsorted_rejected():
    with pytest.raises(ValueError, match="non-increasing"):
        majorizes((1, 2), (2, 1))


def test_karamata_examples():
    assert karamata_square_check((3, 2, 1, 0), (2, 2, 1, 1)) is KaramataVerdict.HOLDS_STRICT
    assert karamata_square_check((4, 1), (4, 1)) is KaramataVerdict.HOLDS_EQUAL
    assert karamata_square_check((2, 2, 2), (3, 2, 1)) is KaramataVerdict.NOT_APPLICABLE


@given(sorted_seqs())
def test_reflexive(x):
    assert majorizes(x, x)


@given(transfer_pairs())
def test_transfers_majorize(pair):
    x, y = pair
    assert majorizes(x, y)


@given(transfer_pairs())
def test_antisymmetric(pair):
    x, y = pair
    if majorizes(y, x):
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
    assert majorizes(y, z)
    assert majorizes(x, z)


@given(transfer_pairs())
def test_karamata_square_is_strict(pair):
    x, y = pair
    verdict = karamata_square_check(x, y)
    if x == y:
        assert verdict is KaramataVerdict.HOLDS_EQUAL
    else:
        assert verdict is KaramataVerdict.HOLDS_STRICT
        assert sum(a * a for a in x) > sum(b * b for b in y)


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
    # energies, arcs and ordering check against the built members, the spliced outdegree
    # sequences against the block-by-block reference, and the public majorizes on every
    # consecutive pair of built sequences.
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
            head, tail, cuts = fnk_placement_ends(n, k)
            assert [tuple(head[:c] + tail[c:]) for c in cuts] == seqs == fnk_placement_degrees(n, k), (n, k)
            assert all(map(majorizes, seqs[1:], seqs)), (n, k)
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


def _patch_ends(monkeypatch, edit):
    """Hand verify_fnk_ordering F(7, 3)'s (head, tail, cuts) after edit(head, tail)."""
    head, tail, cuts = fnk_placement_ends(7, 3)
    monkeypatch.setattr(majorization, "fnk_placement_ends", lambda n, k: (*edit(head, tail), cuts))


def test_ordering_reports_majorization_violation(monkeypatch):
    # A smaller sum in placement 0's tail window [1, 4): the totals disagree, while
    # every placement stays non-increasing and the energies still increase.
    _patch_ends(monkeypatch, lambda head, tail: (head, tail[:3] + [4] + tail[4:]))
    with pytest.raises(ArithmeticError, match="majorization violated at n=7, k=3: placement 1"):
        verify_fnk_ordering(7, 3)
    # Equal totals, but placement 0's prefix sums pass placement 1's inside the window [1, 5).
    head, tail = [9, 7, 7, 4, 3, 3, 2, 1, 0], [9, 8, 5, 4, 4, 3, 1, 1, 1]
    monkeypatch.setattr(majorization, "fnk_placement_ends", lambda n, k: (head, tail, range(1, 10, 4)))
    with pytest.raises(ArithmeticError, match="majorization violated at n=9, k=4: placement 1"):
        verify_fnk_ordering(9, 4)


def test_ordering_reports_energy_violation(monkeypatch):
    # Swapped ends run the placements backwards: residual last first.
    _patch_ends(monkeypatch, lambda head, tail: (tail, head))
    with pytest.raises(ArithmeticError, match="energy ordering violated at n=7, k=3"):
        verify_fnk_ordering(7, 3)


def test_ordering_reports_non_increasing_violation(monkeypatch):
    # Each placement is head[:c] + tail[c:]: a rise in tail shows first in placement 0,
    # a rise in head first in the earliest placement whose cut passes it, and a rise at a
    # cut in that placement alone.
    _patch_ends(monkeypatch, lambda head, tail: (head, tail[::-1]))
    with pytest.raises(ArithmeticError, match=r"placement 0 is not non-increasing: \(6, 2, 2, 5, 5, 5, 6\)"):
        verify_fnk_ordering(7, 3)
    _patch_ends(monkeypatch, lambda head, tail: ([5] + head[1:], tail))
    with pytest.raises(ArithmeticError, match=r"placement 1 is not non-increasing: \(5, 6, 6, 3, 2, 2, 2\)"):
        verify_fnk_ordering(7, 3)
    _patch_ends(monkeypatch, lambda head, tail: (head, tail[:4] + [4, 4, 4]))
    with pytest.raises(ArithmeticError, match=r"placement 1 is not non-increasing: \(6, 6, 6, 3, 4, 4, 4\)"):
        verify_fnk_ordering(7, 3)
