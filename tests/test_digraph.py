import random

import pytest
from hypothesis import given, strategies as st

import stlab.digraph as digraph
from stlab.digraph import (
    Digraph,
    build_digraph,
    digon_count,
    in_rows,
    is_weakly_connected,
    out_degree_sequence,
    permute,
)
from stlab.families import gen_fnk, gen_transitive_tournament

from conftest import digraph_from_mask, enumerate_digraphs, random_digraph


def masked_digraphs(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << (n * (n - 1))) - 1).map(
            lambda m: digraph_from_mask(n, m)
        )
    )


class TestBuild:
    def test_digon(self):
        g = build_digraph(2, [(0, 1), (1, 0)])
        assert g.e == 2
        assert g.has_arc(0, 1) and g.has_arc(1, 0)

    def test_empty(self):
        g = build_digraph(3, [])
        assert g.e == 0

    def test_duplicates_are_idempotent(self):
        g = build_digraph(2, [(0, 1), (0, 1)])
        assert g.e == 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            build_digraph(2, [(0, 0)])

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            build_digraph(2, [(0, 2)])

    def test_capacity(self):
        with pytest.raises(ValueError, match="vertex count"):
            build_digraph(0, [])
        with pytest.raises(ValueError, match="vertex count"):
            build_digraph(65, [])
        build_digraph(64, [(0, 63)])  # boundary is fine

    def test_rows_validated(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph(2, (1, 0))  # bit 0 of row 0 is the loop (0, 0)

    def test_list_rows_are_stored_as_a_tuple(self):
        listed = Digraph(2, [2, 1])
        assert type(listed.rows) is tuple
        assert listed == Digraph(2, (2, 1)) and hash(listed) == hash(Digraph(2, (2, 1)))
        rows = (2, 1)
        assert Digraph(2, rows).rows is rows

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (lambda n, u: -1, "row {u} addresses vertices >= n={n}"),
            (lambda n, u: 1 << n, "row {u} addresses vertices >= n={n}"),
            (lambda n, u: 1 << u, r"loop arc \({u}, {u}\)"),
        ],
        ids=["negative", "bit-n", "loop"],
    )
    def test_each_rejection_names_the_row(self, n, bad, message):
        # The bad row is the first or the last; every other row passes.
        for u in {0, n - 1}:
            rows = [0] * n
            rows[u] = bad(n, u)
            with pytest.raises(ValueError, match=message.format(n=n, u=u)):
                Digraph(n, tuple(rows))


class TestStructure:
    def test_degree_sequence_transitive_tournament(self):
        assert out_degree_sequence(gen_transitive_tournament(4)) == (3, 2, 1, 0)

    def test_degree_sequence_residual_last(self):
        assert out_degree_sequence(gen_fnk(5, 2, 3)) == (4, 4, 2, 2, 0)

    def test_degree_sequence_residual_middle(self):
        assert out_degree_sequence(gen_fnk(5, 3, 2)) == (4, 4, 4, 1, 1)

    def test_digon_count(self):
        assert digon_count(build_digraph(2, [(0, 1), (1, 0)])) == 1
        assert digon_count(gen_transitive_tournament(5)) == 0
        assert digon_count(build_digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])) == 3

    def test_weak_connectivity(self):
        assert not is_weakly_connected(build_digraph(3, [(0, 1), (1, 0)]))
        assert is_weakly_connected(gen_transitive_tournament(3))
        assert is_weakly_connected(build_digraph(1, []))

    def test_permute_identity_and_swap(self):
        digon = build_digraph(2, [(0, 1), (1, 0)])
        assert permute(digon, (0, 1)) == digon
        assert permute(digon, (1, 0)) == digon

    def test_permute_relabels(self):
        g = build_digraph(3, [(0, 1)])
        assert permute(g, (1, 2, 0)) == build_digraph(3, [(1, 2)])

    def test_permute_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            permute(build_digraph(2, []), (0, 0))

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 32, 33, 64])
    def test_permute_matches_per_arc_relabelling(self, n):
        # Orders at and just past each transpose width (8, 16, 32, 64 bits).
        rng = random.Random(n)
        for density in (0.05, 0.3, 0.5, 0.7, 0.95):
            for _ in range(4):
                g = random_digraph(rng, n, density)
                perm = rng.sample(range(n), n)
                assert permute(g, perm) == build_digraph(n, [(perm[u], perm[v]) for u, v in g.arcs()])


@given(masked_digraphs())
def test_degree_sums_match_arc_count(g):
    assert sum(g.out_degree(u) for u in range(g.n)) == g.e
    assert sum(g.in_degree(v) for v in range(g.n)) == g.e
    assert 2 * digon_count(g) <= g.e


@given(masked_digraphs(), st.randoms(use_true_random=False))
def test_permute_preserves_invariants(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = permute(g, perm)
    assert h.e == g.e
    assert digon_count(h) == digon_count(g)
    assert out_degree_sequence(h) == out_degree_sequence(g)


def test_ordering_is_by_n_then_rows():
    small = build_digraph(2, [(0, 1)])
    large = build_digraph(3, [])
    assert small < large
    assert build_digraph(2, []) < small


def test_random_digraph_helper_is_seeded():
    a = random_digraph(random.Random(7), 6)
    b = random_digraph(random.Random(7), 6)
    assert a == b


def naive_in_rows(g):
    return tuple(sum(1 << u for u in range(g.n) if g.has_arc(u, v)) for v in range(g.n))


def test_in_rows_is_the_transpose_exhaustively():
    for n in range(1, 5):
        for g in enumerate_digraphs(n):
            assert in_rows(g) == naive_in_rows(g), g


def naive_digon_count(g):
    return sum(g.has_arc(u, v) and g.has_arc(v, u) for u in range(g.n) for v in range(u))


@pytest.mark.parametrize("n", range(1, 65))
def test_in_rows_is_the_transpose_at_every_width(n):
    # Every n covers every packed stride (8, 16, 32 and 64 bits, so bytes and
    # every array typecode) and every transpose size, ragged or not; digon_count
    # shares the packed transpose.
    rng = random.Random(n)
    for p in (0.1, 0.5, 0.9):
        g = random_digraph(rng, n, p)
        assert in_rows(g) == naive_in_rows(g), (n, p)
        assert digon_count(g) == naive_digon_count(g), (n, p)


def test_swap_rounds_are_built_once_per_size():
    # The block-swap masks depend on the power-of-two size alone, so n = 33..64 share one tuple.
    for n in range(1, 65):
        digraph._transpose_layout(n)
    assert digraph._transpose_layout(33)[1] is digraph._transpose_layout(64)[1]
    assert digraph._transpose_layout(9)[1] is not digraph._transpose_layout(8)[1]
    assert digraph._swap_rounds.cache_info().currsize <= 7
