import random

import pytest
from hypothesis import given, strategies as st

from stlab.digraph import build_digraph, digon_count, permute
from stlab.families import gen_bk, gen_complete_digraph, gen_fnk, gen_transitive_tournament
from stlab.invariants import (
    c2,
    first_zagreb,
    laplacian_energy,
    laplacian_matrix,
    measure,
    trace_L_squared,
)

from conftest import digraph_from_mask, enumerate_digraphs, random_digraph

DIGON = build_digraph(2, [(0, 1), (1, 0)])


def test_c2_examples():
    assert c2(DIGON) == 2
    assert c2(gen_complete_digraph(3)) == 6
    assert c2(gen_transitive_tournament(4)) == 0


def test_first_zagreb_examples():
    assert first_zagreb(gen_transitive_tournament(4)) == 14
    assert first_zagreb(gen_fnk(4, 2)) == 20
    assert first_zagreb(build_digraph(3, [])) == 0


def test_laplacian_energy_examples():
    assert laplacian_energy(DIGON) == 4
    assert laplacian_energy(gen_complete_digraph(3)) == 18
    assert laplacian_energy(gen_fnk(4, 2)) == 24


def test_laplacian_matrix_shape():
    lap = laplacian_matrix(build_digraph(2, [(0, 1)]))
    assert lap == [[1, -1], [0, 0]]
    for g in (DIGON, gen_fnk(5, 2, 3), gen_complete_digraph(4)):
        for row in laplacian_matrix(g):
            assert sum(row) == 0


def test_trace_examples():
    assert trace_L_squared(DIGON) == 4
    assert trace_L_squared(build_digraph(2, [(0, 1)])) == 1
    assert trace_L_squared(gen_complete_digraph(3)) == 18


def test_trace_identity_exhaustive_small():
    for n in (1, 2, 3):
        for g in enumerate_digraphs(n):
            assert laplacian_energy(g) == trace_L_squared(g)


def test_trace_identity_random():
    rng = random.Random(20260808)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
        assert laplacian_energy(g) == trace_L_squared(g)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.integers(0, (1 << (n * (n - 1))) - 1).map(lambda m: digraph_from_mask(n, m)),
            st.permutations(list(range(n))),
        )
    )
)
def test_isomorphism_invariance(pair):
    g, perm = pair
    h = permute(g, perm)
    assert laplacian_energy(h) == laplacian_energy(g)
    assert first_zagreb(h) == first_zagreb(g)
    assert c2(h) == c2(g)


def test_c2_against_matrix_squaring_at_every_width():
    # n = 1..64 covers every transpose width of digon_count (1, 2, ..., 64)
    # and the ragged n < width cases; the block families are dense in digons.
    rng = random.Random(20261018)
    inputs = [random_digraph(rng, n, rng.choice((0.1, 0.5, 0.9))) for n in range(1, 65)]
    inputs += [gen_fnk(63, 5, 3), gen_fnk(64, 5, 2), gen_bk([4] * 15 + [3]), gen_bk([4] * 16)]
    inputs += [gen_complete_digraph(63), gen_complete_digraph(64)]
    for g in inputs:
        assert c2(g) == trace_L_squared(g) - first_zagreb(g)


def test_energy_minus_zagreb_is_even():
    rng = random.Random(11)
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 8))
        gap = laplacian_energy(g) - first_zagreb(g)
        assert gap == 2 * digon_count(g)
        assert gap % 2 == 0


def test_arc_addition_monotonicity():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_digraph(rng, n, 0.4)
        absent = [(u, v) for u in range(n) for v in range(n) if u != v and not g.has_arc(u, v)]
        if not absent:
            continue
        u, v = rng.choice(absent)
        bigger = build_digraph(n, list(g.arcs()) + [(u, v)])
        assert first_zagreb(bigger) > first_zagreb(g)
        if g.has_arc(v, u):
            assert c2(bigger) == c2(g) + 2
        else:
            assert c2(bigger) == c2(g)


def test_measure_bundle():
    bundle = measure(gen_fnk(5, 2, 3))
    assert (bundle.le, bundle.m1, bundle.c2, bundle.e) == (44, 40, 4, 12)
    assert bundle.degseq == (4, 4, 2, 2, 0)


def test_bundle_validates_identity():
    from stlab.invariants import InvariantBundle

    good = measure(DIGON)
    with pytest.raises(ValueError, match="even"):
        InvariantBundle(m1=3, c2=1, e=2, degseq=good.degseq)
