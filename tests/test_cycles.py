import itertools
import random

import pytest

from stlab.cycles import find_cycle_of_length, is_ck_free, path_ends
from stlab.digraph import Digraph, build_digraph, digon_count, permute
from stlab.families import gen_bk, gen_complete_digraph, gen_fnk, gen_transitive_tournament
from stlab.search import enumerate_digraphs

from conftest import naive_find_cycle, random_digraph

DIGON = build_digraph(2, [(0, 1), (1, 0)])


def assert_valid_witness(g, witness, length):
    seq = witness.vertices
    assert len(seq) == length
    assert len(set(seq)) == length
    for u, v in witness.arcs():
        assert g.has_arc(u, v)


def test_complete_digraph_has_all_lengths():
    g = gen_complete_digraph(3)
    witness = find_cycle_of_length(g, 3)
    assert witness is not None
    assert_valid_witness(g, witness, 3)


def test_transitive_tournament_is_acyclic():
    assert find_cycle_of_length(gen_transitive_tournament(5), 3) is None


def test_family_member_has_no_long_cycle():
    assert find_cycle_of_length(gen_fnk(4, 3, 2), 4) is None
    assert is_ck_free(gen_fnk(5, 3, 1), 4)


def test_digon_is_a_2_cycle():
    assert not is_ck_free(DIGON, 2)


def test_bipartite_block_has_no_odd_cycle():
    assert is_ck_free(gen_bk([4]), 3)


def test_length_range_errors():
    with pytest.raises(ValueError, match="cycle length"):
        find_cycle_of_length(DIGON, 1)
    # no cycle longer than n fits, so the digraph is vacuously free
    assert find_cycle_of_length(DIGON, 3) is None
    assert is_ck_free(gen_complete_digraph(4), 5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_detector_agrees_with_naive_exhaustively(n):
    for g in enumerate_digraphs(n):
        for length in range(2, n + 1):
            found = find_cycle_of_length(g, length)
            assert (found is not None) == (naive_find_cycle(g, length) is not None)
            if found is not None:
                assert_valid_witness(g, found, length)


def test_detection_is_isomorphism_invariant():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 7)
        g = random_digraph(rng, n, rng.choice((0.3, 0.6)))
        perm = list(range(n))
        rng.shuffle(perm)
        h = permute(g, perm)
        for length in range(2, n + 1):
            assert is_ck_free(g, length) == is_ck_free(h, length)


def test_freeness_at_length_two_is_digonlessness():
    for g in enumerate_digraphs(3):
        assert is_ck_free(g, 2) == (digon_count(g) == 0)


def test_family_freeness_small():
    for k in (3, 4):
        for n in range(2, 10):
            q, r = divmod(n, k)
            positions = range(1, q + 2) if r else (None,)
            for pos in positions:
                g = gen_fnk(n, k, pos)
                if k + 1 <= n:
                    assert is_ck_free(g, k + 1)
    for parts in ([4], [2, 3], [2, 2, 1], [4, 2], [4, 4, 3]):
        if sum(parts) >= 3:
            assert is_ck_free(gen_bk(parts), 3)
    for n in range(2, 10):
        assert is_ck_free(gen_transitive_tournament(n), 2)


def test_path_ends_against_every_vertex_sequence():
    rng = random.Random(67)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(1, 6), rng.choice((0.3, 0.6, 0.9)))
        for arcs in range(g.n + 1):
            want = [0] * g.n
            for seq in itertools.permutations(range(g.n), arcs + 1):
                if all(g.has_arc(u, v) for u, v in zip(seq, seq[1:])):
                    want[seq[0]] |= 1 << seq[-1]
            assert path_ends(g, arcs) == want, (g, arcs)
    with pytest.raises(ValueError, match="path length"):
        path_ends(DIGON, -1)


def test_path_ends_decide_extension_freeness():
    # A new vertex with out-set O and in-set I keeps a C_L-free digraph free
    # iff no simple path of L - 2 arcs runs from O to I.
    rng = random.Random(71)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        length = rng.randint(2, n + 2)
        g = random_digraph(rng, n, rng.choice((0.2, 0.4, 0.6)))
        if find_cycle_of_length(g, length) is not None:
            continue
        out, into = rng.getrandbits(n), rng.getrandbits(n)
        ends = path_ends(g, length - 2)
        closes = any(out >> u & 1 and ends[u] & into for u in range(n))
        h = Digraph(n + 1, tuple(row | (into >> u & 1) << n for u, row in enumerate(g.rows)) + (out,))
        assert (find_cycle_of_length(h, length) is not None) == closes, (g, out, into, length)
        verdicts.add(closes)
    assert verdicts == {True, False}
