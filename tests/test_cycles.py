import itertools
import random
import time
from math import gcd
from pathlib import Path

import pytest

import stlab.cycles as cycles
from stlab.cycles import _period_divides, _strong_components, find_cycle_of_length, is_ck_free, path_ends
from stlab.digraph import Digraph, _iter_bits, _reach_layers, build_digraph, digon_count, in_rows, permute
from stlab.families import gen_bk, gen_complete_digraph, gen_fnk, gen_transitive_tournament
from stlab.serialize import parse_arclist

from conftest import enumerate_digraphs, naive_find_cycle, random_digraph

DIGON = build_digraph(2, [(0, 1), (1, 0)])
SPARSE_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "sparse32-149arcs.arclist"


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
        for arcs in range(g.n + 3):  # no simple path has n arcs or more
            want = [0] * g.n
            for seq in itertools.permutations(range(g.n), arcs + 1):
                if all(g.has_arc(u, v) for u, v in zip(seq, seq[1:])):
                    want[seq[0]] |= 1 << seq[-1]
            assert path_ends(g, arcs) == want, (g, arcs)
    with pytest.raises(ValueError, match="path length"):
        path_ends(DIGON, -1)


def test_path_ends_cost_does_not_grow_with_the_arc_count():
    # Growing one empty layer per arc took seconds here at 10**7 arcs.
    start = time.perf_counter()
    assert path_ends(gen_complete_digraph(3), 10**7) == [0, 0, 0]
    assert time.perf_counter() - start < 0.5


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


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def naive_strong_components(g):
    """Mutual-reachability classes by per-vertex graph search, ordered by least vertex."""
    reach = []
    for s in range(g.n):
        seen, stack = {s}, [s]
        while stack:
            for w in g.out_neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    comps, assigned = [], set()
    for v in range(g.n):
        if v not in assigned:
            comp = {u for u in reach[v] if v in reach[u]}
            assigned |= comp
            comps.append(sum(1 << u for u in comp))
    return comps


def test_strong_components_match_mutual_reachability():
    rng = random.Random(73)
    inputs = [random_digraph(rng, rng.randint(1, 64), p) for p in (0.02, 0.05, 0.1, 0.3, 0.6, 0.9) for _ in range(5)]
    # Chains have many components, each found after the earlier ones are assigned.
    for n in (1, 7, 32, 64):
        inputs.append(gen_transitive_tournament(n))
        inputs.append(gen_fnk(n, 3, n // 3 + 1 if n % 3 else None))
        inputs.append(gen_bk([2] * (n // 2) + [1] * (n % 2)))
    for g in inputs:
        g = relabelled(g, rng)
        assert [layers[-1] for layers in _strong_components(g, in_rows(g))] == naive_strong_components(g), g


def reversed_labels(g):
    return permute(g, range(g.n - 1, -1, -1))


class CountingRows(tuple):
    """Out-rows that count their reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class CountingInRows:
    """In-rows that count the reads of each entry."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = [0] * len(rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        self.reads[index] += 1
        return self.rows[index]


@pytest.mark.parametrize(
    "chain",
    [
        gen_transitive_tournament(64),
        gen_fnk(64, 2),
        gen_fnk(64, 3, 22),
        gen_fnk(64, 5, 1),
        gen_bk([2] * 32),
        gen_bk([4] * 16),
    ],
    ids=["tt", "fnk-k2", "fnk-k3", "fnk-k5", "bk-2s", "bk-4s"],
)
def test_strong_components_do_linear_work(chain):
    rng = random.Random(83)
    # With the blocks in reverse label order the search finishes the least
    # vertex's component last, so only the ordering by least vertex puts it first.
    for g in (chain, reversed_labels(chain), relabelled(chain, rng)):
        rows = CountingRows(g.rows)
        into = CountingInRows(in_rows(g))
        comps = _strong_components(Digraph(g.n, rows), into)
        assert [layers[-1] for layers in comps] == naive_strong_components(g)
        assert into.reads == [1] * g.n
        assert 0 < rows.reads <= 2 * g.n


def naive_return_distances(g, anchor, allowed):
    """Arc count of the shortest path from each allowed vertex to the anchor inside ``allowed``, by BFS per vertex."""
    dist = {anchor: 0}
    for u in range(g.n):
        if u == anchor or not allowed >> u & 1:
            continue
        seen, frontier, steps = {u}, [u], 0
        while frontier and u not in dist:
            steps += 1
            ahead = []
            for x in frontier:
                for w in g.out_neighbors(x):
                    if w == anchor:
                        dist[u] = steps
                    elif allowed >> w & 1 and w not in seen:
                        seen.add(w)
                        ahead.append(w)
            frontier = ahead
    return dist


def test_reach_layers_match_per_vertex_distances():
    rng = random.Random(89)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_digraph(rng, n, rng.choice((0.1, 0.2, 0.4, 0.7)))
        anchor, allowed = rng.randrange(n), rng.getrandbits(n)
        into = in_rows(g)
        layers = _reach_layers(into, anchor, allowed)
        dist = naive_return_distances(g, anchor, allowed)
        assert max(dist.values()) == len(layers) - 1
        for d, layer in enumerate(layers):
            assert layer == sum(1 << u for u, du in dist.items() if du <= d), (g, anchor, allowed, d)


def induced(g, members):
    index = {u: i for i, u in enumerate(members)}
    return build_digraph(len(members), [(index[u], index[w]) for u in members for w in g.out_neighbors(u) if w in index])


def test_period_cut_keeps_exactly_the_components_whose_period_divides_the_length():
    rng = random.Random(97)
    inputs = [g for n in range(1, 5) for g in enumerate_digraphs(n)]
    for n in range(5, 10):
        for p in (1, 2, 3):
            # Arcs only from class i to class i + 1 mod p, so each cycle length is a multiple of p.
            classes = [rng.randrange(p) for _ in range(n)]
            for _ in range(4):
                g = random_digraph(rng, n, rng.choice((0.25, 0.4, 0.6)))
                inputs.append(build_digraph(n, [(u, w) for u, w in g.arcs() if classes[w] == (classes[u] + 1) % p]))
    for g in inputs:
        into = in_rows(g)
        for layers in _strong_components(g, into):
            sub = induced(g, list(_iter_bits(layers[-1])))
            period = 0  # gcd of the component's cycle lengths; 0 when it has none
            for length in range(2, sub.n + 1):
                if naive_find_cycle(sub, length) is not None:
                    period = gcd(period, length)
            for length in range(2, g.n + 1):
                kept = period != 0 and length % period == 0
                assert _period_divides(into, layers, length) == kept, (g, layers, length)


def test_odd_lengths_on_bipartite_blocks_skip_the_search():
    # Every gen_bk block has period 2, so the DFS never starts at an odd length.
    # Searching every odd path in the blocks took about 3.4 s and more than 310 s.
    for parts, length in (([16] * 4, 9), ([20, 20, 20], 11)):
        g = gen_bk(parts)
        start = time.perf_counter()
        assert find_cycle_of_length(g, length) is None
        assert time.perf_counter() - start < 0.5, (parts, length)


def test_free_components_larger_than_the_length():
    # Every strong component holds 8 vertices, so the size check skips none
    # below L = 9; the period check skips all of them at each odd length.
    g = gen_bk([8] * 8)
    for length in range(2, 10):
        witness = find_cycle_of_length(g, length)
        if length % 2:
            assert witness is None, length
        else:
            assert_valid_witness(g, witness, length)
    # Both arc directions between 5 and 2 vertices: 7 vertices pass the size
    # check and period 2 divides 6, but the longest cycle has 4 arcs, so only
    # the search, run to the end, finds no C6.
    g = build_digraph(7, [arc for u in range(5) for w in (5, 6) for arc in ((u, w), (w, u))])
    assert find_cycle_of_length(g, 6) is None
    assert_valid_witness(g, find_cycle_of_length(g, 4), 4)


def test_detector_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(79)
    for n in range(5, 11):
        for _ in range(8):
            g = random_digraph(rng, n, rng.choice((0.15, 0.25, 0.35)))
            graph = nx.DiGraph()
            graph.add_nodes_from(range(g.n))
            graph.add_edges_from(g.arcs())
            for length in range(2, n + 1):
                expected = any(len(c) == length for c in nx.simple_cycles(graph, length_bound=length))
                assert (find_cycle_of_length(g, length) is not None) == expected, (g, length)


def pinned_input(kind, n, seed, length):
    rng = random.Random(seed)
    if kind == "fnk":
        g = gen_fnk(n, length, rng.randint(1, n // length + 1))
    elif kind == "bk":
        g = gen_bk([length] * (n // length))
    else:  # a dense random digraph with a planted cycle of the length
        g = random_digraph(rng, n, 0.75)
        cycle = rng.sample(range(n), length)
        rows = list(g.rows)
        for i, u in enumerate(cycle):
            rows[u] |= 1 << cycle[(i + 1) % length]
        g = Digraph(n, tuple(rows))
    return relabelled(g, rng)


# `stlab free` prints these arcs, so the DFS order that picks them is part of its output.
@pytest.mark.parametrize(
    "kind, n, seed, length, witness",
    [
        ("fnk", 32, 1, 5, (0, 13, 23, 25, 29)),
        ("fnk", 64, 2, 7, (0, 4, 31, 45, 46, 50, 63)),
        ("bk", 64, 3, 8, (0, 4, 16, 40, 35, 57, 56, 62)),
        ("planted", 32, 4, 16, (0, 1, 2, 3, 5, 7, 4, 6, 12, 8, 9, 10, 11, 13, 14, 15)),
        (
            "planted", 32, 5, 32,
            (0, 2, 3, 1, 5, 4, 6, 7, 8, 10, 11, 13, 15, 12, 9, 14, 16, 17, 18, 19, 20, 22, 21, 25, 23, 24, 26, 27, 28, 29, 30, 31),
        ),
        ("planted", 64, 6, 6, (0, 2, 1, 3, 4, 5)),
        ("planted", 64, 7, 24, (0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 10, 9, 12, 13, 11, 16, 14, 18, 17, 19, 23, 20, 22, 25)),
    ],
)
def test_witnesses_are_pinned(kind, n, seed, length, witness):
    assert find_cycle_of_length(pinned_input(kind, n, seed, length), length).vertices == witness


def sparse32(i):
    """Draw i of 30 random n = 32 digraphs, densities 0.1 + 0.4 i / 29, drawn in order from random.Random(15)."""
    rng = random.Random(15)
    for j in range(i + 1):
        g = random_digraph(rng, 32, 0.1 + 0.4 * j / 29)
    return g


def test_sparse_fixture_is_draw_3():
    assert parse_arclist(SPARSE_FIXTURE.read_text()) == sparse32(3)


# Without the reach cut these searches took 13.5, 5.2 and 4.9 s on a 2-vCPU VM, each
# deep in subtrees whose free vertices cannot close the cycle; with it, under 0.5 s.
@pytest.mark.time_bound(2)
@pytest.mark.parametrize(
    "i, length, witness",
    [
        (
            3, 32,
            (0, 4, 8, 9, 2, 10, 6, 5, 15, 14, 25, 1, 20, 27, 7, 26, 16, 13, 19, 3, 22, 17, 11, 28, 21, 30, 31, 12, 24, 18, 29, 23),
        ),
        (
            4, 31,
            (0, 1, 8, 2, 29, 15, 22, 27, 5, 11, 26, 23, 12, 20, 13, 9, 28, 3, 4, 16, 25, 30, 7, 10, 21, 6, 19, 31, 18, 14, 24),
        ),
        (
            6, 32,
            (0, 4, 2, 1, 5, 7, 13, 3, 10, 12, 14, 9, 18, 16, 17, 24, 25, 15, 22, 23, 20, 28, 19, 11, 30, 26, 31, 27, 29, 21, 6, 8),
        ),
    ],
)
def test_sparse_searches_cut_dead_ends(i, length, witness):
    g = parse_arclist(SPARSE_FIXTURE.read_text()) if i == 3 else sparse32(i)
    assert find_cycle_of_length(g, length).vertices == witness


def test_reach_cut_waits_for_a_dead_end(monkeypatch):
    # K64's first path closes, so only the component pass and the anchor's
    # return-distance BFS run a BFS: the cut never does.
    calls = []

    def counted(rows, start, within):
        calls.append(start)
        return _reach_layers(rows, start, within)

    monkeypatch.setattr(cycles, "_reach_layers", counted)
    assert find_cycle_of_length(gen_complete_digraph(64), 64).vertices == tuple(range(64))
    assert len(calls) == 2
