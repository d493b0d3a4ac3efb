import functools
import hashlib
import itertools
import random
import struct
from pathlib import Path

import pytest

from stlab.cycles import is_ck_free
from stlab.digraph import Digraph, _relabelled_rows, build_digraph, in_rows, is_weakly_connected, permute
from stlab.families import (
    bk01_compositions,
    enumerate_bk01_members,
    enumerate_fnk_members,
    gen_bk,
    gen_complete_digraph,
    gen_fnk,
    gen_transitive_tournament,
)
from stlab.cli import main
from stlab.invariants import c2, first_zagreb, laplacian_energy
import stlab.claims as claims
import stlab.search as search
import stlab.serialize as serialize
from stlab.search import (
    ISO_CAP,
    OBJECTIVES,
    SCOPES,
    CanonicalForm,
    _deletion_keys,
    _refine_colors,
    _threshold_below,
    are_isomorphic,
    canonical_label,
    search_extremal,
)
from stlab.serialize import dumps, report_json

from conftest import digraph_from_mask, enumerate_digraphs, random_digraph

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
DIGON = build_digraph(2, [(0, 1), (1, 0)])
MEASURES = {"LE": laplacian_energy, "M1": first_zagreb, "ARCS": lambda g: g.e}


def _circulant(n, steps):
    return build_digraph(n, [(u, (u + s) % n) for u in range(n) for s in steps])


def _union(g, h):
    return Digraph(g.n + h.n, g.rows + tuple(row << g.n for row in h.rows))


def _sources_on_unequal_cycles():
    """Sources 8 -> C4 and 9 -> two digons, with every cycle vertex -> the sinks 10..13.

    The sources share their (empty) in-rows and their colour, and the sinks
    make them the first cell the search branches on, but no automorphism
    swaps them: taking them for twins would search one of them only.
    """
    arcs = [(u, (u + 1) % 4) for u in range(4)] + [(4, 5), (5, 4), (6, 7), (7, 6)]
    arcs += [(8, v) for v in range(4)] + [(9, v) for v in range(4, 8)]
    return build_digraph(14, arcs + [(u, sink) for u in range(8) for sink in range(10, 14)])


def _relabelled(g, rng):
    return permute(g, rng.sample(range(g.n), g.n))


def _blowup(rng, n):
    """A relabelled blow-up on n vertices: parts of 1-3 twins, each part complete or empty, random arcs across."""
    owner = []
    while len(owner) < n:
        owner += [len(set(owner))] * rng.randint(1, min(3, n - len(owner)))
    parts = owner[-1] + 1
    inside = [rng.random() < 0.5 for _ in range(parts)]
    across = [[rng.random() < 0.5 for _ in range(parts)] for _ in range(parts)]
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    kept = [(u, v) for u, v in arcs if (inside[owner[u]] if owner[u] == owner[v] else across[owner[u]][owner[v]])]
    return _relabelled(build_digraph(n, kept), rng)


def _relabel_by_arcs(g, perm):
    """Arc (u, v) becomes (perm[u], perm[v]), one arc at a time: the reference for permute."""
    return build_digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs()])


def _reference_refine_colors(g):
    """Colour refinement by sorted neighbour-colour tuples, the form the packed kernel replaces.

    Keys start at (outdegree, indegree); each round re-keys a vertex by
    (colour, sorted out-neighbour colours, sorted in-neighbour colours) and
    ranks the distinct keys, until the class count stops growing or every
    class is a single vertex.
    """
    keys = [(g.out_degree(v), g.in_degree(v)) for v in range(g.n)]
    distinct = 0
    while True:
        ranking = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        if len(ranking) in (distinct, g.n):
            return colors
        distinct = len(ranking)
        keys = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in g.out_neighbors(v))),
                tuple(sorted(colors[w] for w in g.in_neighbors(v))),
            )
            for v in range(g.n)
        ]


def _reference_canonical_bytes(g):
    """Canonical bytes by trying every relabelling compatible with colour refinement.

    Classes of the reference refinement take consecutive positions in colour
    order.
    """
    colors = _reference_refine_colors(g)
    classes = [[v for v in range(g.n) if colors[v] == c] for c in range(max(colors) + 1)]
    best = None
    for pick in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [v for block in pick for v in block]
        rows = _relabel_by_arcs(g, [order.index(v) for v in range(g.n)]).rows
        if best is None or rows < best:
            best = rows
    return bytes([g.n]) + b"".join(row.to_bytes(2, "big") for row in best)


def _label_corpus():
    """Seeded digraphs whose canonical bytes are pinned by one sha256.

    Ten random digraphs per order n = 1..10 and density 0.05..0.95, then per
    order K_n, the empty digraph, the transitive tournament, circulants and the
    bk01 members, each also relabelled through the per-arc reference.
    """
    rng = random.Random(1907)
    corpus = []
    for n in range(1, 11):
        for density in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95):
            corpus += [random_digraph(rng, n, density) for _ in range(10)]
        structured = [gen_complete_digraph(n), build_digraph(n, []), gen_transitive_tournament(n)]
        structured += [_circulant(n, steps) for steps in ((1,), (1, 2), (1, 3), (2, 5)) if max(steps) < n]
        structured += enumerate_bk01_members(n)
        corpus += structured
        corpus += [_relabel_by_arcs(g, rng.sample(range(n), n)) for g in structured]
    return corpus


def _reference_scan(n):
    """Plain per-mask sweep: every (L, objective, scope) result over all digraphs on n vertices."""
    rows = []
    for mask in range(1 << (n * (n - 1))):
        g = digraph_from_mask(n, mask)
        free = {length: is_ck_free(g, length) for length in range(2, n + 2)}
        values = {"LE": laplacian_energy(g), "M1": first_zagreb(g), "ARCS": g.e}
        rows.append((mask, free, values, is_weakly_connected(g)))
    results = {}
    for length in range(2, n + 2):
        for objective in OBJECTIVES:
            for connected_only in (False, True):
                best, hits = None, []
                for mask, free, values, connected in rows:
                    if not free[length] or (connected_only and not connected):
                        continue
                    if best is None or values[objective] > best:
                        best, hits = values[objective], [mask]
                    elif values[objective] == best:
                        hits.append(mask)
                results[length, objective, connected_only] = (best, hits, len(rows))
    return results


def _delete_vertex(g, v):
    low = (1 << v) - 1
    return Digraph(g.n - 1, tuple((row & low) | (row >> (v + 1)) << v for u, row in enumerate(g.rows) if u != v))


class TestMaskEncoding:
    @pytest.mark.parametrize("n,count", [(2, 4), (3, 64), (4, 4096)])
    def test_enumeration_counts(self, n, count):
        seen = set()
        for g in enumerate_digraphs(n):
            seen.add(g.rows)
        assert len(seen) == count


class TestSweepKernel:
    """Whole search reports against an independent per-mask reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_whole_sweep(self, n):
        for (length, objective, connected_only), (best, hits, count) in _reference_scan(n).items():
            report = search_extremal(n, length, objective, scope=SCOPES[connected_only])
            want = sorted({canonical_label(digraph_from_mask(n, mask)).data for mask in hits})
            got = [canonical_label(w).data for w in report.witnesses]
            assert (report.max_value, got, report.searched_count) == (best, want, count), (
                n, length, objective, connected_only
            )


class TestDescentPremises:
    """The deletion identities and bounds the threshold chain rests on, by brute force."""

    @staticmethod
    def _check(g):
        m, e = g.n, g.e
        values = {"ARCS": e, "M1": first_zagreb(g), "LE": laplacian_energy(g)}
        deleted = [_delete_vertex(g, v) for v in range(m)]
        below = {
            "ARCS": [h.e for h in deleted],
            "M1": [first_zagreb(h) for h in deleted],
            "LE": [laplacian_energy(h) for h in deleted],
        }
        assert sum(below["ARCS"]) == (m - 2) * e
        assert sum(below["M1"]) == (m - 3) * values["M1"] + e
        assert sum(below["LE"]) == (m - 3) * values["LE"] + e + c2(g)
        assert values["M1"] <= (m - 1) * e and values["LE"] <= (m - 1) * (e + c2(g))
        for objective, value in values.items():
            assert max(below[objective]) >= _threshold_below(objective, m, value), (g, objective)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_digraph(self, n):
        for g in enumerate_digraphs(n):
            self._check(g)

    def test_random_digraphs(self):
        rng = random.Random(59)
        for _ in range(300):
            self._check(random_digraph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5, 0.8, 1.0))))

    def test_family_members(self):
        # The extremal families, on which the bounds are nearly tight; k = n gives K_n.
        for n in range(2, 11):
            members = enumerate_bk01_members(n)
            for k in range(1, n + 1):
                members += enumerate_fnk_members(n, k)
            for g in members:
                self._check(g)


class TestDeletionFilter:
    """The per-vertex deletion keys, and the filter and buckets on them, which must keep every class."""

    @staticmethod
    def _check(g):
        for objective in OBJECTIVES:
            want = [
                (MEASURES[objective](_delete_vertex(g, u)), g.out_degree(u), g.in_degree(u))
                for u in range(g.n)
            ]
            assert _deletion_keys(g.rows, in_rows(g), objective) == want, (g, objective)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_digraph(self, n):
        for g in enumerate_digraphs(n):
            self._check(g)

    def test_random_digraphs(self):
        rng = random.Random(61)
        for _ in range(300):
            self._check(random_digraph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5, 0.8, 1.0))))

    def test_sorted_keys_are_an_invariant(self):
        # The descent buckets extensions by their sorted keys, so relabelling must not move them.
        rng = random.Random(67)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
            h = _relabelled(g, rng)
            for objective in OBJECTIVES:
                keys = sorted(_deletion_keys(g.rows, in_rows(g), objective))
                assert keys == sorted(_deletion_keys(h.rows, in_rows(h), objective)), (g, objective)

    def test_extensions_match_brute_force(self):
        # Every (O, I) pair, checked on the built digraph: C_L-free, above the
        # threshold and with a key-maximal new vertex, with the keys of that digraph.
        rng = random.Random(71)
        for _ in range(60):
            n, length, objective = rng.randint(1, 4), rng.randint(2, 5), rng.choice(OBJECTIVES)
            g = random_digraph(rng, n, rng.choice((0.2, 0.5)))
            if not is_ck_free(g, length):
                continue
            threshold = MEASURES[objective](g) + rng.randint(0, n)
            want = {}
            for out in range(1 << n):
                for into in range(1 << n):
                    h = Digraph(n + 1, tuple(row | (into >> u & 1) << n for u, row in enumerate(g.rows)) + (out,))
                    keys = _deletion_keys(h.rows, in_rows(h), objective)
                    if is_ck_free(h, length) and MEASURES[objective](h) >= threshold and keys[-1] == max(keys):
                        want[h.rows] = keys
            got = [(h.rows, keys) for h, keys in search._extensions(g, length, objective, threshold)]
            assert dict(got) == want and len(got) == len(want), (g, length, objective, threshold)

    @staticmethod
    def _levels(monkeypatch, n, length, objective, scope):
        """Per order, the classes the search stores and those of every extension that arrived.

        Both are labelled here, outside the search, so the search's own
        canonical_label calls are counted apart.  Each stored member must be
        alone in its class and carry its own canonical bytes when it has any.
        """
        stored, arrived, calls = {}, {}, []
        grow, extend, label = search._next_level, search._extensions, search.canonical_label

        def recording_grow(level, *args):
            grown = grow(level, *args)
            forms = [canonical_label(h).data for _, h in grown]
            assert len(set(forms)) == len(forms), "two stored members share a class"
            assert all(data in (None, form) for (data, _), form in zip(grown, forms))
            stored[level[0][1].n + 1] = set(forms)
            return grown

        def recording_extensions(g, *args):
            for h, keys in extend(g, *args):
                arrived.setdefault(h.n, set()).add(canonical_label(h).data)
                yield h, keys

        def counting(g):
            calls.append(g.n)
            return label(g)

        with monkeypatch.context() as patch:
            patch.setattr(search, "_next_level", recording_grow)
            patch.setattr(search, "_extensions", recording_extensions)
            patch.setattr(search, "canonical_label", counting)
            search_extremal(n, length, objective, scope=scope, allow_slow=True)
        return stored, arrived, len(calls)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_levels_match_unfiltered_descent(self, monkeypatch, n):
        saved = 0
        for length in range(2, n + 2):
            for objective in OBJECTIVES:
                for scope in SCOPES:
                    setting = (length, objective, scope)
                    stored, arrived, calls = self._levels(monkeypatch, n, length, objective, scope)
                    # Lazy labelling keeps the class set of labelling every arrival.
                    assert stored == arrived, setting
                    with monkeypatch.context() as patch:
                        # Equal keys make every new vertex key-maximal, so nothing is
                        # filtered, and put every arrival of a level in one bucket.
                        patch.setattr(search, "_deletion_keys", lambda rows, ins, objective: [()] * len(rows))
                        unfiltered, unfiltered_arrived, unfiltered_calls = self._levels(
                            monkeypatch, n, length, objective, scope
                        )
                    assert unfiltered == unfiltered_arrived, setting
                    assert stored == unfiltered, setting
                    saved += unfiltered_calls - calls
        assert saved > 0 or n == 1


@pytest.mark.parametrize("n,classes", enumerate([1, 1, 2, 4, 12, 56, 456], start=1))
def test_tournament_class_counts(n, classes):
    # The extremal digraphs for L = 2 and ARCS are the tournaments, whose
    # classes are counted independently (OEIS A000568).
    report = search_extremal(n, 2, "ARCS", allow_slow=True)
    assert (report.max_value, len(report.witnesses)) == (n * (n - 1) // 2, classes)


def test_small_order_reports_pinned():
    # Every report for n = 1..7: L = 2..n+1, each objective and scope, 168
    # settings.  A change to the thresholds, the seeds or the dedup must keep
    # every maximum and witness byte.
    digest = hashlib.sha256()
    for n in range(1, 8):
        for length in range(2, n + 2):
            for objective in OBJECTIVES:
                for scope in SCOPES:
                    report = search_extremal(n, length, objective, scope=scope, allow_slow=True)
                    digest.update(dumps(report_json(report)).encode())
    assert digest.hexdigest() == "9aba9679bee34d2024fabc320bcdb1060a25df5bbd68b7407bc46b7c500f437a"


def test_seed_value_needs_no_transitive_tournament():
    # Every fnk(n, L-1) member holds the arc u -> v for every u < v (at L = 2
    # it is the transitive tournament), so it dominates the tournament on
    # every objective and the tournament raises no T_n.  The bk01 chains
    # raise none at L = 3 either; the reference seeds from both.
    for n in range(1, ISO_CAP + 1):
        for length in range(2, n + 2):
            seeds = [gen_transitive_tournament(n), *enumerate_fnk_members(n, length - 1)]
            if length == 3:
                seeds += enumerate_bk01_members(n)
            for objective, value in MEASURES.items():
                for connected_only in (False, True):
                    want = max(
                        value(g)
                        for g in seeds
                        if is_ck_free(g, length) and (is_weakly_connected(g) or not connected_only)
                    )
                    got = search._seed_value(n, length, search._MEASURES[objective], connected_only)
                    assert got == want, (n, length, objective, connected_only)


def _census(length, n_max):
    """Classes of C_length-free digraphs on 1..n_max vertices: the descent's level sizes with every threshold 0."""
    level = [(None, Digraph(1, (0,)))]
    counts = [len(level)]
    for _ in range(2, n_max + 1):
        level = search._next_level(level, length, "ARCS", 0)
        counts.append(len(level))
    return counts


class TestCensus:
    """With every threshold 0 each level holds every C_L-free class once: the key filter, buckets and labeller."""

    def test_all_digraphs(self):
        # L > n excludes nothing: digraphs on n unlabelled vertices (OEIS A000273).
        assert _census(6, 5) == [1, 3, 16, 218, 9608]

    def test_oriented_graphs(self):
        # L = 2 excludes digons: oriented graphs on n unlabelled vertices (OEIS A001174).
        assert _census(2, 6) == [1, 2, 7, 42, 582, 21480]

    def test_c3_free(self):
        counts = _census(3, 5)
        brute = [len({canonical_label(g).data for g in enumerate_digraphs(n) if is_ck_free(g, 3)}) for n in (2, 3, 4)]
        assert counts[1:4] == brute == [3, 12, 99]
        # No published table at hand: a regression pin.
        assert counts[4] == 1596


N6_TABLE = {  # forbidden length: (max, classes) for LE, M1, ARCS; equal for both scopes
    2: ((55, 1), (55, 1), (15, 56)),
    3: ((76, 3), (70, 1), (18, 4)),
    4: ((99, 1), (87, 1), (21, 1)),
    5: ((116, 1), (102, 1), (22, 2)),
    6: ((145, 1), (125, 1), (25, 2)),
    7: ((180, 1), (150, 1), (30, 1)),
}


@pytest.mark.parametrize("length", sorted(N6_TABLE))
def test_n6_maxima_and_class_counts(length):
    # Measured by the exhaustive 2^30-mask sweep that preceded the descent.
    for objective, want in zip(OBJECTIVES, N6_TABLE[length]):
        for scope in SCOPES:
            report = search_extremal(6, length, objective, scope=scope, allow_slow=True)
            assert (report.max_value, len(report.witnesses)) == want, (objective, scope)


N5_GRID = [
    ("search", "--n", "5", "--forbid-cycle", str(length), "--objective", objective) + scope
    for length in range(2, 7)
    for objective in ("le", "m1", "arcs")
    for scope in ((), ("--connected-only",))
]


@pytest.mark.parametrize("argv", N5_GRID, ids=lambda argv: "-".join(argv[3:]).replace("--", ""))
def test_search_report_matches_golden(tmp_path, argv):
    # The benchmark's golden reports pin every maximum and witness byte.
    name = "-".join(arg.lstrip("-") for arg in argv) + ".json"
    assert main(list(argv) + ["--out", str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_text() == (GOLDENS / name).read_text()


def test_n5_grid_label_count(tmp_path, monkeypatch):
    # Labels run only on bucket collisions and for unlabelled members at the
    # maximum, and the report reuses the witness forms: 214 calls over the 30
    # settings, where labelling every key-maximal extension and relabelling
    # every reported witness made 508 (238 before LE shared M1's threshold).
    calls = []
    label = search.canonical_label

    def counting(g):
        calls.append(g.n)
        return label(g)

    for module in (search, serialize, claims):
        monkeypatch.setattr(module, "canonical_label", counting)
    for argv in N5_GRID:
        assert main(list(argv) + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 214


class TestIsomorphism:
    def test_relabelled_digon(self):
        assert are_isomorphic(DIGON, permute(DIGON, (1, 0)))

    def test_distinct_families(self):
        assert not are_isomorphic(gen_bk([2, 3]), gen_bk([4, 1]))

    def test_same_degrees_different_structure(self):
        digon_plus_isolated = build_digraph(3, [(0, 1), (1, 0)])
        path = build_digraph(3, [(0, 1), (1, 2)])
        assert not are_isomorphic(digon_plus_isolated, path)

    def test_errors(self):
        with pytest.raises(ValueError, match="order mismatch"):
            are_isomorphic(DIGON, build_digraph(3, []))
        big = build_digraph(ISO_CAP + 1, [])
        with pytest.raises(ValueError, match="capped"):
            are_isomorphic(big, big)

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def to_nx(g):
            graph = nx.DiGraph()
            graph.add_nodes_from(range(g.n))
            graph.add_edges_from(g.arcs())
            return graph

        rng = random.Random(53)
        pairs = [
            (_circulant(8, (1,)), _union(_circulant(3, (1,)), _circulant(5, (1,)))),
            (_circulant(8, (1,)), _union(_circulant(4, (1,)), _circulant(4, (1,)))),
            (_circulant(8, (1, 2)), _union(_circulant(4, (1, 2)), _circulant(4, (1, 2)))),
            (_circulant(7, (1, 2)), _circulant(7, (1, 3))),
            (gen_bk([4, 2, 2]), gen_bk([2, 4, 2])),
        ]
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
            # Swapping heads of two arcs keeps every outdegree and indegree.
            rows, arcs = list(g.rows), list(g.arcs())
            for _ in range(10 if len(arcs) >= 2 else 0):
                (u, v), (x, y) = rng.sample(arcs, 2)
                if len({u, v, x, y}) == 4 and not rows[u] >> y & 1 and not rows[x] >> v & 1:
                    rows[u] ^= 1 << v | 1 << y
                    rows[x] ^= 1 << y | 1 << v
                    break
            pairs += [(g, _relabelled(Digraph(g.n, tuple(rows)), rng)), (g, _relabelled(g, rng))]
        verdicts = [are_isomorphic(g, h) for g, h in pairs]
        assert verdicts == [nx.is_isomorphic(to_nx(g), to_nx(h)) for g, h in pairs]
        assert 0 < sum(verdicts) < len(pairs)

    def test_random_relabellings_are_isomorphic(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, ISO_CAP)
            g = random_digraph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            perm = list(range(n))
            rng.shuffle(perm)
            assert are_isomorphic(g, permute(g, perm))

    def test_equal_degree_triples_still_separated(self):
        # Every vertex has the same (outdegree, indegree, digons) triple within each pair.
        pairs = [
            (_circulant(6, (1,)), _union(_circulant(3, (1,)), _circulant(3, (1,)))),
            (_circulant(8, (1,)), _union(_circulant(4, (1,)), _circulant(4, (1,)))),
            (_circulant(7, (1, 2)), _circulant(7, (1, 3))),
            (_circulant(6, (1, 5)), _union(_circulant(3, (1, 2)), _circulant(3, (1, 2)))),
        ]
        for g, h in pairs:
            assert search._degree_triples(g, in_rows(g)) == search._degree_triples(h, in_rows(h))
            assert not are_isomorphic(g, h)

    def test_differing_triples_skip_the_labeller(self, monkeypatch):
        calls = []
        label = search._canonical_label
        monkeypatch.setattr(search, "_canonical_label", lambda g, ins: calls.append(g) or label(g, ins))
        # Equal order and arc count; the first pair also has equal degrees and
        # differs only in its digons.
        digon_and_triangle = _union(DIGON, _circulant(3, (1,)))
        pairs = [
            (digon_and_triangle, _circulant(5, (1,))),
            (gen_transitive_tournament(6), _circulant(6, (1, 2, 3))),
            (gen_transitive_tournament(4), _union(gen_complete_digraph(3), build_digraph(1, []))),
        ]
        for g, h in pairs:
            assert search._degree_triples(g, in_rows(g)) != search._degree_triples(h, in_rows(h))
            assert not are_isomorphic(g, h)
        assert calls == []
        assert are_isomorphic(digon_and_triangle, _relabelled(digon_and_triangle, random.Random(3)))
        assert len(calls) == 2

    def test_agreeing_triples_transpose_each_digraph_once(self, monkeypatch):
        # The labeller reuses the in-rows the degree triples were read from.
        calls = []
        monkeypatch.setattr(search, "in_rows", lambda g: calls.append(g) or in_rows(g))
        g = gen_bk([4, 2, 3])
        h = _relabelled(g, random.Random(5))
        assert are_isomorphic(g, h)
        assert calls == [g, h]


class TestCanonicalLabel:
    def test_invariant_under_relabelling(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 7)
            g = random_digraph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_label(g) == canonical_label(permute(g, perm))

    def test_separates_non_isomorphic(self):
        empty2 = build_digraph(2, [])
        assert canonical_label(DIGON) != canonical_label(empty2)

    def test_representative_round_trip(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_digraph(rng, rng.randint(1, 6))
            form = canonical_label(g)
            rep = form.to_digraph()
            assert are_isomorphic(rep, g)
            assert canonical_label(rep) == form

    def test_agrees_with_isomorphism_search(self):
        # Oracle: some relabelling of g is h, tried over all n! permutations.
        # h is a relabelled copy of g, half the time with one degree-preserving
        # switch (a, b), (c, d) -> (a, d), (c, b), so both verdicts occur
        # among digraphs with equal in- and outdegree sequences.
        rng = random.Random(31)
        verdicts = set()
        for _ in range(80):
            n = rng.randint(3, 5)
            g = random_digraph(rng, n)
            arcs = set(permute(g, rng.sample(range(n), n)).arcs())
            switches = [
                ((a, b), (c, d))
                for (a, b), (c, d) in itertools.combinations(sorted(arcs), 2)
                if len({a, b, c, d}) == 4 and not {(a, d), (c, b)} & arcs
            ]
            if switches and rng.random() < 0.5:
                (a, b), (c, d) = rng.choice(switches)
                arcs -= {(a, b), (c, d)}
                arcs |= {(a, d), (c, b)}
            h = build_digraph(n, arcs)
            iso = any(permute(g, perm) == h for perm in itertools.permutations(range(n)))
            assert (canonical_label(g) == canonical_label(h)) == iso
            verdicts.add(iso)
        assert verdicts == {True, False}

    def test_cap(self):
        assert ISO_CAP == 8 * search.ROW_BYTES == 16
        with pytest.raises(ValueError, match="capped"):
            canonical_label(build_digraph(ISO_CAP + 1, []))

    def test_row_code_follows_row_bytes(self):
        # One struct field per row, as wide as ROW_BYTES: a full-width K16 round-trips.
        assert struct.calcsize(">" + search._ROW_CODE) == search.ROW_BYTES
        k16 = gen_complete_digraph(ISO_CAP)
        form = canonical_label(k16)
        assert len(form.data) == 1 + ISO_CAP * search.ROW_BYTES
        assert form.to_digraph() == k16

    @pytest.mark.parametrize(
        "g",
        [
            gen_complete_digraph(10),
            build_digraph(10, []),
            _circulant(10, (1,)),
            _circulant(10, (1, 3)),
            gen_bk([4, 4, 2]),
            gen_complete_digraph(ISO_CAP),
            build_digraph(ISO_CAP, []),
            functools.reduce(_union, [_circulant(4, (1,))] * 4),
            _sources_on_unequal_cycles(),
        ],
        ids=["K10", "empty10", "C10", "circulant10-1-3", "bk4-4-2", "K16", "empty16", "4xC4", "sources-C4-2xC2"],
    )
    def test_symmetric_inputs_at_the_cap(self, g):
        rng = random.Random(g.e)
        first, second = _relabelled(g, rng), _relabelled(g, rng)
        form = canonical_label(first)
        assert form == canonical_label(second) == canonical_label(g)
        assert are_isomorphic(first, second)
        # At n = ISO_CAP the form's rows use every bit of their ROW_BYTES.
        assert canonical_label(form.to_digraph()) == form

    @pytest.mark.parametrize(
        "g",
        [gen_complete_digraph(ISO_CAP), build_digraph(ISO_CAP, []), gen_fnk(ISO_CAP, 3, 2)],
        ids=["K16", "empty16", "fnk16-3-2"],
    )
    def test_twins_take_one_leaf(self, g, monkeypatch):
        # Each leaf transposes the in-rows once.  Wherever the search branches,
        # every other candidate is a twin of the first, so one leaf suffices (16,
        # 16 and 11 leaves when twin swaps were found only from equal leaves).
        leaves = []
        counting = lambda ins, order: leaves.append(order) or _relabelled_rows(ins, order)
        monkeypatch.setattr(search, "_relabelled_rows", counting)
        canonical_label(g)
        assert len(leaves) == 1

    def test_complete_digraph_is_its_own_form(self):
        k10 = gen_complete_digraph(10)
        assert canonical_label(k10).to_digraph() == k10

    def test_corpus_bytes_pinned(self):
        # A label is the minimum over refinement-compatible relabellings, so a
        # faster search must keep every byte: this digest was taken before the
        # leaves relabelled through the packed transpose.
        corpus = _label_corpus()
        assert len(corpus) == 1194
        digest = hashlib.sha256(b"".join(canonical_label(g).data for g in corpus)).hexdigest()
        assert digest == "283cef5730048309de3676bf24246b3aa6fee38d7623a8f79304b08f85c15f49"

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x05", b"\x02\x00\x02\x00\x01\xff", b"\x02\x00\x02\x00"],
        ids=["empty", "rows-missing", "trailing-byte", "row-short"],
    )
    def test_malformed_form_rejected(self, data):
        with pytest.raises(ValueError, match="bytes"):
            CanonicalForm(data).to_digraph()

    def test_form_decodes_big_endian_rows(self):
        assert CanonicalForm(b"\x02\x00\x02\x00\x01").to_digraph() == DIGON
        with pytest.raises(ValueError, match="loop"):
            CanonicalForm(b"\x02\x00\x01\x00\x01").to_digraph()


class TestRefinement:
    """The packed-count kernel gives the colours of the sorted-tuple refinement."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_digraph(self, n):
        for g in enumerate_digraphs(n):
            assert _refine_colors(g, in_rows(g)) == _reference_refine_colors(g), g

    def test_random_digraphs(self):
        rng = random.Random(67)
        for _ in range(600):
            g = random_digraph(rng, rng.randint(1, 16), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert _refine_colors(g, in_rows(g)) == _reference_refine_colors(g), g

    def test_structured_digraphs(self):
        inputs = []
        for n in range(2, 17):
            inputs += [gen_complete_digraph(n), build_digraph(n, []), gen_transitive_tournament(n)]
            inputs += [_circulant(n, steps) for steps in ((1,), (1, 2), (1, 3), (1, n - 1)) if max(steps) < n]
        for first in (DIGON, _circulant(3, (1,)), gen_transitive_tournament(3), _circulant(5, (1, 2))):
            for second in (build_digraph(1, []), _circulant(4, (1,)), gen_fnk(5, 3, 2), _circulant(7, (1, 3))):
                inputs += [_union(first, second), _union(second, first)]
        inputs += [_union(_union(g, g), g) for g in (gen_transitive_tournament(4), _circulant(5, (1,)))]
        rng = random.Random(71)
        for g in inputs:
            for h in (g, _relabelled(g, rng)):
                assert _refine_colors(h, in_rows(h)) == _reference_refine_colors(h), h


class TestCanonicalBytesMatchReference:
    """The partition search returns the bytes of the exhaustive reference labeller."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_digraph(self, n):
        for g in enumerate_digraphs(n):
            assert canonical_label(g).data == _reference_canonical_bytes(g), g

    def test_random_digraphs(self):
        rng = random.Random(43)
        for _ in range(500):
            g = random_digraph(rng, rng.randint(5, 7), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert canonical_label(g).data == _reference_canonical_bytes(g), g

    def test_symmetric_digraphs(self):
        rng = random.Random(47)
        inputs = []
        for n in range(2, 8):
            inputs += [gen_complete_digraph(n), build_digraph(n, []), _circulant(n, (1,))]
            inputs += [_circulant(n, steps) for steps in ((1, 2), (1, 3)) if max(steps) < n]
            inputs += [gen_bk(parts) for parts in bk01_compositions(n)]
        inputs += [_union(_circulant(3, (1,)), _circulant(4, (1,))), _union(DIGON, _circulant(5, (1, 2)))]
        # Three copies of a connected 3-vertex digraph: n = 9, where orbit pruning
        # must use only the automorphisms that fix the prefix.  Unequal degrees
        # keep the colour classes, and so the reference, small.
        for mask in range(64):
            base = digraph_from_mask(3, mask)
            if is_weakly_connected(base) and len({(base.out_degree(v), base.in_degree(v)) for v in range(3)}) > 1:
                inputs.append(_union(_union(base, base), base))
        # Twin-rich inputs, where the search skips a candidate whose swap with an
        # explored one is an automorphism: every fnk member and blow-ups of 1-3
        # vertex parts, each also with one arc flipped.
        for n in range(1, 8):
            inputs += [g for k in range(1, n + 1) for g in enumerate_fnk_members(n, k)]
        for _ in range(60):
            g = _blowup(rng, rng.randint(2, 7))
            u, v = rng.sample(range(g.n), 2)
            inputs += [g, Digraph(g.n, tuple(row ^ (1 << v if w == u else 0) for w, row in enumerate(g.rows)))]
        for g in inputs:
            h = _relabelled(g, rng)
            assert canonical_label(h).data == _reference_canonical_bytes(h), g


class TestSearch:
    def test_forbid_smallest_cycle(self):
        report = search_extremal(3, 2, "LE")
        assert report.max_value == 5
        assert len(report.witnesses) == 1
        assert are_isomorphic(report.witnesses[0], gen_transitive_tournament(3))
        assert report.searched_count == 64

    def test_forbid_triangle(self):
        report = search_extremal(4, 3, "LE")
        assert report.max_value == 24
        want = {canonical_label(g).data for g in enumerate_bk01_members(4)}
        assert {canonical_label(w).data for w in report.witnesses} == want

    def test_forbid_four_cycle(self):
        report = search_extremal(4, 4, "LE")
        assert report.max_value == 33
        assert len(report.witnesses) == 1
        assert are_isomorphic(report.witnesses[0], gen_fnk(4, 3, 2))

    def test_witnesses_are_valid(self):
        for objective, evaluate in (("LE", laplacian_energy), ("M1", first_zagreb), ("ARCS", lambda g: g.e)):
            report = search_extremal(4, 3, objective)
            assert report.witnesses
            for w in report.witnesses:
                assert evaluate(w) == report.max_value
                assert is_ck_free(w, 3)
            for a in range(len(report.witnesses)):
                for b in range(a + 1, len(report.witnesses)):
                    assert not are_isomorphic(report.witnesses[a], report.witnesses[b])

    def test_vacuous_forbidden_length(self):
        # nothing of length 9 fits in 4 vertices: the complete digraph wins
        report = search_extremal(4, 9, "ARCS")
        assert report.max_value == 12
        assert len(report.witnesses) == 1

    def test_scope_insensitivity_small(self):
        for n, forbid, objective in ((4, 3, "LE"), (4, 2, "LE"), (3, 3, "M1"), (4, 4, "ARCS")):
            over_all = search_extremal(n, forbid, objective)
            connected = search_extremal(n, forbid, objective, scope="connected_only")
            assert over_all.max_value == connected.max_value
            for w in connected.witnesses:
                assert is_weakly_connected(w)

    def test_connected_scope_can_differ_when_needed(self):
        # sanity: the connected filter is real (all witnesses connected)
        report = search_extremal(3, 2, "LE", scope="connected_only")
        assert all(is_weakly_connected(w) for w in report.witnesses)

    def test_dedup_canonicalises_once_per_class(self):
        # all 2^10 labelled tournaments on 5 vertices attain the maximum: one witness per class
        report = search_extremal(5, 2, "ARCS")
        assert report.max_value == 10
        assert len(report.witnesses) == 12

    def test_worker_count_does_not_change_report(self):
        solo = dumps(report_json(search_extremal(5, 3, "M1", jobs=1)))
        multi = dumps(report_json(search_extremal(5, 3, "M1", jobs=2)))
        assert solo == multi

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="objective"):
            search_extremal(3, 3, "density")
        with pytest.raises(ValueError, match="scope"):
            search_extremal(3, 3, "LE", scope="strong")
        with pytest.raises(ValueError, match="forbidden"):
            search_extremal(3, 1, "LE")
        with pytest.raises(ValueError, match="capped"):
            search_extremal(ISO_CAP + 1, 3, "LE")
        with pytest.raises(ValueError, match=rf"n must be in 1\.\.{ISO_CAP} .*got 0"):
            search_extremal(0, 3, "LE")
        with pytest.raises(ValueError, match="allow_slow"):
            search_extremal(6, 3, "LE")
        with pytest.raises(ValueError, match="jobs"):
            search_extremal(3, 3, "LE", jobs=0)
