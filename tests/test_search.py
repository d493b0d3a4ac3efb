import itertools
import random
from pathlib import Path

import pytest

from stlab.cycles import is_ck_free
from stlab.digraph import Digraph, build_digraph, in_rows, is_weakly_connected, permute
from stlab.families import (
    bk01_compositions,
    enumerate_bk01_members,
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
    _deletion_keys,
    _refine_colors,
    _threshold_below,
    are_isomorphic,
    canonical_label,
    digraph_from_mask,
    enumerate_digraphs,
    search_extremal,
)
from stlab.serialize import dumps, report_json

from conftest import random_digraph

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
DIGON = build_digraph(2, [(0, 1), (1, 0)])
MEASURES = {"LE": laplacian_energy, "M1": first_zagreb, "ARCS": lambda g: g.e}


def _circulant(n, steps):
    return build_digraph(n, [(u, (u + s) % n) for u in range(n) for s in steps])


def _union(g, h):
    return Digraph(g.n + h.n, g.rows + tuple(row << g.n for row in h.rows))


def _relabelled(g, rng):
    return permute(g, rng.sample(range(g.n), g.n))


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
        rows = permute(g, [order.index(v) for v in range(g.n)]).rows
        if best is None or rows < best:
            best = rows
    return bytes([g.n]) + b"".join(row.to_bytes(2, "big") for row in best)


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

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="capped"):
            list(enumerate_digraphs(7))


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
        assert values["M1"] <= (m - 1) * e and values["LE"] <= m * e
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
    # maximum, and the report reuses the witness forms: 238 calls over the 30
    # settings, where labelling every key-maximal extension and relabelling
    # every reported witness made 508.
    calls = []
    label = search.canonical_label

    def counting(g):
        calls.append(g.n)
        return label(g)

    for module in (search, serialize, claims):
        monkeypatch.setattr(module, "canonical_label", counting)
    for argv in N5_GRID:
        assert main(list(argv) + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 238


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
        big = build_digraph(11, [])
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
            assert search._degree_triples(g) == search._degree_triples(h)
            assert not are_isomorphic(g, h)

    def test_differing_triples_skip_the_labeller(self, monkeypatch):
        calls = []
        label = search.canonical_label
        monkeypatch.setattr(search, "canonical_label", lambda g: calls.append(g) or label(g))
        # Equal order and arc count; the first pair also has equal degrees and
        # differs only in its digons.
        digon_and_triangle = _union(DIGON, _circulant(3, (1,)))
        pairs = [
            (digon_and_triangle, _circulant(5, (1,))),
            (gen_transitive_tournament(6), _circulant(6, (1, 2, 3))),
            (gen_transitive_tournament(4), _union(gen_complete_digraph(3), build_digraph(1, []))),
        ]
        for g, h in pairs:
            assert search._degree_triples(g) != search._degree_triples(h)
            assert not are_isomorphic(g, h)
        assert calls == []
        assert are_isomorphic(digon_and_triangle, _relabelled(digon_and_triangle, random.Random(3)))
        assert len(calls) == 2


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
        with pytest.raises(ValueError, match="capped"):
            canonical_label(build_digraph(11, []))

    @pytest.mark.parametrize(
        "g",
        [
            gen_complete_digraph(10),
            build_digraph(10, []),
            _circulant(10, (1,)),
            _circulant(10, (1, 3)),
            gen_bk([4, 4, 2]),
        ],
        ids=["K10", "empty10", "C10", "circulant10-1-3", "bk4-4-2"],
    )
    def test_symmetric_inputs_at_the_cap(self, g):
        rng = random.Random(g.e)
        first, second = _relabelled(g, rng), _relabelled(g, rng)
        assert canonical_label(first) == canonical_label(second) == canonical_label(g)

    def test_complete_digraph_is_its_own_form(self):
        k10 = gen_complete_digraph(10)
        assert canonical_label(k10).to_digraph() == k10


class TestRefinement:
    """The packed-count kernel gives the colours of the sorted-tuple refinement."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_digraph(self, n):
        for g in enumerate_digraphs(n):
            assert _refine_colors(g) == _reference_refine_colors(g), g

    def test_random_digraphs(self):
        rng = random.Random(67)
        for _ in range(600):
            g = random_digraph(rng, rng.randint(1, 16), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert _refine_colors(g) == _reference_refine_colors(g), g

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
                assert _refine_colors(h) == _reference_refine_colors(h), h


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
