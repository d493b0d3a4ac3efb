"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run standalone with:  pytest tests/test_acceptance.py -v -s
All comparisons are exact integer equality; the runtime ceilings are part
of the contract and are asserted too.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

from stlab.cycles import is_ck_free
from stlab.digraph import permute
from stlab.families import (
    bk01_compositions,
    enumerate_bk01_members,
    enumerate_fnk_members,
    gen_bk,
    gen_fnk,
    gen_transitive_tournament,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck, ex_le_cubic, ex_m1_c3
from stlab.invariants import c2, first_zagreb, laplacian_energy, trace_L_squared
from stlab.majorization import verify_fnk_ordering
from stlab.search import are_isomorphic, canonical_label, search_extremal
from stlab.serialize import dumps, report_json

from conftest import enumerate_digraphs, random_digraph


@contextmanager
def budget(criterion: int, seconds: float, detail: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s ({elapsed:.2f}s)"
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s) - {detail}")


@lru_cache(maxsize=None)
def cached_search(n, forbidden_len, objective):
    return search_extremal(n, forbidden_len, objective)


def canon_set(digraphs):
    return {canonical_label(g).data for g in digraphs}


def test_criterion_01_trace_identity():
    with budget(1, 5.0, "LE == trace(L^2) on all 4096 n=4 digraphs and 1000 random n<=10"):
        for g in enumerate_digraphs(4):
            assert laplacian_energy(g) == trace_L_squared(g)
        rng = random.Random(1)
        for _ in range(1000):
            g = random_digraph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
            assert laplacian_energy(g) == trace_L_squared(g)


def test_criterion_02_digon_free_energy_maximum():
    with budget(2, 30.0, "no-digon LE maxima 1,5,14,30 with the transitive tournament unique"):
        expected = {2: 1, 3: 5, 4: 14, 5: 30}
        for n in range(2, 6):
            report = cached_search(n, 2, "LE")
            assert report.max_value == expected[n]
            assert report.max_value == ex_le_ck(n, 1).value == n * (n - 1) * (2 * n - 1) // 6
            assert len(report.witnesses) == 1
            assert are_isomorphic(report.witnesses[0], gen_transitive_tournament(n))


def test_criterion_03_triangle_free_energy_maximum():
    with budget(3, 60.0, "no-3-cycle LE maxima 4,10,24,44 with bipartite-chain witness sets"):
        expected = {2: 4, 3: 10, 4: 24, 5: 44}
        for n in range(2, 6):
            report = cached_search(n, 3, "LE")
            assert report.max_value == expected[n] == ex_le_ck(n, 2).value
            assert canon_set(report.witnesses) == canon_set(enumerate_bk01_members(n))
        assert bk01_compositions(5) == [(4, 1), (2, 3), (2, 2, 1)]
        assert len(cached_search(5, 3, "LE").witnesses) == 3


def test_criterion_04_general_energy_maximum():
    with budget(4, 120.0, "no-4-cycle LE maxima 33,58 with unique chain witness; closed form == generator for k<=10, n<=60"):
        for n, value in ((4, 33), (5, 58)):
            report = cached_search(n, 4, "LE")
            assert report.max_value == value
            q, r = divmod(n, 3)
            member = gen_fnk(n, 3, q + 1 if r else None)
            assert canon_set(report.witnesses) == canon_set([member])
        for k in range(3, 11):
            for n in range(k, 61):
                q, r = divmod(n, k)
                member = gen_fnk(n, k, q + 1 if r else None)
                assert laplacian_energy(member) == ex_le_ck(n, k).value


def test_criterion_05_triangle_free_zagreb_maximum():
    with budget(5, 60.0, "no-3-cycle M1 maxima match closed form; n=5 witness is the k=2 chain"):
        for n in range(2, 6):
            report = cached_search(n, 3, "M1")
            assert report.max_value == ex_m1_c3(n).value
        assert cached_search(4, 3, "M1").max_value == 20
        report5 = cached_search(5, 3, "M1")
        assert report5.max_value == 40
        assert canon_set(report5.witnesses) == canon_set([gen_fnk(5, 2, 3)])


def test_criterion_06_arc_maximum():
    with budget(6, 60.0, "no-4-cycle arc maxima 9,14 with full member witness sets; arc formula == generators for k<=10, n<=60"):
        for n, value in ((4, 9), (5, 14)):
            report = cached_search(n, 4, "ARCS")
            assert report.max_value == value == ex_arcs_ck(n, 3).value
            assert canon_set(report.witnesses) == canon_set(enumerate_fnk_members(n, 3))
        for k in range(3, 11):
            for n in range(1, 61):
                assert {g.e for g in enumerate_fnk_members(n, k)} == {ex_arcs_ck(n, k).value}


def test_criterion_07_energy_ordering():
    with budget(7, 5.0, "residual-placement energies strictly increase for 3<=k<=8, k<n<=40"):
        assert verify_fnk_ordering(5, 3) == [(0, 52), (1, 58)]
        for k in range(3, 9):
            for n in range(k + 1, 41):
                if n % k == 0:
                    continue
                energies = [le for _, le in verify_fnk_ordering(n, k)]
                assert all(a < b for a, b in zip(energies, energies[1:]))


def test_criterion_08_dispatcher_coherence():
    with budget(8, 1.0, "general cubic at k=1,2 equals the dedicated forms for n<=200"):
        for n in range(1, 201):
            assert ex_le_cubic(n, 1).value == ex_le_ck(n, 1).value
            assert ex_le_cubic(n, 2).value == ex_le_ck(n, 2).value


def test_criterion_09_property_suites():
    with budget(9, 30.0, "isomorphism invariance, family freeness n<=20"):
        rng = random.Random(9)

        # isomorphism invariance of every invariant
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_digraph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            h = permute(g, perm)
            assert laplacian_energy(h) == laplacian_energy(g)
            assert first_zagreb(h) == first_zagreb(g)
            assert c2(h) == c2(g)

        # family freeness across all generated members with n <= 20
        # (a cycle of length k+1 only fits when n >= k+1)
        for k in range(3, 9):
            for n in range(k + 1, 21):
                q, r = divmod(n, k)
                positions = range(1, q + 2) if r else (None,)
                for pos in positions:
                    assert is_ck_free(gen_fnk(n, k, pos), k + 1)
        for n in range(3, 21):
            for parts in bk01_compositions(n):
                assert is_ck_free(gen_bk(parts), 3)
        for n in range(2, 21):
            assert is_ck_free(gen_transitive_tournament(n), 2)


def test_criterion_10_parallel_determinism():
    with budget(10, 120.0, "reports byte-identical across 1-worker and 3-worker runs on the n<=5 grid"):
        grid = [(n, forbid, "LE") for n in range(2, 6) for forbid in (2, 3, 4)]
        grid += [(5, 3, "M1"), (5, 4, "ARCS")]
        for n, forbid, objective in grid:
            solo = dumps(report_json(search_extremal(n, forbid, objective, jobs=1)))
            multi = dumps(report_json(search_extremal(n, forbid, objective, jobs=3)))
            assert solo == multi, f"report drift at n={n}, forbid={forbid}, {objective}"
