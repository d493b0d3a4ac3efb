import pytest

from stlab.families import enumerate_fnk_members, gen_complete_digraph, gen_fnk
from stlab.formulas import (
    ExactValue,
    ex_arcs_ck,
    ex_arcs_clique,
    ex_arcs_complete_digraph,
    ex_arcs_tournament,
    ex_le_ck,
    ex_le_cubic,
    ex_m1_c3,
)
from stlab.invariants import first_zagreb, laplacian_energy


def test_clique_bound_values():
    assert ex_arcs_clique(5, 2).value == 6
    assert ex_arcs_clique(4, 3).value == 5
    for k in range(1, 8):
        assert ex_arcs_clique(k, k).value == k * (k - 1) // 2


def test_complete_digraph_and_tournament_bounds():
    assert ex_arcs_complete_digraph(4, 2).value == 10
    assert ex_arcs_tournament(4, 2).value == 8
    for n in range(1, 10):
        assert ex_arcs_tournament(n, 1).value == 0


def test_arc_bound_values():
    assert ex_arcs_ck(4, 3).value == 9
    assert ex_arcs_ck(5, 3).value == 14
    assert ex_arcs_ck(6, 3).value == 21


def test_arc_bound_small_k_routing():
    # the k = 1, 2 cases come from the complete-digraph/tournament bounds
    for n in range(1, 30):
        assert ex_arcs_ck(n, 1).value == n * (n - 1) // 2
        assert ex_arcs_ck(n, 1).source == "thm1.2"
        assert ex_arcs_ck(n, 2).value == ex_arcs_tournament(n, 2).value
        assert ex_arcs_ck(n, 2).source == "thm1.2"


def test_energy_bound_values():
    assert ex_le_ck(4, 3).value == 33
    assert ex_le_ck(4, 3).numerator == 198
    assert ex_le_ck(5, 2).value == 44
    assert ex_le_ck(4, 1).value == 14


def test_zagreb_bound_values():
    assert ex_m1_c3(5).value == 40
    assert ex_m1_c3(4).value == 20
    assert ex_m1_c3(7).value == 112


def test_exact_value_rejects_inexact_division():
    with pytest.raises(ArithmeticError):
        ExactValue(numerator=7, denominator=3, source="x")


def test_dispatcher_coherence():
    # the general cubic agrees with the dedicated k = 1 and k = 2 forms
    for n in range(1, 201):
        assert ex_le_cubic(n, 1).value == ex_le_ck(n, 1).value
        assert ex_le_cubic(n, 2).value == ex_le_ck(n, 2).value


def test_degenerate_when_no_cycle_fits():
    # k > n means nothing is forbidden: the bounds are the complete digraph's
    for n in range(1, 12):
        complete = gen_complete_digraph(n)
        for k in range(n + 1, n + 4):
            assert ex_arcs_ck(n, k).value == complete.e
            if k >= 3:
                assert ex_le_ck(n, k).value == laplacian_energy(complete)


def test_divisibility_sweep():
    # ExactValue raises on any inexact division, so evaluation is the assertion
    for n in range(1, 10_001):
        ex_m1_c3(n)
        for k in (1, 2, 3, 4, 5, 7, 11):
            ex_arcs_clique(n, k)
            ex_arcs_complete_digraph(n, k)
            ex_arcs_tournament(n, k)
            ex_arcs_ck(n, k)
            ex_le_ck(n, k)


def test_generator_consistency_moderate():
    # includes k = 1, 2: the chain family is extremal for those dispatch arms too
    for k in range(1, 8):
        for n in range(k, 31):
            q, r = divmod(n, k)
            top = gen_fnk(n, k, q + 1 if r else None)
            assert laplacian_energy(top) == ex_le_ck(n, k).value
            assert {g.e for g in enumerate_fnk_members(n, k)} == {ex_arcs_ck(n, k).value}


def test_zagreb_bound_matches_generator():
    for n in range(1, 30):
        q, r = divmod(n, 2)
        member = gen_fnk(n, 2, q + 1 if r else None)
        assert first_zagreb(member) == ex_m1_c3(n).value
        # the energy and Zagreb bounds differ by exactly the 2q closed 2-walks
        assert ex_le_ck(n, 2).value - ex_m1_c3(n).value == 2 * q


def test_arguments_validated():
    with pytest.raises(ValueError):
        ex_le_ck(0, 3)
    with pytest.raises(ValueError):
        ex_arcs_ck(5, 0)
    with pytest.raises(ValueError):
        ex_m1_c3(0)
