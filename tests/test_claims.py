from pathlib import Path

import pytest

import stlab.claims as claims
from stlab.claims import BK01_N_MAX, TAGS, verify_theorem
from stlab.cli import main
from stlab.families import enumerate_bk01_members
from stlab.search import search_extremal

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


def test_tags_are_fixed():
    assert TAGS == ("thm1.3", "thm1.4", "thm1.5", "thm1.6", "lemma2.1", "lemma3.1")


def test_unknown_tag():
    with pytest.raises(ValueError, match="unknown tag"):
        verify_theorem("thm9.9", 4)


def test_transitive_tournament_rows():
    rows = verify_theorem("thm1.5", 5)
    assert all(row.ok for row in rows)
    oracle = {row.n: row.oracle for row in rows}
    assert oracle == {1: 0, 2: 1, 3: 5, 4: 14, 5: 30}


def test_triangle_free_energy_rows():
    rows = verify_theorem("thm1.6", 5)
    assert all(row.ok for row in rows)
    assert [row.formula for row in rows] == [0, 4, 10, 24, 44]
    assert all(row.witness == "ok" for row in rows)


def test_triangle_free_zagreb_rows():
    rows = verify_theorem("lemma2.1", 5)
    assert all(row.ok for row in rows)
    assert rows[-1].oracle == 40


def test_arc_maximum_rows():
    rows = verify_theorem("thm1.3", 5, k_max=3)
    assert all(row.ok for row in rows)
    by_n = {row.n: row for row in rows}
    assert by_n[4].formula == 9 and by_n[5].formula == 14


def test_energy_maximum_rows():
    rows = verify_theorem("thm1.4", 5, k_max=4)
    assert all(row.ok for row in rows)
    by_nk = {(row.n, row.k): row.oracle for row in rows}
    assert by_nk[(4, 3)] == 33
    assert by_nk[(5, 3)] == 58


def test_ordering_rows():
    rows = verify_theorem("lemma3.1", 12, k_max=4)
    assert rows, "grid should be non-empty"
    assert all(row.ok for row in rows)
    assert all(row.oracle is None for row in rows)
    assert all(row.witness == "increasing" for row in rows)


def test_oracle_rows_skip_beyond_cap():
    rows = verify_theorem("thm1.5", 7, oracle_cap=4)
    marked = {row.n: row.witness for row in rows}
    assert marked[4] == "ok"
    assert marked[5] == marked[6] == marked[7] == "skipped"
    assert all(row.ok for row in rows)
    assert all(row.oracle is None for row in rows if row.n > 4)


def test_negative_oracle_cap_is_rejected(capsys):
    with pytest.raises(ValueError, match="oracle_cap must be >= 0, got -1"):
        verify_theorem("thm1.5", 3, oracle_cap=-1)
    assert all(row.witness == "skipped" for row in verify_theorem("thm1.5", 3, oracle_cap=0))
    assert main(["verify", "thm1.5", "--n-max", "3", "--oracle-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle_cap must be >= 0" in captured.err


def test_thm16_order_bound(capsys, monkeypatch):
    # thm1.6 holds every bk01 member of an order at once, so its n_max stops
    # at BK01_N_MAX, checked before any row is computed.
    monkeypatch.setattr(claims, "_grid_rows", lambda *args: ["rows"])
    assert verify_theorem("thm1.6", BK01_N_MAX) == ["rows"]
    with pytest.raises(ValueError, match=f"n_max must be <= BK01_N_MAX = {BK01_N_MAX}, got {BK01_N_MAX + 1}"):
        verify_theorem("thm1.6", BK01_N_MAX + 1)
    assert main(["verify", "thm1.6", "--n-max", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BK01_N_MAX = 40, got 64" in captured.err


def test_found_witnesses_are_not_relabelled(monkeypatch):
    # The search hands over its witnesses' canonical forms; only the expected side is labelled.
    report = search_extremal(5, 3, "LE")
    expected = enumerate_bk01_members(5)
    labelled = []
    label = claims.canonical_label
    monkeypatch.setattr(claims, "canonical_label", lambda g: labelled.append(g) or label(g))
    assert claims._witness_diff(report.witness_forms, expected) == ((), ())
    assert labelled == expected
    assert claims._witness_diff(report.witness_forms, []) == ((), report.witness_forms)


@pytest.mark.parametrize("tag", ["thm1.3", "thm1.4", "thm1.5", "thm1.6", "lemma2.1"])
def test_oracle_runs_every_row_to_n8(tag):
    rows = verify_theorem(tag, 8, k_max=5, oracle_cap=8)
    assert all(row.ok for row in rows)
    assert not [row for row in rows if row.n <= 8 and (row.oracle is None or row.witness == "skipped")]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "thm1.3", "--n-max", "64"),
        ("verify", "thm1.4", "--n-max", "64"),
        ("verify", "thm1.5", "--n-max", "64"),
        ("verify", "lemma2.1", "--n-max", "64"),
        ("verify", "lemma3.1", "--n-max", "64", "--k-max", "12"),
        ("verify", "thm1.6", "--n-max", "24"),
    ],
    ids=lambda argv: argv[1],
)
def test_verify_table_matches_golden(capsys, argv):
    # The benchmark's golden tables pin every verdict, value and column.
    golden = GOLDENS / ("-".join(arg.lstrip("-") for arg in argv) + ".txt")
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == golden.read_text()
