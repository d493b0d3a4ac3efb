from pathlib import Path

import pytest

from stlab.claims import TAGS, verify_theorem
from stlab.cli import main

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
