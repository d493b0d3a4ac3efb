from pathlib import Path

import pytest

import stlab.claims as claims
import stlab.families as families
from stlab.claims import TAGS, verify_theorem
from stlab.cli import main
from stlab.digraph import MAX_VERTICES
from stlab.families import enumerate_bk01_members
from stlab.search import ISO_CAP, search_extremal

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


def test_oracle_cap_above_iso_cap_is_rejected(capsys):
    # The search labels with canonical_label, so it cannot run above ISO_CAP;
    # asking for it is an error, never rows silently marked skipped.
    with pytest.raises(ValueError, match=rf"ISO_CAP = {ISO_CAP}; oracle_cap 20 with n_max 20 asks for n = 20"):
        verify_theorem("thm1.5", 20, oracle_cap=20)
    with pytest.raises(ValueError, match=f"asks for n = {ISO_CAP + 1}"):
        verify_theorem("thm1.5", ISO_CAP + 1, oracle_cap=64)
    assert main(["verify", "thm1.5", "--n-max", "20", "--oracle-cap", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ISO_CAP = {ISO_CAP}" in captured.err


def test_oracle_cap_above_iso_cap_without_oracle_column():
    # lemma3.1 runs no oracle, so no cap can run one above ISO_CAP.
    assert verify_theorem("lemma3.1", 20, k_max=4, oracle_cap=20) == verify_theorem("lemma3.1", 20, k_max=4)


def test_oracle_cap_above_iso_cap_with_small_grid(monkeypatch):
    # Only the orders the grid reaches count: a large cap with a small n_max is valid.
    rows = verify_theorem("thm1.5", 8, oracle_cap=64)
    assert [row.n for row in rows] == list(range(1, 9))
    assert all(row.ok and row.witness == "ok" and row.oracle == row.formula for row in rows)
    calls = []
    monkeypatch.setattr(claims, "_grid_rows", lambda *args: calls.append(args) or ["rows"])
    verify_theorem("thm1.5", 64, oracle_cap=ISO_CAP)
    verify_theorem("thm1.5", 8, oracle_cap=64)
    assert [args[-1] for args in calls] == [ISO_CAP, 64]


def test_thm16_runs_past_max_vertices():
    # The bk01 energies come from a composition DP and build no Digraph, so
    # MAX_VERTICES does not bound thm1.6.
    rows = verify_theorem("thm1.6", 256)
    assert [row.n for row in rows] == list(range(1, 257))
    assert all(row.ok and row.generator == row.formula for row in rows)


@pytest.mark.parametrize(
    "tag, builder", [("thm1.3", "enumerate_fnk_members"), ("thm1.6", "enumerate_bk01_members")]
)
def test_witnesses_are_built_for_the_oracle_only(monkeypatch, tag, builder):
    # The generator column is measured from structure; the members are the
    # oracle's expected witnesses and are built for n <= oracle_cap alone.
    built = []
    original = getattr(claims, builder)
    monkeypatch.setattr(claims, builder, lambda n, *k: built.append(n) or original(n, *k))
    rows = verify_theorem(tag, MAX_VERTICES)
    assert all(row.ok for row in rows)
    assert sorted(set(built)) == [1, 2, 3, 4, 5]
    assert len(built) == sum(1 for row in rows if row.n <= 5)


@pytest.mark.parametrize(
    "tag, k_max, built_orders",
    [
        ("lemma3.1", 12, []),
        ("thm1.3", 5, [1, 2, 3, 4, 5]),
        ("thm1.4", 5, [1, 2, 3, 4, 5]),
        ("thm1.5", 5, [1, 2, 3, 4, 5]),
        ("lemma2.1", 5, [1, 2, 3, 4, 5]),
    ],
)
def test_fnk_placements_are_measured_from_block_sizes(monkeypatch, tag, k_max, built_orders):
    # Outside the oracle, no fnk chain is built: the placements are measured from their block sizes.
    built = []
    original = families._block_chain
    monkeypatch.setattr(
        families, "_block_chain", lambda sizes, rows: built.append(sum(sizes)) or original(sizes, rows)
    )
    rows = verify_theorem(tag, MAX_VERTICES, k_max)
    assert rows and all(row.ok for row in rows)
    assert sorted(set(built)) == built_orders


@pytest.mark.parametrize("tag", TAGS)
def test_no_row_above_oracle_cap_builds_a_digraph(monkeypatch, tag):
    # Every generator column is measured from block sizes; only the oracle's
    # expected witnesses, at n <= oracle_cap (5 by default), are built.
    original = families._block_chain

    def capped(sizes, rows):
        if sum(sizes) > 5:
            raise AssertionError(f"built an order-{sum(sizes)} digraph above the oracle cap")
        return original(sizes, rows)

    monkeypatch.setattr(families, "_block_chain", capped)
    rows = verify_theorem(tag, 128, k_max=8)
    assert rows and all(row.ok for row in rows)
    assert max(row.n for row in rows) == 128


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


@pytest.mark.parametrize(
    "argv, descents",
    [
        (("--n-max", "7", "--oracle-cap", "4"), [(4, 4), (4, 5), (4, 6)]),
        (("--n-max", "3"), [(3, 4), (3, 5), (3, 6)]),
        (("--n-max", "7", "--oracle-cap", "0"), []),
    ],
)
def test_oracle_runs_one_descent_per_column(monkeypatch, argv, descents):
    # Each k column reads its oracle rows off one descent to min(oracle_cap, n_max).
    calls = []
    every_order = claims.search_every_order

    def recorded(n, length, *args, **kwargs):
        calls.append((n, length))
        return every_order(n, length, *args, **kwargs)

    monkeypatch.setattr(claims, "search_every_order", recorded)
    assert main(["verify", "thm1.3", "--k-max", "5", *argv]) == 0
    assert calls == descents


@pytest.mark.parametrize("tag", ["thm1.3", "thm1.4", "thm1.5", "thm1.6", "lemma2.1"])
def test_oracle_runs_every_row_to_n8(tag):
    rows = verify_theorem(tag, 8, k_max=5, oracle_cap=8)
    assert all(row.ok for row in rows)
    assert not [row for row in rows if row.n <= 8 and (row.oracle is None or row.witness == "skipped")]


@pytest.mark.parametrize("tag", ["lemma2.1", "thm1.6"])
def test_oracle_runs_at_n11(tag):
    # n = 11 is above the orders the tier-1 grids reach elsewhere; each tag takes about a second.
    rows = verify_theorem(tag, 11, oracle_cap=11)
    assert all(row.ok for row in rows)
    (top,) = [row for row in rows if row.n == 11]
    assert top.oracle == top.formula
    assert top.witness == "ok"


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
