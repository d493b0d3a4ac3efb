import argparse
import io
import json

import pytest

from stlab import cli, families, majorization
from stlab.claims import TAGS
from stlab.cli import main
from stlab.digraph import build_digraph
from stlab.search import canonical_label, search_every_order
from stlab.serialize import parse_arclist


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_arclist(capsys):
    code, out, _ = run(capsys, "gen", "fnk:n=4,k=3,s=2", "--format", "arcs")
    assert code == 0
    assert out.startswith("DIGRAPH 4 9\n")
    assert len(out.strip().splitlines()) == 10


def test_gen_dot_has_block_labels(capsys):
    code, out, _ = run(capsys, "gen", "tt:n=3", "--format", "dot")
    assert code == 0
    assert out.count("->") == 3
    assert "(B1)" in out


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "bk:parts=4+1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert (payload["n"], payload["e"]) == (5, 12)


def test_gen_bad_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "fnk:n=5,k=3")
    assert code == 2
    assert "error:" in err

    code, out, err = run(capsys, "gen", "tt:n=0")
    assert (code, out) == (2, "")
    assert "order n must be >= 1" in err


@pytest.mark.parametrize("spec", ["kd:n=20000", "tt:n=65", "fnk:n=20000,k=3,s=1", "bk:parts=20000"])
def test_gen_above_max_vertices_fails_before_building(capsys, monkeypatch, spec):
    def no_build(*args):
        raise AssertionError("rows built for an order above MAX_VERTICES")

    monkeypatch.setattr(families, "_block_chain", no_build)
    code, out, err = run(capsys, "gen", spec)
    assert (code, out) == (2, "")
    n = spec.partition("=")[2].partition(",")[0]
    assert f"vertex count must be in 1..64, got {n}" in err
    with pytest.raises(ValueError, match=f"got {n}"):
        families.build_family(families.FamilySpec("kd", n=int(n)))
    with pytest.raises(ValueError, match=f"got {n}"):
        families.gen_fnk(int(n), 3, 1)


def test_gen_repeated_spec_field_is_usage_error(capsys):
    code, out, err = run(capsys, "gen", "fnk:n=4,k=3,s=2,n=5")
    assert (code, out) == (2, "")
    assert "field n= is repeated" in err


def test_measure_spec(capsys):
    code, out, _ = run(capsys, "measure", "fnk:n=5,k=2,s=3")
    assert code == 0
    payload = json.loads(out)
    assert {k: payload[k] for k in ("le", "m1", "c2", "e")} == {
        "le": 44,
        "m1": 40,
        "c2": 4,
        "e": 12,
    }


def test_measure_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "digon.arcs"
    path.write_text("DIGRAPH 2 2\n0 1\n1 0\n")
    code, out, _ = run(capsys, "measure", str(path))
    assert code == 0
    assert json.loads(out)["le"] == 4

    monkeypatch.setattr("sys.stdin", io.StringIO("DIGRAPH 2 2\n0 1\n1 0\n"))
    code, out, _ = run(capsys, "measure", "-")
    assert code == 0
    assert json.loads(out)["le"] == 4


def test_measure_missing_file(capsys):
    code, _, err = run(capsys, "measure", "no-such-file.arcs")
    assert code == 2
    assert "no such file" in err


def test_free_pass_and_fail(capsys):
    code, out, _ = run(capsys, "free", "tt:n=5", "--len", "3")
    assert code == 0
    assert "C3-free" in out

    code, out, _ = run(capsys, "free", "kd:n=3", "--len", "3")
    assert code == 1
    arc_lines = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert len(arc_lines) == 3


def test_free_longer_than_n_is_vacuous(capsys):
    code, out, _ = run(capsys, "free", "kd:n=3", "--len", "4")
    assert code == 0
    assert out == "C4-free\n"

    code, _, err = run(capsys, "free", "kd:n=3", "--len", "1")
    assert code == 2
    assert "cycle length" in err


def test_formula(capsys):
    code, out, _ = run(capsys, "formula", "--quantity", "ex_le", "--n", "5", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["numerator"], payload["denominator"]) == (44, 132, 3)
    assert payload["source"] == "thm1.6"

    code, out, _ = run(capsys, "formula", "--quantity", "ex_m1", "--n", "5")
    assert json.loads(out)["value"] == 40

    # ex_m1_c3 takes no k: it is the k = 2 claim, so only --k 2 is accepted.
    code, out, err = run(capsys, "formula", "--quantity", "ex_m1", "--n", "5", "--k", "9")
    assert (code, out) == (2, "")
    assert "k = 2 only" in err
    code, out, _ = run(capsys, "formula", "--quantity", "ex_m1", "--n", "5", "--k", "2")
    assert code == 0
    assert json.loads(out)["value"] == 40

    code, _, err = run(capsys, "formula", "--quantity", "ex_le", "--n", "5")
    assert code == 2
    assert "--k is required" in err


BK_423_ARCS = (
    "0 2,0 3,0 4,0 5,0 6,0 7,0 8,1 2,1 3,1 4,1 5,1 6,1 7,1 8,2 0,2 1,2 4,2 5,2 6,2 7,"
    "2 8,3 0,3 1,3 4,3 5,3 6,3 7,3 8,4 5,4 6,4 7,4 8,5 4,5 6,5 7,5 8,6 8,7 8,8 6,8 7"
)

STDOUT_PINS = {
    "measure": (
        ["measure", "fnk:n=5,k=2,s=3"],
        '{\n  "schema": 1,\n  "le": 44,\n  "m1": 40,\n  "c2": 4,\n  "e": 12,\n'
        '  "degseq": [\n    4,\n    4,\n    2,\n    2,\n    0\n  ]\n}\n',
    ),
    "formula": (
        ["formula", "--quantity", "ex_le", "--n", "5", "--k", "2"],
        '{\n  "schema": 1,\n  "quantity": "ex_le",\n  "n": 5,\n  "k": 2,\n  "value": 44,\n'
        '  "numerator": 132,\n  "denominator": 3,\n  "source": "thm1.6"\n}\n',
    ),
    "gen": (
        ["gen", "bk:parts=4+2+3", "--format", "json"],
        '{\n  "schema": 1,\n  "n": 9,\n  "e": 40,\n  "arcs": [\n'
        + ",\n".join(
            "    [\n      {},\n      {}\n    ]".format(*arc.split()) for arc in BK_423_ARCS.split(",")
        )
        + "\n  ]\n}\n",
    ),
}


@pytest.mark.parametrize("argv, expected", STDOUT_PINS.values(), ids=STDOUT_PINS.keys())
def test_stdout_bytes(capsys, argv, expected):
    assert run(capsys, *argv)[:2] == (0, expected)


def test_search_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(
        capsys, "search", "--n", "4", "--forbid-cycle", "4", "--objective", "le"
    )
    assert code == 0
    assert json.loads(out)["max_value"] == 33

    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "search", "--n", "4", "--forbid-cycle", "4", "--objective", "le",
        "--out", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["max_value"] == 33
    parse_arclist(payload["witnesses"][0]["arclist"])


def test_search_n6_requires_flag(capsys):
    code, _, err = run(capsys, "search", "--n", "6", "--forbid-cycle", "3", "--objective", "le")
    assert code == 2
    assert "--allow-slow" in err
    # Above ISO_CAP the cap is the fault, with or without the flag.
    code, _, err = run(capsys, "search", "--n", "17", "--forbid-cycle", "3", "--objective", "le")
    assert code == 2
    assert "ISO_CAP" in err
    code, out, _ = run(capsys, "search", "--n", "6", "--forbid-cycle", "3", "--objective", "le", "--allow-slow")
    assert code == 0
    assert json.loads(out)["max_value"] == 76


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm1.6", "--n-max", "4")
    assert code == 0
    assert "4/4 rows PASS" in out

    code, out, _ = run(capsys, "verify", "thm1.5", "--n-max", "6", "--oracle-cap", "4")
    assert code == 0
    assert "skipped" in out


def test_verify_mismatch_lists_witness_classes(capsys, monkeypatch):
    # The oracle reports the empty digraph instead of the transitive tournament at n = 3.
    def wrong_witnesses(n, *args, **kwargs):
        reports = search_every_order(n, *args, **kwargs)
        empty = build_digraph(3, [])
        reports[2] = reports[2]._replace(witness_forms=(canonical_label(empty),))
        return reports

    monkeypatch.setattr("stlab.claims.search_every_order", wrong_witnesses)
    code, out, _ = run(capsys, "verify", "thm1.5", "--n-max", "3")
    assert code == 1
    table, details = out.split("thm1.5 n=3 k=1: missing witness class\n")
    assert table.splitlines()[-1].split()[-2:] == ["mismatch", "FAIL"]
    assert details == (
        "DIGRAPH 3 3\n1 0\n2 0\n2 1\n"
        "thm1.5 n=3 k=1: extra witness class\n"
        "DIGRAPH 3 0\n"
        "2/3 rows PASS\n"
    )


def test_verify_failed_ordering_is_a_fail_row(capsys, monkeypatch):
    # A placement that is not non-increasing fails its lemma3.1 row (exit 1), not the command (exit 2).
    blocks = majorization.fnk_placement_blocks

    def reversed_tail(n, k):
        head, resid, tail = blocks(n, k)
        return (head, resid, tail[::-1]) if (n, k) == (7, 3) else (head, resid, tail)

    monkeypatch.setattr(majorization, "fnk_placement_blocks", reversed_tail)
    code, out, err = run(capsys, "verify", "lemma3.1", "--n-max", "7", "--k-max", "3")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-3].split() == ["lemma3.1", "7", "3", "147", "-", "-", "mismatch", "FAIL"]
    # The row says why it failed, under the table.
    assert lines[-2] == "lemma3.1 n=7 k=3: placement 0 is not non-increasing: (6, 2, 2, 2, 5, 5, 5)"
    assert lines[-1] == "2/3 rows PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma3.1", "--k-max", "2"),
        ("thm1.3", "--k-max", "2"),
        ("lemma3.1", "--n-max", "3"),
    ],
)
def test_verify_empty_grid_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "rows PASS" not in out
    assert "error: empty grid" in err


def test_verify_n_max_beyond_vertex_cap_runs(capsys, monkeypatch):
    # --n-max has no upper bound: past MAX_VERTICES the rows are measured, and
    # the oracle still runs only up to --oracle-cap, in one descent.
    searched = []

    def recorded_search(n, *args, **kwargs):
        searched.append(n)
        return search_every_order(n, *args, **kwargs)

    monkeypatch.setattr("stlab.claims.search_every_order", recorded_search)
    code, out, err = run(capsys, "verify", "thm1.5", "--n-max", "65", "--oracle-cap", "3")
    assert (code, err) == (0, "")
    assert "65/65 rows PASS" in out
    assert searched == [3]


SEARCH_ARGV = ["search", "--n", "4", "--forbid-cycle", "3", "--objective", "le"]
VERIFY_ARGVS = {tag: ["verify", tag, "--n-max", "5", "--k-max", "4"] for tag in TAGS}


@pytest.mark.parametrize(
    "argv",
    [pytest.param(SEARCH_ARGV, id="search")]
    + [pytest.param(argv, id=tag) for tag, argv in VERIFY_ARGVS.items()]
    + [pytest.param(argv + ["--oracle-cap", "0"], id=f"{tag}-cap0") for tag, argv in VERIFY_ARGVS.items()],
)
def test_jobs_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "0"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "jobs" in captured.err


@pytest.mark.parametrize("argv", [SEARCH_ARGV, VERIFY_ARGVS["lemma3.1"]], ids=["search", "verify"])
def test_jobs_two_is_accepted(capsys, argv):
    assert run(capsys, *argv, "--jobs", "2")[0] == 0


def test_search_unwritable_out_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, *SEARCH_ARGV, "--out", str(tmp_path / "no-such-dir" / "x.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "No such file or directory" in err


def test_measure_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "measure", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


# Good and bad argvs for every subcommand, plus the argvs that bypass the lean parser.
PARSER_ARGVS = (
    [[], ["-h"], ["--he"], ["bogus"], ["--n", "4", "search"], ["-x"]]
    + [[name, "--help"] for name in cli.COMMANDS]
    + [[name] for name in cli.COMMANDS]
    + [
        SEARCH_ARGV,
        SEARCH_ARGV + ["--connected-only", "--allow-slow", "--jobs", "2", "--out", "r.json"],
        SEARCH_ARGV + ["--bogus"],
        SEARCH_ARGV + ["extra"],
        SEARCH_ARGV + ["--", "extra"],
        SEARCH_ARGV + ["--jobs", "0"],
        SEARCH_ARGV + ["--jobs", "x"],
        SEARCH_ARGV + ["-h", "--bogus"],
        ["search", "--n=5", "--forbid-cycle=3", "--objective=m1"],
        ["search", "--n", "4", "--forb", "3", "--obj", "arcs"],
        ["search", "--n", "4", "--o", "le", "--forbid-cycle", "3"],
        ["search", "--n", "4", "--forbid-cycle", "3", "--objective", "xx"],
        ["search", "--n", "x", "--forbid-cycle", "3", "--objective", "le"],
        ["search", "--he"],
        ["gen", "tt:n=3"],
        ["gen", "--format=dot", "tt:n=3"],
        ["gen", "tt:n=3", "--format", "png"],
        ["gen", "tt:n=3", "tt:n=4"],
        ["gen", "--", "tt:n=3"],
        ["measure", "-"],
        ["measure", "a.arcs", "b.arcs"],
        ["free", "kd:n=3", "--len", "3"],
        ["free", "kd:n=3"],
        ["free", "kd:n=3", "--len", "x"],
        ["formula", "--quantity", "ex_le", "--n", "5", "--k", "2"],
        ["formula", "--q", "ex_m1", "--n", "5"],
        ["formula", "--quantity", "bad", "--n", "5"],
        ["formula", "--quantity", "ex_le", "--n", "5", "--k", "2", "--k", "3"],
        ["verify", "thm1.6", "--n-max", "4"],
        ["verify", "lemma3.1", "--n-max", "8", "--k-max", "4", "--oracle-cap", "0", "--jobs", "2"],
        ["verify", "nope"],
        ["verify", "thm1.6", "--jobs", "0"],
        ["verify", "thm1.6", "--n", "4"],
        ["verify", "thm1.6", "more"],
    ]
)


def _parse_outcome(capsys, parse, argv):
    try:
        outcome = ("parsed", vars(parse(list(argv))))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome + (captured.out, captured.err)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "<none>")
def test_lean_parse_matches_full_parser(capsys, argv):
    lean = _parse_outcome(capsys, cli._parse, argv)
    full = _parse_outcome(capsys, lambda args: cli._build_parser().parse_args(args), argv)
    assert lean == full
    if argv[1:] == ["--help"]:
        assert lean[:2] == ("exit", 0) and lean[2].startswith(f"usage: stlab {argv[0]} [-h]")


def test_known_subcommand_builds_one_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        built.clear()
        assert run(capsys, *SEARCH_ARGV)[0] == 0
        assert built == ["stlab search"]
