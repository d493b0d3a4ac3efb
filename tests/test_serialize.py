import random

import pytest

from stlab import serialize
from stlab.digraph import build_digraph
from stlab.families import gen_bk, gen_fnk, gen_transitive_tournament
from stlab.search import canonical_label, search_extremal
from stlab.serialize import (
    bundle_json,
    digraph_json,
    dumps,
    parse_arclist,
    render_arclist,
    render_dot,
    report_json,
)
from stlab.invariants import measure

from conftest import random_digraph


def test_arclist_golden():
    g = build_digraph(2, [(1, 0), (0, 1)])
    assert render_arclist(g) == "DIGRAPH 2 2\n0 1\n1 0\n"


def test_arclist_round_trip():
    rng = random.Random(41)
    samples = [
        gen_fnk(5, 3, 2),
        gen_bk([4, 2, 3]),
        gen_transitive_tournament(6),
        build_digraph(1, []),
    ] + [random_digraph(rng, rng.randint(1, 9)) for _ in range(30)]
    for g in samples:
        assert parse_arclist(render_arclist(g)) == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("GRAPH 2 1\n0 1\n", "line 1"),
        ("DIGRAPH 2 x\n0 1\n", "line 1"),
        ("DIGRAPH 2 1\n0\n", "line 2"),
        ("DIGRAPH 2 1\n0 one\n", "line 2"),
        ("DIGRAPH 2 2\n0 1\n", "declares 2 arcs"),
        ("DIGRAPH 2 1\n0 0\n", "loop"),
        ("DIGRAPH 2 2\n0 1\n0 1\n", "distinct"),
    ],
)
def test_arclist_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_arclist(text)


def test_dot_structure():
    g = gen_transitive_tournament(3)
    dot = render_dot(g)
    assert dot.startswith("digraph G {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == g.e
    labelled = render_dot(g, {0: 1, 1: 2, 2: 3})
    assert "(B2)" in labelled


def test_digraph_json():
    payload = digraph_json(build_digraph(2, [(0, 1)]))
    assert payload == {"schema": 1, "n": 2, "e": 1, "arcs": [[0, 1]]}


def test_bundle_json():
    payload = bundle_json(measure(gen_fnk(5, 2, 3)))
    assert payload == {
        "schema": 1,
        "le": 44,
        "m1": 40,
        "c2": 4,
        "e": 12,
        "degseq": [4, 4, 2, 2, 0],
    }


def test_report_json_reuses_the_witness_forms(monkeypatch):
    report = search_extremal(5, 2, "ARCS")
    # The kept forms are the witnesses' own labels, so the written hex is unchanged.
    assert [canonical_label(w) for w in report.witnesses] == list(report.witness_forms)
    monkeypatch.setattr(serialize, "canonical_label", lambda g: pytest.fail("witness relabelled"))
    witnesses = report_json(report)["witnesses"]
    assert [w["canonical"] for w in witnesses] == [form.hex() for form in report.witness_forms]
    assert [parse_arclist(w["arclist"]) for w in witnesses] == [form.to_digraph() for form in report.witness_forms]
    assert len(witnesses) == 12


def test_report_json_is_deterministic_and_timeless():
    first = report_json(search_extremal(4, 3, "LE"))
    second = report_json(search_extremal(4, 3, "LE"))
    assert "elapsed_ms" not in first
    assert dumps(first) == dumps(second)
    assert first["schema"] == 1
    assert first["max_value"] == 24
    for witness in first["witnesses"]:
        parsed = parse_arclist(witness["arclist"])
        assert parsed.n == 4
        bytes.fromhex(witness["canonical"])
