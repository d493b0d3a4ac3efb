"""The value types are collections.namedtuple subclasses: record semantics, and a lean import.

Importing stlab.cli loads none of dataclasses, inspect, typing or pathlib,
and importing stlab loads no enum either (argparse, which the CLI needs, does).
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from stlab.claims import _claim_specs, verify_theorem
from stlab.cycles import find_cycle_of_length
from stlab.digraph import Digraph
from stlab.families import gen_fnk, parse_family_spec
from stlab.formulas import ExactValue, ex_le_ck
from stlab.invariants import InvariantBundle, measure
from stlab.search import canonical_label, search_extremal

from conftest import random_digraph

ROOT = Path(__file__).resolve().parents[1]

# One builder per value type; every call builds a fresh value with equal fields.
BUILDERS = {
    "Digraph": lambda: gen_fnk(5, 3, 2),
    "ExactValue": lambda: ex_le_ck(5, 2),
    "InvariantBundle": lambda: measure(gen_fnk(5, 3, 2)),
    "CycleWitness": lambda: find_cycle_of_length(gen_fnk(5, 3, 2), 3),
    "FamilySpec": lambda: parse_family_spec("bk:parts=4+2+3"),
    "ClaimRow": lambda: verify_theorem("thm1.5", 3)[-1],
    "ClaimSpec": lambda: _claim_specs()["thm1.4"],
    "ExtremalSearchReport": lambda: search_extremal(4, 3, "LE")._replace(elapsed_ms=0),
    "CanonicalForm": lambda: canonical_label(gen_fnk(5, 3, 2)),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_record_semantics(name):
    value, twin = BUILDERS[name](), BUILDERS[name]()
    assert type(value).__name__ == name
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value) and restored == value


def test_digraphs_and_forms_sort_as_their_field_tuples():
    rng = random.Random(18)
    graphs = [random_digraph(rng, rng.randint(1, 5), rng.random()) for _ in range(40)]
    assert [(g.n, g.rows) for g in sorted(graphs)] == sorted((g.n, g.rows) for g in graphs)
    forms = [canonical_label(g) for g in graphs]
    assert [form.data for form in sorted(forms)] == sorted(form.data for form in forms)


@pytest.mark.parametrize(
    "bogus,error,message",
    [
        (tuple.__new__(Digraph, (2, (1, 0))), ValueError, r"loop arc \(0, 0\)"),
        (tuple.__new__(ExactValue, (1, 2, "x")), ArithmeticError, "x: 1/2 is not an integer"),
        (tuple.__new__(InvariantBundle, (0, 1, 0, ())), ValueError, "c2 must be even"),
    ],
    ids=["Digraph", "ExactValue", "InvariantBundle"],
)
def test_unpickling_and_replace_validate_again(bogus, error, message):
    # tuple.__new__ skips validation; unpickling and _replace go through __new__ again.
    with pytest.raises(error, match=message):
        pickle.loads(pickle.dumps(bogus))
    with pytest.raises(error, match=message):
        bogus._replace()


def test_bundle_repr_matches_the_readme_example():
    lines = (ROOT / "README.md").read_text().splitlines()
    example = next(line for line in lines if line.startswith("print(measure(member))"))
    assert repr(measure(gen_fnk(5, 3, r_position=2))) == example.split("# ", 1)[1]


def test_import_loads_no_dataclasses_inspect_typing_or_pathlib():
    # pytest has imported all of them already, so a fresh interpreter checks; -S
    # keeps site-packages' .pth hooks out of its modules.  The library alone
    # loads no enum; the CLI's argparse imports re, which does.
    code = (
        "import sys, stlab; print(sorted({'enum'} & set(sys.modules)));"
        "import stlab.cli; print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n"
