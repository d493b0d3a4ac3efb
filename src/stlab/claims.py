"""Registry of the verifiable extremal claims and the driver that checks them.

Each tag names one closed-form claim together with its extremal witnesses:

* thm1.3   maximum arc count with no directed (k+1)-cycle, k >= 3; the
           witnesses are all residual-block placements of the chain family.
* thm1.4   maximum Laplacian energy, k >= 3; unique witness is the chain
           with the residual block last (or the uniform chain when r = 0).
* thm1.5   maximum Laplacian energy with no digon (k = 1); unique witness
           is the transitive tournament, the chain of singleton blocks.
* thm1.6   maximum Laplacian energy with no directed 3-cycle (k = 2);
           witnesses are the {4,2}(+{3,1}) bipartite-block chains.
* lemma2.1 maximum First Zagreb index with no directed 3-cycle; unique
           witness is the k = 2 chain with the residual block last.
* lemma3.1 strict Laplacian-energy ordering of the residual placements.

The first five share one shape, so one ClaimSpec table row describes each:
its k grid (3..k_max, or one fixed k), the search objective, the closed
form, the expected witnesses and the generator-side values.  One row loop
checks them all: for each (n, k) it compares the closed form with every
generator value and, within the oracle cap, with the exhaustive search
maximum over digraphs with no directed (k+1)-cycle, with witness sets
matched up to isomorphism.  No generator column builds a digraph, and
the fnk columns are O(q) per row, q = n // k: every vertex of a complete
block has the block's outdegree (families.fnk_placement_blocks), and a
block of b vertices with outdegree d adds b*d arcs and b*d^2 to M1
(families.fnk_block_sums).  thm1.3 measures every placement of the chain
family this way (families.fnk_placement_arcs), lemma2.1 the residual-last
chain's M1 alone (families.fnk_residual_last_m1), thm1.4 and thm1.5 add
its c2 = qk(k-1) + r(r-1) closed 2-walks
(majorization.fnk_residual_last_energy), and thm1.6 measures its chains
by bk01_energy_range.  The witnesses are built for the oracle
alone.  Rows beyond the cap keep their oracle columns marked "skipped" and
still pass on the formula/generator comparison.  lemma3.1 has no oracle;
its rows run the ordering check, which builds no digraph either, and a
failed check is a FAIL row.

The oracle runs one threshold descent per k column, to
min(oracle_cap, n_max) (search.search_every_order): its level n holds
every n-vertex maximiser, so each row's oracle value and witness classes
are those of search_extremal(n, k + 1, ...) without a search per row.

Caps: n_max has none.  The oracle runs for n <= oracle_cap, default 5.
ISO_CAP (16) bounds the search, whose levels and witness classes are told
apart by canonical_label, so an oracle_cap that would run it above ISO_CAP
is an error, not a silent clamp; lemma3.1 runs no oracle and takes any
oracle_cap >= 0.  A larger oracle_cap is the caller's opt-in to the slower
n >= 6 descents.
"""

from __future__ import annotations

from collections import namedtuple

from stlab.digraph import Digraph
# gen_transitive_tournament, first_zagreb and laplacian_energy stay importable here: perfbench's tracer wraps them at this site.
from stlab.families import (
    bk01_energy_range,
    enumerate_bk01_members,
    enumerate_fnk_members,
    fnk_placement_arcs,
    fnk_residual_last_m1,
    gen_fnk,
    gen_transitive_tournament,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck, ex_m1_c3
from stlab.invariants import first_zagreb, laplacian_energy
from stlab.majorization import fnk_residual_last_energy, verify_fnk_ordering
# search_extremal stays importable here: perfbench's tracer wraps it at this site.
from stlab.search import ISO_CAP, CanonicalForm, canonical_label, search_every_order, search_extremal

TAGS = ("thm1.3", "thm1.4", "thm1.5", "thm1.6", "lemma2.1", "lemma3.1")

WITNESS_OK = "ok"
WITNESS_MISMATCH = "mismatch"
WITNESS_SKIPPED = "skipped"

Forms = tuple[CanonicalForm, ...]


class ClaimRow(
    namedtuple(
        "ClaimRow", "tag n k formula generator oracle witness ok missing extra detail", defaults=((), (), "")
    )
):
    """One (n, k) row of a claim check.

    generator and oracle are None where the row has no such value.  missing
    and extra, default (), hold the witness classes (CanonicalForms) the
    claim expects but the oracle lacks, and vice versa.  detail, default "",
    says why a row whose check raised failed.
    """

    __slots__ = ()


class ClaimSpec(namedtuple("ClaimSpec", "k objective formula members values")):
    """One oracle-checked claim: max of ``objective`` with no directed (k+1)-cycle.

    ``k`` is the claim's fixed k, or None for the grid k = 3..k_max.
    ``formula``, ``members`` and ``values`` are functions of (n, k):
    ``formula`` gives the closed form's ExactValue, ``members`` lists the
    expected extremal witnesses, Digraphs built only for the oracle, and
    ``values`` lists the generator side's ints, measured without building a
    digraph, whose first value is the generator column.
    """

    __slots__ = ()


def _fnk_extremal(n: int, k: int) -> list[Digraph]:
    """The unique extremal chain: residual block last (uniform chain when r = 0)."""
    q, r = divmod(n, k)
    return [gen_fnk(n, k, q + 1 if r else None)]


def _fnk_extremal_le(n: int, k: int) -> list[int]:
    """Laplacian energy of the residual-last chain, the last placement."""
    return [fnk_residual_last_energy(n, k)]


def _fnk_extremal_m1(n: int, k: int) -> list[int]:
    """First Zagreb index of the residual-last chain, the last placement's sum of squared outdegrees."""
    return [fnk_residual_last_m1(n, k)]


def _claim_specs() -> dict[str, ClaimSpec]:
    # Built per call, so a function patched on this module (as in tests, or
    # perfbench's tracer) is the one the rows call.
    return {
        "thm1.3": ClaimSpec(None, "ARCS", ex_arcs_ck, enumerate_fnk_members, fnk_placement_arcs),
        "thm1.4": ClaimSpec(None, "LE", ex_le_ck, _fnk_extremal, _fnk_extremal_le),
        # The transitive tournament is the k = 1 chain.
        "thm1.5": ClaimSpec(1, "LE", ex_le_ck, _fnk_extremal, _fnk_extremal_le),
        "thm1.6": ClaimSpec(
            2, "LE", ex_le_ck, lambda n, k: enumerate_bk01_members(n), lambda n, k: list(bk01_energy_range(n))
        ),
        "lemma2.1": ClaimSpec(2, "M1", lambda n, k: ex_m1_c3(n), _fnk_extremal, _fnk_extremal_m1),
    }


def _witness_diff(found: Forms, expected: list[Digraph]) -> tuple[Forms, Forms]:
    """(missing, extra): expected classes not found, found classes not expected.

    found holds the canonical forms of the search's witnesses, so only the
    expected side is labelled here.
    """
    want = {canonical_label(g) for g in expected}
    got = set(found)
    return tuple(sorted(want - got)), tuple(sorted(got - want))


def verify_theorem(tag: str, n_max: int, k_max: int = 5, oracle_cap: int = 5) -> list[ClaimRow]:
    """Check one tagged claim over a grid of orders; one row per (n, k).

    A grid without rows is a usage error, never a vacuous pass.
    """
    if tag not in TAGS:
        raise ValueError(f"unknown tag {tag!r}; expected one of {TAGS}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if oracle_cap < 0:
        raise ValueError(f"oracle_cap must be >= 0, got {oracle_cap}")
    rows = _grid_rows(tag, n_max, k_max, oracle_cap)
    if not rows:
        raise ValueError(f"empty grid: {tag} has no rows with n <= {n_max} and k <= {k_max}")
    return rows


def _grid_rows(tag: str, n_max: int, k_hi: int, oracle_cap: int) -> list[ClaimRow]:
    if tag == "lemma3.1":
        return _ordering_rows(n_max, k_hi)
    top = min(oracle_cap, n_max)
    if top > ISO_CAP:
        raise ValueError(
            f"the oracle is capped at n <= ISO_CAP = {ISO_CAP}; oracle_cap {oracle_cap} "
            f"with n_max {n_max} asks for n = {top}"
        )
    spec = _claim_specs()[tag]
    rows: list[ClaimRow] = []
    for k in range(3, k_hi + 1) if spec.k is None else (spec.k,):
        # One descent per column: its level n holds every order-n maximiser.
        reports = search_every_order(top, k + 1, spec.objective) if top else []
        for n in range(1, n_max + 1):
            formula = spec.formula(n, k).value
            values = spec.values(n, k)
            oracle, witness, missing, extra = None, WITNESS_SKIPPED, (), ()
            if n <= top:
                report = reports[n - 1]
                oracle = report.max_value
                missing, extra = _witness_diff(report.witness_forms, spec.members(n, k))
                witness = WITNESS_MISMATCH if missing or extra else WITNESS_OK
            ok = set(values) == {formula} and (oracle in (None, formula)) and witness != WITNESS_MISMATCH
            rows.append(ClaimRow(tag, n, k, formula, values[0], oracle, witness, ok, missing, extra))
    return rows


def _ordering_rows(n_max: int, k_hi: int) -> list[ClaimRow]:
    """lemma3.1: no oracle column; the ordering check is generator-side exact."""
    rows: list[ClaimRow] = []
    for k in range(3, k_hi + 1):
        for n in range(k + 1, n_max + 1):
            if n % k == 0:
                continue
            formula = ex_le_ck(n, k).value
            detail = ""
            try:
                energies = verify_fnk_ordering(n, k)
                generator = energies[-1][1]
                ok = generator == formula
                witness = "increasing" if ok else WITNESS_MISMATCH
            except ArithmeticError as exc:
                generator = None
                witness = WITNESS_MISMATCH
                ok = False
                detail = str(exc)
            rows.append(ClaimRow("lemma3.1", n, k, formula, generator, None, witness, ok, detail=detail))
    return rows
