"""Registry of the verifiable extremal claims and the driver that checks them.

Each tag names one closed-form claim together with its extremal witnesses:

* thm1.3   maximum arc count with no directed (k+1)-cycle, k >= 3; the
           witnesses are all residual-block placements of the chain family.
* thm1.4   maximum Laplacian energy, k >= 3; unique witness is the chain
           with the residual block last (or the uniform chain when r = 0).
* thm1.5   maximum Laplacian energy with no digon (k = 1); unique witness
           is the transitive tournament.
* thm1.6   maximum Laplacian energy with no directed 3-cycle (k = 2);
           witnesses are the {4,2}(+{3,1}) bipartite-block chains.
* lemma2.1 maximum First Zagreb index with no directed 3-cycle; unique
           witness is the k = 2 chain with the residual block last.
* lemma3.1 strict Laplacian-energy ordering of the residual placements.

For each (n, k) row the driver compares the closed form against the
generated family and, within the enumeration cap, against the exhaustive
search maximum with witness sets matched up to isomorphism.  Rows beyond
the cap keep their oracle columns marked "skipped" and still pass on the
formula/generator comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from stlab.digraph import Digraph
from stlab.families import enumerate_bk01_members, enumerate_fnk_members, gen_fnk, gen_transitive_tournament
from stlab.formulas import ex_arcs_ck, ex_le_ck, ex_m1_c3
from stlab.invariants import first_zagreb, laplacian_energy
from stlab.majorization import verify_fnk_ordering
from stlab.search import ENUM_CAP, CanonicalForm, canonical_label, search_extremal

TAGS = ("thm1.3", "thm1.4", "thm1.5", "thm1.6", "lemma2.1", "lemma3.1")

WITNESS_OK = "ok"
WITNESS_MISMATCH = "mismatch"
WITNESS_SKIPPED = "skipped"

Forms = tuple[CanonicalForm, ...]


@dataclass(frozen=True)
class ClaimRow:
    tag: str
    n: int
    k: int | None
    formula: int
    generator: int | None
    oracle: int | None
    witness: str
    ok: bool
    # Witness classes the claim expects but the oracle lacks, and vice versa.
    missing: Forms = ()
    extra: Forms = ()


def _fnk_extremal_member(n: int, k: int) -> Digraph:
    q, r = divmod(n, k)
    return gen_fnk(n, k, q + 1 if r else None)


def _witness_diff(found: tuple[Digraph, ...], expected: list[Digraph]) -> tuple[Forms, Forms]:
    """(missing, extra): expected classes not found, found classes not expected."""
    want = {canonical_label(g) for g in expected}
    got = {canonical_label(g) for g in found}
    return tuple(sorted(want - got)), tuple(sorted(got - want))


def _oracle_row(
    n: int,
    forbidden_len: int,
    objective: str,
    expected: list[Digraph],
    oracle_cap: int,
    jobs: int,
) -> tuple[int | None, str, Forms, Forms]:
    if n > oracle_cap:
        return None, WITNESS_SKIPPED, (), ()
    report = search_extremal(
        n, forbidden_len, objective, jobs=jobs, allow_slow=oracle_cap >= ENUM_CAP
    )
    missing, extra = _witness_diff(report.witnesses, expected)
    witness = WITNESS_MISMATCH if missing or extra else WITNESS_OK
    return report.max_value, witness, missing, extra


def verify_theorem(
    tag: str,
    n_max: int,
    k_max: int | None = None,
    oracle_cap: int = 5,
    jobs: int = 1,
) -> list[ClaimRow]:
    """Check one tagged claim over a grid of orders; one row per (n, k).

    A grid without rows is a usage error, never a vacuous pass.
    """
    if tag not in TAGS:
        raise ValueError(f"unknown tag {tag!r}; expected one of {TAGS}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    k_hi = k_max if k_max is not None else 5
    rows = _grid_rows(tag, n_max, k_hi, min(oracle_cap, ENUM_CAP), jobs)
    if not rows:
        raise ValueError(f"empty grid: {tag} has no rows with n <= {n_max} and k <= {k_hi}")
    return rows


def _grid_rows(tag: str, n_max: int, k_hi: int, oracle_cap: int, jobs: int) -> list[ClaimRow]:
    rows: list[ClaimRow] = []

    if tag == "thm1.3":
        for k in range(3, k_hi + 1):
            for n in range(1, n_max + 1):
                formula = ex_arcs_ck(n, k).value
                members = enumerate_fnk_members(n, k)
                sizes = {g.e for g in members}
                generator = members[0].e
                gen_ok = sizes == {formula}
                oracle, witness, missing, extra = _oracle_row(n, k + 1, "ARCS", members, oracle_cap, jobs)
                ok = gen_ok and (oracle in (None, formula)) and witness != WITNESS_MISMATCH
                rows.append(ClaimRow(tag, n, k, formula, generator, oracle, witness, ok, missing, extra))
        return rows

    if tag == "thm1.4":
        for k in range(3, k_hi + 1):
            for n in range(1, n_max + 1):
                formula = ex_le_ck(n, k).value
                member = _fnk_extremal_member(n, k)
                generator = laplacian_energy(member)
                oracle, witness, missing, extra = _oracle_row(n, k + 1, "LE", [member], oracle_cap, jobs)
                ok = generator == formula and (oracle in (None, formula)) and witness != WITNESS_MISMATCH
                rows.append(ClaimRow(tag, n, k, formula, generator, oracle, witness, ok, missing, extra))
        return rows

    if tag == "thm1.5":
        for n in range(1, n_max + 1):
            formula = ex_le_ck(n, 1).value
            member = gen_transitive_tournament(n)
            generator = laplacian_energy(member)
            oracle, witness, missing, extra = _oracle_row(n, 2, "LE", [member], oracle_cap, jobs)
            ok = generator == formula and (oracle in (None, formula)) and witness != WITNESS_MISMATCH
            rows.append(ClaimRow(tag, n, 1, formula, generator, oracle, witness, ok, missing, extra))
        return rows

    if tag == "thm1.6":
        for n in range(1, n_max + 1):
            formula = ex_le_ck(n, 2).value
            members = enumerate_bk01_members(n)
            energies = {laplacian_energy(g) for g in members}
            generator = laplacian_energy(members[0])
            gen_ok = energies == {formula}
            oracle, witness, missing, extra = _oracle_row(n, 3, "LE", members, oracle_cap, jobs)
            ok = gen_ok and (oracle in (None, formula)) and witness != WITNESS_MISMATCH
            rows.append(ClaimRow(tag, n, 2, formula, generator, oracle, witness, ok, missing, extra))
        return rows

    if tag == "lemma2.1":
        for n in range(1, n_max + 1):
            formula = ex_m1_c3(n).value
            member = _fnk_extremal_member(n, 2)
            generator = first_zagreb(member)
            oracle, witness, missing, extra = _oracle_row(n, 3, "M1", [member], oracle_cap, jobs)
            ok = generator == formula and (oracle in (None, formula)) and witness != WITNESS_MISMATCH
            rows.append(ClaimRow(tag, n, k=2, formula=formula, generator=generator, oracle=oracle, witness=witness, ok=ok, missing=missing, extra=extra))
        return rows

    # lemma3.1: no oracle column; the ordering check is generator-side exact.
    for k in range(3, k_hi + 1):
        for n in range(k + 1, n_max + 1):
            if n % k == 0:
                continue
            formula = ex_le_ck(n, k).value
            try:
                energies = verify_fnk_ordering(n, k)
                generator = energies[-1][1]
                ok = generator == formula
                witness = "increasing" if ok else WITNESS_MISMATCH
            except ArithmeticError:
                generator = None
                witness = WITNESS_MISMATCH
                ok = False
            rows.append(ClaimRow(tag, n, k, formula, generator, None, witness, ok))
    return rows
