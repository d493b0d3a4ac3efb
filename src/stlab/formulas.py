"""Closed-form extremal values, evaluated exactly.

Every quantity is an integer produced from a rational closed form; each
evaluation carries its numerator and denominator and asserts the division
is exact, so an off-by-one regression in a formula cannot hide behind
rounding.  Values are tagged with the claim they come from (see the claim
registry in stlab.claims).

Throughout, n = q*k + r with 0 <= r < k.  When k > n (so q = 0, r = n) the
forms degenerate, on their own, to the complete-digraph values: no cycle
of the forbidden length fits, so nothing is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExactValue:
    """Integer value numerator / denominator, with the claim it comes from.

    The division must be exact; value is its quotient.
    """

    numerator: int
    denominator: int
    source: str

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if self.numerator % self.denominator:
            raise ArithmeticError(
                f"{self.source}: {self.numerator}/{self.denominator} is not an integer"
            )

    @property
    def value(self) -> int:
        return self.numerator // self.denominator


def _check_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")


def ex_arcs_clique(n: int, k: int) -> ExactValue:
    """Maximum edges of an undirected graph of order n with no (k+1)-clique."""
    _check_nk(n, k)
    r = n % k
    return ExactValue((k - 1) * n * n - r * (k - r), 2 * k, "thm1.1")


def ex_arcs_complete_digraph(n: int, k: int) -> ExactValue:
    """Maximum arcs with no complete digraph on k+1 vertices."""
    _check_nk(n, k)
    r = n % k
    return ExactValue(k * n * (n - 1) + (k - 1) * n * n - r * (k - r), 2 * k, "thm1.2")


def ex_arcs_tournament(n: int, k: int) -> ExactValue:
    """Maximum arcs with no (k+1)-vertex tournament; twice the clique bound."""
    _check_nk(n, k)
    r = n % k
    return ExactValue((k - 1) * n * n - r * (k - r), k, "thm1.2")


def ex_arcs_ck(n: int, k: int) -> ExactValue:
    """Maximum arcs of an n-vertex digraph with no directed (k+1)-cycle.

    k = 1 and k = 2 reduce to the complete-digraph and tournament bounds
    (a 2-cycle is a complete digraph on 2 vertices; a 3-cycle lives in any
    3-vertex tournament); k >= 3 has its own closed form.
    """
    _check_nk(n, k)
    if k == 1:
        return ex_arcs_complete_digraph(n, 1)
    if k == 2:
        return ex_arcs_tournament(n, 2)
    r = n % k
    return ExactValue(n * n + (k - 2) * n - r * (k - r), 2, "thm1.3")


def ex_le_cubic(n: int, k: int) -> ExactValue:
    """The k >= 3 closed form for the maximum Laplacian energy, as written.

    Exposed separately so its agreement with the k = 1 and k = 2 forms can
    be tested as an algebraic identity (see dispatcher coherence tests).
    """
    _check_nk(n, k)
    r = n % k
    num = (
        2 * n**3
        + (3 * k - 6) * n**2
        + k * k * n
        + 4 * r**3
        - 3 * k * r * r
        - k * k * r
    )
    return ExactValue(num, 6, "thm1.4")


def ex_le_ck(n: int, k: int) -> ExactValue:
    """Maximum Laplacian energy of an n-vertex digraph with no directed (k+1)-cycle."""
    _check_nk(n, k)
    if k == 1:
        return ExactValue(n * (n - 1) * (2 * n - 1), 6, "thm1.5")
    if k == 2:
        q = n // 2
        return ExactValue(2 * q * (3 * n * n - 6 * q * n + 4 * q * q + 2), 3, "thm1.6")
    return ex_le_cubic(n, k)


def ex_m1_c3(n: int) -> ExactValue:
    """Maximum First Zagreb index of an n-vertex digraph with no directed 3-cycle."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = n // 2
    return ExactValue(2 * q * (3 * n * n - 6 * q * n + 4 * q * q - 1), 3, "lemma2.1")
