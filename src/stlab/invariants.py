"""Exact integer invariants of a digraph.

Everything here is computed in plain Python integers; no floating point.
The headline quantity is the Laplacian energy, the sum of squared
outdegrees plus the number of directed closed 2-walks.  Its equality with
trace(L^2) for L = D+ - A is the bridge to the eigenvalue definition
(sum of squared Laplacian eigenvalues) and is checked here by literally
squaring the integer Laplacian, so the identity test is non-circular.
"""

from __future__ import annotations

from dataclasses import dataclass

from stlab.digraph import Digraph, digon_count, out_degree_sequence


def c2(g: Digraph) -> int:
    """Total number of directed closed walks of length 2 (= trace(A^2)).

    Twice the digon count, which is the popcount of A & A^T on the packed
    bit matrix after a block-swap transpose (see digraph.digon_count).
    """
    return 2 * digon_count(g)


def first_zagreb(g: Digraph) -> int:
    """Sum of squared outdegrees."""
    return sum([d * d for d in map(int.bit_count, g.rows)])


def laplacian_energy(g: Digraph) -> int:
    """First Zagreb index plus c2; equals the sum of squared Laplacian eigenvalues."""
    return first_zagreb(g) + c2(g)


def laplacian_matrix(g: Digraph) -> list[list[int]]:
    """Integer matrix with outdegrees on the diagonal and -1 at arcs."""
    mat = [[0] * g.n for _ in range(g.n)]
    for u in range(g.n):
        mat[u][u] = g.out_degree(u)
        for v in g.out_neighbors(u):
            mat[u][v] = -1
    return mat


def trace_L_squared(g: Digraph) -> int:
    """Trace of the square of the Laplacian matrix, by literal matrix squaring."""
    lap = laplacian_matrix(g)
    rng = range(g.n)
    square = [[sum(lap[i][t] * lap[t][j] for t in rng) for j in rng] for i in rng]
    return sum(square[i][i] for i in rng)


@dataclass(frozen=True)
class InvariantBundle:
    """All exact invariants of one digraph, bundled for reporting.

    degseq is the non-increasing outdegree sequence; le is derived as m1 + c2.
    """

    m1: int
    c2: int
    e: int
    degseq: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.c2 % 2:
            raise ValueError("c2 must be even")

    @property
    def le(self) -> int:
        """Laplacian energy."""
        return self.m1 + self.c2


def measure(g: Digraph) -> InvariantBundle:
    return InvariantBundle(m1=first_zagreb(g), c2=c2(g), e=g.e, degseq=out_degree_sequence(g))
