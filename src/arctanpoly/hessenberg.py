"""Hessenberg companion matrix of the monic family pi_n = beta_n/(n+1).

Any monic sequence with degrees rising by one satisfies an extended
recurrence p_{n+1} = x p_n - sum_j [n over j] p_{n-j}; stacking the bracket
coefficients upward in each column above a unit subdiagonal yields a matrix
whose leading principal characteristic polynomials are exactly the p_n.
For pi_n the brackets are Bernoulli-weighted:

    [n over j] = 2^(j+1)/(j+1) * C(n, j) * |B_{j+1}|   (j >= 1),
    [n over 0] = 0,

so every even offset j >= 2 vanishes along with the odd Bernoulli numbers,
the trace is zero, and the eigenvalues are cot(k*pi/(n+1)).  ``bracket``
is defined in ``families``, whose Bernoulli-weighted route steps with it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import calculus, families
from .exact import format_rational
from .families import BuildMethod, SequenceKind, bracket
from .highprec import DEFAULT_PRECISION, check_precision
from .poly import Polynomial


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix, constrained to the shape charpoly exploits:
    zero below the first subdiagonal and ones on it."""

    entries: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(n):
                if i == j + 1 and self.entries[i][j] != 1:
                    raise ValueError("subdiagonal entries must be 1")
                if i > j + 1 and self.entries[i][j] != 0:
                    raise ValueError("entries below the subdiagonal must be 0")

    @property
    def n(self) -> int:
        return len(self.entries)

    def json(self) -> str:
        rows = [[format_rational(Fraction(v)) for v in row] for row in self.entries]
        return json.dumps({"n": self.n, "entries": rows})


def build_H(n: int) -> RationalMatrix:
    """The n x n companion matrix: column k carries [k over 0..k] upward
    from the diagonal, with a unit subdiagonal below."""
    if n < 1:
        raise ValueError("n must be positive")
    entries = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(j + 1):
            entries[i][j] = bracket(j, j - i)
        if j + 1 < n:
            entries[j + 1][j] = Fraction(1)
    return RationalMatrix(tuple(tuple(row) for row in entries))


def charpoly(matrix: RationalMatrix) -> Polynomial:
    """Exact det(xI - M) through the leading-principal recurrence.

    With a unit subdiagonal, the determinant of the k x k leading block of
    xI - M expands along its last column into

        p_k = (x - M[k-1][k-1]) p_{k-1} - sum_{i>=2} M[k-i][k-1] p_{k-i},

    which is O(n^2) ring operations and never leaves exact arithmetic.
    """
    n = matrix.n
    ps = [Polynomial.one()]
    x_poly = Polynomial.x()
    for k in range(1, n + 1):
        acc = (x_poly - matrix.entries[k - 1][k - 1]) * ps[k - 1]
        for i in range(2, k + 1):
            coeff = matrix.entries[k - i][k - 1]
            if coeff:
                acc = acc - coeff * ps[k - i]
        ps.append(acc)
    return ps[n]


def eigen_check(
    n: int,
    precision_bits: int = DEFAULT_PRECISION,
    tolerance: float = 1e-9,
) -> bool:
    """True iff charpoly(H_n) is exactly pi_n and every cot(k*pi/(n+1))
    certifies as a simple root of beta_n = (n+1) pi_n, i.e. as a simple
    eigenvalue of H_n."""
    check_precision(precision_bits)
    if charpoly(build_H(n)) != monic_reference(n):
        return False
    return calculus.roots(SequenceKind.BETA, n, precision_bits, tolerance).all_certified


def monic_reference(n: int) -> Polynomial:
    """pi_n = beta_n/(n+1) from the three-term recurrence, which uses no
    matrix and no bracket, for cross-checks."""
    return families.build(SequenceKind.MONIC_PI, n, BuildMethod.RECURRENCE)
