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
``charpoly`` is Berkowitz's algorithm on any square matrix: it does not use
the Hessenberg shape, so it does not repeat that route's recurrence, and
comparing it with pi_n checks the matrix as well as the brackets.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from . import calculus, families
from .exact import format_rational
from .families import BuildMethod, SequenceKind, bracket
from .poly import Polynomial


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact square matrix of rationals."""

    entries: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    def json(self) -> str:
        import json  # only this method needs it; keep it off the package import

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
    """Exact det(xI - M) by Berkowitz's division-free algorithm.

    Berkowitz (Inf. Process. Lett. 18, 1984) reads nothing of the matrix's
    shape.  The denominators are cleared once: with d the lcm of the entry
    denominators, the algorithm runs on the integer matrix A = d M, and the
    coefficient of x^k in det(xI - M) = d^-n det(d x I - A) is that of
    det(yI - A) divided by d^(n-k).  Each leading block of A extends the
    coefficient vector of the block before it by a lower-triangular Toeplitz
    matrix whose first column is 1, -a, -r c, -r B c, ..., -r B^(k-1) c,
    where B is the k x k block, c and r the new column and row above and
    left of the new diagonal entry a.
    """
    n = matrix.n
    d = lcm(*(Fraction(v).denominator for row in matrix.entries for v in row))
    a = [[int(Fraction(v) * d) for v in row] for row in matrix.entries]
    coeffs = [1]  # det(yI - A) of the leading k x k block, highest degree first
    for k in range(n):
        block, r, c = [row[:k] for row in a[:k]], a[k][:k], [row[k] for row in a[:k]]
        col = [1, -a[k][k]]
        for _ in range(k):
            col.append(-sum(map(mul, r, c)))
            c = [sum(map(mul, row, c)) for row in block]
        coeffs = [sum(col[i - j] * coeffs[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return Polynomial([Fraction(v, d**j) for j, v in enumerate(coeffs)][::-1])


def eigen_check(n: int) -> bool:
    """True iff charpoly(H_n) is exactly pi_n and every cot(k*pi/(n+1))
    certifies as a simple root of beta_n = (n+1) pi_n, i.e. as a simple
    eigenvalue of H_n."""
    if charpoly(build_H(n)) != monic_reference(n):
        return False
    return calculus.roots(SequenceKind.BETA, n).all_certified


def monic_reference(n: int) -> Polynomial:
    """pi_n = beta_n/(n+1), beta's three-term recurrence member over n+1,
    which uses no matrix and no bracket, for cross-checks."""
    return families.build(SequenceKind.MONIC_PI, n, BuildMethod.RECURRENCE)
