"""Chebyshev polynomials and their bridges to the beta/alpha families.

The bridges rest on the closed forms

    beta_n(x)  = (1+x^2)^(n/2) U_n(x / sqrt(1+x^2))
    alpha_n(x) = (1+x^2)^(n/2) T_n(x / sqrt(1+x^2))

where the half-integer powers cancel exactly: U_n and T_n only carry
monomials z^(n-2k), each of which picks up precisely the integer power
(1+x^2)^k after clearing, so the expansion stays in the polynomial ring.
"""
from __future__ import annotations

from enum import Enum
from operator import add, sub

from . import families
from .families import BuildMethod, SequenceKind
from .highprec import certifies, cot_node, eval_poly, node_precision, workprec
from .poly import Polynomial, _canon, _radd_scaled, _trim


class ChebyshevKind(Enum):
    FIRST_KIND = "t"
    SECOND_KIND = "u"


class ZeroParameterError(ValueError):
    """Tridiagonal determinant parameters must be nonzero."""


def chebyshev(kind: ChebyshevKind, n: int) -> Polynomial:
    """Exact T_n or U_n via p_{k+1} = 2x p_k - p_{k-1}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = [1]
    cur = [0, 1] if kind is ChebyshevKind.FIRST_KIND else [0, 2]
    if n == 0:
        return Polynomial._raw(prev)
    for _ in range(n - 1):
        # len(prev) == len(cur) - 1, so both rows have len(cur) + 1 entries
        prev, cur = cur, list(map(sub, [0, *map(add, cur, cur)], prev + [0, 0]))
    return Polynomial._raw(cur)


def _bridge_expansion(n: int, source: Polynomial) -> Polynomial:
    # sum over monomials c * z^m of source: c * x^m * (1+x^2)^((n-m)/2)
    powers = [[1]]  # (1+x^2)^j for j = 0..n//2
    for _ in range(n // 2):
        row = powers[-1]
        powers.append(list(map(add, row + [0, 0], [0, 0] + row)))
    acc: list = []
    for m in range(n + 1):
        c = source.coefficient(m)
        if c:
            acc = _radd_scaled(acc, [0] * m + powers[(n - m) // 2], c)
    return Polynomial._raw(_trim([_canon(c) for c in acc]))


def beta_from_chebyshev(n: int) -> Polynomial:
    """beta_n expanded from U_n; equals the direct family builds exactly."""
    return _bridge_expansion(n, chebyshev(ChebyshevKind.SECOND_KIND, n))


def alpha_from_chebyshev(n: int) -> Polynomial:
    """alpha_n expanded from T_n; equals the direct family builds exactly."""
    return _bridge_expansion(n, chebyshev(ChebyshevKind.FIRST_KIND, n))


def tridiag_det(a, b, c, n: int):
    """Determinant of the n x n tridiagonal matrix with diagonal b,
    superdiagonal c and subdiagonal a, via D_k = b D_{k-1} - a c D_{k-2}.

    Works over any exact ring element (rationals or polynomials).  Whenever
    a*c is the square of a rational s, the value equals s^n U_n(b/(2s)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not value:
            raise ZeroParameterError(f"parameter {name} must be nonzero")
    ac = a * c
    d_prev, d_cur = 1, b
    for _ in range(n - 1):
        d_prev, d_cur = d_cur, b * d_cur - ac * d_prev
    return d_cur


def trig_spot_check(n: int, k: int) -> bool:
    """Check that cot(k*pi/(n+1)) annihilates beta_n.

    The cot points are the exact zeros; since they are irrational the check
    is numeric: the root test of ``highprec.certifies`` at
    ``node_precision(n)`` bits, the residual scaled by the slope |beta_n'|.
    """
    if not 1 <= k <= n:
        raise ValueError("k must lie in 1..n")
    p = families.build(SequenceKind.BETA, n, BuildMethod.RECURRENCE)
    dp = p.differentiate()
    with workprec(node_precision(n)):
        r = cot_node(k, n + 1)
        return certifies(abs(eval_poly(p, r)), abs(eval_poly(dp, r)))
