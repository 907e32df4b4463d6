"""Chebyshev polynomials and their bridges to the beta/alpha families.

The bridges rest on the closed forms

    beta_n(x)  = (1+x^2)^(n/2) U_n(x / sqrt(1+x^2))
    alpha_n(x) = (1+x^2)^(n/2) T_n(x / sqrt(1+x^2))

where the half-integer powers cancel exactly: U_n and T_n only carry
monomials z^(n-2k), each of which picks up precisely the integer power
(1+x^2)^k after clearing, so the expansion stays in the polynomial ring.

T_n and U_n are built on their half forms, the lists of their x^(n-2k)
coefficients, from the explicit coefficients

    U_n:             (-1)^k C(n-k, k) 2^(n-2k),
    T_n, n >= 1:     (-1)^k n/(n-k) C(n-k, k) 2^(n-2k-1),

which are the matching numbers of the path and the cycle on n vertices
scaled by 2^(n-2k): U_n(x/2) and 2 T_n(x/2) are their matching polynomials
(C. D. Godsil, Algebraic Combinatorics, 1993, ch. 1).  The bridge expands
a half form by Horner in s = 1+x^2: sum_k a_k x^(n-2k) s^k, from k = n//2
down to 0.  Under z = x/sqrt(1+x^2) the Chebyshev recurrence is the
three-term recurrence of beta and alpha, so the bridges sum the matching
numbers and do not restate that recurrence.
"""
from __future__ import annotations

from enum import Enum
from operator import add

from . import families
from .families import SequenceKind
from .highprec import certifies, cot_node, eval_poly, node_precision, workprec
from .poly import Polynomial, _spread


class ChebyshevKind(Enum):
    FIRST_KIND = "t"
    SECOND_KIND = "u"


class ZeroParameterError(ValueError):
    """Tridiagonal determinant parameters must be nonzero."""


def chebyshev(kind: ChebyshevKind, n: int) -> Polynomial:
    """Exact T_n or U_n from its explicit coefficients, in O(n) steps.

    Entry k of the half form is (-1)^k C(n-k, k) 2^(n-2k) for U_n and
    (-1)^k n/(n-k) C(n-k, k) 2^(n-2k-1) for T_n, n >= 1, the signed matching
    numbers of the path and the cycle on n vertices; every entry is an
    integer.  Each entry comes from the one before it by the term ratio
    -(n-2k)(n-2k-1) / (4 (k+1) (n-k-j)), with j = 0 for U_n and j = 1 for
    T_n, one multiply and one exact division by small ints.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    j = 1 if kind is ChebyshevKind.FIRST_KIND and n else 0
    c = 1 << (n - j)
    half = [c]
    for k in range(n // 2):
        c = -c * (n - 2 * k) * (n - 2 * k - 1) // (4 * (k + 1) * (n - k - j))
        half.append(c)
    return Polynomial._raw(_spread(half, n))


def _bridge_expansion(n: int, source: Polynomial) -> Polynomial:
    # source has degree n and carries only z^(n-2k), with coefficient a_k;
    # the sum is of a_k x^(n-2k) s^k with s = 1+x^2.  Horner in s on half
    # forms: acc <- acc*s + a_k x^(n-2k) for k from n//2 down, where entry j
    # of acc is its coefficient of x^(deg-2j).  Times s, entry j becomes
    # acc[j] + acc[j-1], and a_k x^(n-2k), the new top, joins entry 0.  The
    # x^n coefficient is source(1), n+1 for U_n and 1 for T_n: no trim.
    acc: list = []
    for a in reversed(source.coefficients[n::-2]):
        acc = list(map(add, [a, *acc], [*acc, 0]))
    return Polynomial._raw(_spread(acc, n))


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
    p = families.build(SequenceKind.BETA, n)
    dp = p.differentiate()
    with workprec(node_precision(n)):
        r = cot_node(k, n + 1)
        return certifies(abs(eval_poly(p, r)), abs(eval_poly(dp, r)))
