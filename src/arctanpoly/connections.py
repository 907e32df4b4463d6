"""Bridges from the beta/alpha families to other classical polynomial sequences.

tan(n * arctan x) is a ratio of family members split by parity.  The
sequences W_(k+1) = h W_k + b W_(k-1) from F_0 = 0, F_1 = 1 and from
L_0 = 2, L_1 = h have the binomial closed forms

    F_n(h, b) = 2^(1-n) sum_k C(n, 2k+1) h^(n-1-2k) (h^2+4b)^k,
    L_n(h, b) = 2^(1-n) sum_k C(n, 2k)   h^(n-2k)   (h^2+4b)^k.

Fibonacci and Lucas polynomials in a polynomial argument h are F_n(h, 1)
and L_n(h, 1), checked against the recurrence; the matching polynomials of
paths and cycles are mu(P_n, x) = F_(n+1)(x, -1) and mu(C_n, x) =
L_n(x, -1) (C. D. Godsil, Algebraic Combinatorics, 1993, ch. 1), checked
against brute-force enumeration and the Chebyshev transform.  All four
closed-form routes share one expansion, ``_binomial_form``.

The paper's link to beta and alpha is a chain of two ``verify`` rows.  The
``matching[path]`` row at n ties the enumerated matching numbers m(P_n, k)
to the coefficients of U_n, and the ``chebyshev-bridge[beta]`` row at n
sums those coefficients into beta_n, so together they prove

    beta_n = sum_k (-1)^k m(P_n, k) (2x)^(n-2k) (1+x^2)^k,

and ``matching[cycle]`` with ``chebyshev-bridge[alpha]`` give 2 alpha_n as
the same sum over m(C_n, k), n >= 3.  Also beta_n = F_(n+1)(2x, -(1+x^2))
and 2 alpha_n = L_n(2x, -(1+x^2)), but that recurrence is the three-term
recurrence itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from . import families
from .chebyshev import ChebyshevKind, chebyshev
from .families import SequenceKind
from .poly import Polynomial


class GraphFamily(Enum):
    PATH = "path"
    CYCLE = "cycle"


@dataclass(frozen=True)
class GraphKind:
    family: GraphFamily
    vertices: int

    def __post_init__(self):
        minimum = 1 if self.family is GraphFamily.PATH else 3
        if self.vertices < minimum:
            raise ValueError(f"{self.family.value} graphs need at least {minimum} vertices")

    def edges(self) -> list[tuple[int, int]]:
        n = self.vertices
        out = [(i, i + 1) for i in range(n - 1)]
        if self.family is GraphFamily.CYCLE:
            out.append((n - 1, 0))
        return out


class MatchingMethod(Enum):
    ENUMERATION = "enumeration"
    CLOSED_FORM = "closed-form"
    CHEBYSHEV_TRANSFORM = "chebyshev-transform"


class FibonacciMethod(Enum):
    RECURRENCE_ORACLE = "recurrence"
    CLOSED_FORM = "closed-form"


class SizeLimitError(ValueError):
    """Brute-force enumeration refused beyond its documented cap."""


ENUMERATION_LIMIT = 16


@dataclass(frozen=True)
class TanRatio:
    """tan(n * arctan x) as an exact ratio of polynomials.

    Even n: -beta_{n-1} / alpha_n; odd n: alpha_n / beta_{n-1}.
    """

    numerator: Polynomial
    denominator: Polynomial
    parity: str

    def evaluate(self, x: Fraction) -> Fraction:
        den = self.denominator.evaluate(x)
        if den == 0:
            raise ZeroDivisionError("tan multiple has a pole at this point")
        return Fraction(self.numerator.evaluate(x)) / den


def tan_multiple(n: int) -> TanRatio:
    """tan(n * arctan x) from the default builds of alpha_n and beta_{n-1}.

    Both read beta's recurrence prefix, alpha_n = beta_n - x beta_{n-1} by
    the interchange relation, so one prefix up to n serves the ratio.
    """
    if n < 1:
        raise ValueError("n must be positive")
    alpha_n = families.build(SequenceKind.ALPHA, n)
    beta_prev = families.build(SequenceKind.BETA, n - 1)
    if n % 2 == 0:
        return TanRatio(-beta_prev, alpha_n, "even")
    return TanRatio(alpha_n, beta_prev, "odd")


def _binomial_form(n: int, h: Polynomial, odd: int, b: int) -> Polynomial:
    """F_n(h, b) for odd = 1, L_n(h, b) for odd = 0: 2^(1-n) sum_k
    C(n, 2k+odd) h^(n-odd-2k) (h^2+4b)^k, by Horner in s = h^2+4b from the
    top k down, with a power of h that starts at h^((n-odd) % 2)."""
    h_sq = h * h
    s = h_sq + 4 * b
    h_pow = h if (n - odd) % 2 else Polynomial.one()
    acc = Polynomial.zero()
    for k in range((n - odd) // 2, -1, -1):
        acc = acc * s + comb(n, 2 * k + odd) * h_pow
        h_pow = h_pow * h_sq
    return acc.scale(Fraction(1, 2 ** (n - 1)))


def _fibonacci_type(n: int, h: Polynomial, method: FibonacciMethod, odd: int) -> Polynomial:
    # F_n (odd = 1) or L_n (odd = 0): W_(k+1) = h W_k + W_(k-1) from W_0, W_1
    if n < 1:
        raise ValueError("n must be positive")
    if method is FibonacciMethod.CLOSED_FORM:
        return _binomial_form(n, h, odd, 1)
    prev, cur = (Polynomial.zero(), Polynomial.one()) if odd else (Polynomial((2,)), h)
    for _ in range(n - 1):
        prev, cur = cur, h * cur + prev
    return cur


def fibonacci_poly(
    n: int, h: Polynomial, method: FibonacciMethod = FibonacciMethod.RECURRENCE_ORACLE
) -> Polynomial:
    """Fibonacci polynomial F_n(h, 1) in the argument h: F_1 = 1, F_2 = h,
    F_k = h F_{k-1} + F_{k-2}."""
    return _fibonacci_type(n, h, method, 1)


def lucas_poly(
    n: int, h: Polynomial, method: FibonacciMethod = FibonacciMethod.RECURRENCE_ORACLE
) -> Polynomial:
    """Lucas polynomial L_n(h, 1) in the argument h: L_1 = h, L_2 = h^2 + 2,
    L_k = h L_{k-1} + L_{k-2}."""
    return _fibonacci_type(n, h, method, 0)


def _count_matchings(graph: GraphKind) -> list[int]:
    """m(G, k) for k = 0..floor(n/2) by skip/take recursion over the edges."""
    edges = graph.edges()
    counts = [0] * (graph.vertices // 2 + 1)

    def walk(index: int, used: int, size: int):
        if index == len(edges):
            counts[size] += 1
            return
        walk(index + 1, used, size)  # skip this edge
        u, v = edges[index]
        bit = (1 << u) | (1 << v)
        if not used & bit:  # take it: both endpoints must be free
            walk(index + 1, used | bit, size + 1)

    walk(0, 0, 0)
    return counts


def matching_poly(
    graph: GraphKind, method: MatchingMethod = MatchingMethod.ENUMERATION
) -> Polynomial:
    """Matching polynomial sum_k (-1)^k m(G,k) x^(n-2k) of a path or cycle.

    Enumeration counts independent edge sets exhaustively (n <= 16); the
    closed forms are F_(n+1)(x, -1) for paths and L_n(x, -1) for cycles; the
    transform route is U_n(x/2) for paths and 2 T_n(x/2) for cycles.
    """
    n = graph.vertices
    if method is MatchingMethod.ENUMERATION:
        if n > ENUMERATION_LIMIT:
            raise SizeLimitError(f"enumeration is capped at {ENUMERATION_LIMIT} vertices")
        counts = _count_matchings(graph)
        coeffs = [0] * (n + 1)
        for k, m_k in enumerate(counts):
            coeffs[n - 2 * k] = (-1) ** k * m_k
        return Polynomial(coeffs)
    path = graph.family is GraphFamily.PATH
    if method is MatchingMethod.CHEBYSHEV_TRANSFORM:
        # x -> x/2 scales coefficient k by 2^-k
        kind, factor = (ChebyshevKind.SECOND_KIND, 1) if path else (ChebyshevKind.FIRST_KIND, 2)
        coeffs = chebyshev(kind, n).coefficients
        return Polynomial([Fraction(factor * c, 1 << k) for k, c in enumerate(coeffs)])
    # mu(P_n, x) = F_(n+1)(x, -1) and mu(C_n, x) = L_n(x, -1)
    x = Polynomial.x()
    return _binomial_form(n + 1, x, 1, -1) if path else _binomial_form(n, x, 0, -1)
