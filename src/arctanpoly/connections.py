"""Bridges from the beta/alpha families to other classical polynomial sequences.

tan(n * arctan x) is a ratio of family members split by parity; Fibonacci
and Lucas polynomials in an arbitrary polynomial argument h admit
binomial closed forms over sqrt(h^2+4) powers that clear exactly; matching
polynomials of paths and cycles are Chebyshev polynomials in disguise and
are built three ways, one of them brute-force matching enumeration.

The paper's link to beta and alpha is a chain of two ``verify`` rows.  The
``matching[path]`` row at n ties the enumerated matching numbers m(P_n, k)
to the coefficients of U_n, and the ``chebyshev-bridge[beta]`` row at n
sums those coefficients into beta_n, so together they prove

    beta_n = sum_k (-1)^k m(P_n, k) (2x)^(n-2k) (1+x^2)^k,

and ``matching[cycle]`` with ``chebyshev-bridge[alpha]`` give 2 alpha_n as
the same sum over m(C_n, k), n >= 3.  In two-variable form beta_n =
F_(n+1)(2x, -(1+x^2)) and 2 alpha_n = L_n(2x, -(1+x^2)), but their
recurrence W_(k+1) = a W_k + b W_(k-1) is the three-term recurrence itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from . import families
from .chebyshev import ChebyshevKind, chebyshev
from .families import BuildMethod, SequenceKind
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
    if n < 1:
        raise ValueError("n must be positive")
    alpha_n = families.build(SequenceKind.ALPHA, n, BuildMethod.RECURRENCE)
    beta_prev = families.build(SequenceKind.BETA, n - 1, BuildMethod.RECURRENCE)
    if n % 2 == 0:
        return TanRatio(-beta_prev, alpha_n, "even")
    return TanRatio(alpha_n, beta_prev, "odd")


def _closed_form(n: int, h: Polynomial, odd_offset: int) -> Polynomial:
    # 2^(1-n) * sum_k C(n, 2k + odd_offset) h^(n - odd_offset - 2k) (h^2+4)^k
    shifted = h * h + 4
    acc = Polynomial.zero()
    shift_pow = Polynomial.one()
    top = (n - odd_offset) // 2
    for k in range(top + 1):
        acc = acc + comb(n, 2 * k + odd_offset) * (h ** (n - odd_offset - 2 * k) * shift_pow)
        shift_pow = shift_pow * shifted
    return acc.scale(Fraction(1, 2 ** (n - 1)))


def fibonacci_poly(
    n: int, h: Polynomial, method: FibonacciMethod = FibonacciMethod.RECURRENCE_ORACLE
) -> Polynomial:
    """Fibonacci polynomial in the argument h: F_1 = 1, F_2 = h,
    F_k = h F_{k-1} + F_{k-2}; closed form 2^(1-n) sum_k C(n,2k+1)
    h^(n-1-2k) (h^2+4)^k."""
    if n < 1:
        raise ValueError("n must be positive")
    if method is FibonacciMethod.CLOSED_FORM:
        return _closed_form(n, h, 1)
    prev, cur = Polynomial.zero(), Polynomial.one()
    for _ in range(n - 1):
        prev, cur = cur, h * cur + prev
    return cur


def lucas_poly(
    n: int, h: Polynomial, method: FibonacciMethod = FibonacciMethod.RECURRENCE_ORACLE
) -> Polynomial:
    """Lucas polynomial in the argument h: L_1 = h, L_2 = h^2 + 2,
    L_k = h L_{k-1} + L_{k-2}; closed form 2^(1-n) sum_k C(n,2k)
    h^(n-2k) (h^2+4)^k."""
    if n < 1:
        raise ValueError("n must be positive")
    if method is FibonacciMethod.CLOSED_FORM:
        return _closed_form(n, h, 0)
    prev, cur = 2 * Polynomial.one(), h
    for _ in range(n - 1):
        prev, cur = cur, h * cur + prev
    return cur


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

    Enumeration counts independent edge sets exhaustively (n <= 16);
    the closed forms expand (4 - x^2)^k binomial sums; the transform route
    is U_n(x/2) for paths and 2 T_n(x/2) for cycles.
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
    if method is MatchingMethod.CHEBYSHEV_TRANSFORM:
        half_x = Polynomial((0, Fraction(1, 2)))
        if graph.family is GraphFamily.PATH:
            return chebyshev(ChebyshevKind.SECOND_KIND, n).compose(half_x)
        return 2 * chebyshev(ChebyshevKind.FIRST_KIND, n).compose(half_x)
    # closed forms, with (4 - x^2)^k expanded exactly:
    #   path:  2^-n     sum_k (-1)^k C(n+1, 2k+1) x^(n-2k) (4-x^2)^k
    #   cycle: 2^-(n-1) sum_k (-1)^k C(n, 2k)     x^(n-2k) (4-x^2)^k
    four_minus_sq = Polynomial((4, 0, -1))
    acc = Polynomial.zero()
    pw = Polynomial.one()
    for k in range(n // 2 + 1):
        if graph.family is GraphFamily.PATH:
            c = comb(n + 1, 2 * k + 1)
        else:
            c = comb(n, 2 * k)
        acc = acc + ((-1) ** k * c) * (Polynomial.monomial(n - 2 * k) * pw)
        pw = pw * four_minus_sq
    scale = Fraction(1, 2**n if graph.family is GraphFamily.PATH else 2 ** (n - 1))
    return acc.scale(scale)
