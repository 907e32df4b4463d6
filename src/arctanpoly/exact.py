"""Exact scalar arithmetic: rational parsing, binary powering, Gaussian integers and
Bernoulli numbers.

Rationals are plain ``fractions.Fraction`` values; that type already keeps
gcd(|num|, den) = 1 with a positive denominator after every operation, which
is exactly the canonical form used throughout this package.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")

# CPython's default limit on int/str conversion; longer literals are refused
# so that input stays bounded where the limit is lifted for output.
MAX_LITERAL_DIGITS = 4300


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal into an exact Fraction.

    Decimal notation is rejected on purpose: command-line values must never
    round-trip through floats.  Literals of more than MAX_LITERAL_DIGITS
    digits are rejected too.
    """
    text = text.strip()
    digits = sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(
            f"rational literal has {digits} digits, more than {MAX_LITERAL_DIGITS}"
        )
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r} (expected p or p/q)")
    return Fraction(text)


def format_rational(value) -> str:
    """Canonical text form: "p/q" with q > 0, or "p" when q = 1."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


@dataclass(frozen=True)
class GaussianInt:
    """Exact complex integer a + b*i."""

    re: int
    im: int

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


GAUSSIAN_ONE = GaussianInt(1, 0)


def binary_pow(base, n: int, one):
    """base**n with identity ``one``, by binary powering, n >= 0."""
    result, square = one, base
    while n:
        if n & 1:
            result = result * square
        n >>= 1
        if n:
            square = square * square
    return result


def gaussian_pow(base: GaussianInt, n: int) -> GaussianInt:
    """Exact (a + b*i)**n by binary exponentiation, n >= 0."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    return binary_pow(base, n, GAUSSIAN_ONE)


# Bernoulli numbers, defined by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0
# for n >= 1 with B_0 = 1.  This fixes B_1 = -1/2; downstream formulas only
# ever consume |B_m| for even m (odd ones beyond B_1 vanish), so the sign
# convention at index 1 never matters here.  Beside the cache sits the last
# row of the Seidel-Entringer triangle, row len(cache) - 1.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_zigzag_row: list[int] = [1]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n under the defining recurrence convention.

    The values come from the zigzag numbers E_k, all in integers, by the
    Seidel-Entringer boustrophedon (Knuth and Buckholtz, Math. Comp. 21,
    1967; the tangent-number route of Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers", 2011).  Row 0 of the triangle is
    [1], row k is the running sums of row k-1 reversed, from 0, and its last
    entry is E_k.  The odd E_(m-1) are the tangent numbers, and for even
    m >= 2

        B_m = (-1)^(m/2-1) m E_(m-1) / (4^(m/2) (4^(m/2) - 1)),

    while B_m = 0 for odd m >= 3.  Each new index costs one row of O(m)
    integer additions.

    Values are computed on demand and cached; extension happens under a lock
    and appends only finished entries, so concurrent readers never observe a
    partially-written value.
    """
    global _zigzag_row
    if n < 0:
        raise ValueError("index must be non-negative")
    if n < len(_bernoulli_cache):
        return _bernoulli_cache[n]
    with _bernoulli_lock:
        row = _zigzag_row
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            if m == 1:
                value = Fraction(-1, 2)
            elif m % 2:
                value = Fraction(0)
            else:
                power = 4 ** (m // 2)
                sign = -1 if m % 4 == 0 else 1
                value = Fraction(sign * m * row[-1], power * (power - 1))
            row = list(accumulate(reversed(row), initial=0))
            _zigzag_row = row
            _bernoulli_cache.append(value)
    return _bernoulli_cache[n]


def bernoulli_table(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n as an immutable snapshot."""
    bernoulli(n)
    return tuple(_bernoulli_cache[: n + 1])
