"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by degree with trailing zeros trimmed; the
zero polynomial stores nothing.  Integral coefficients are kept as plain
ints (a Fraction with denominator 1 is converted down), which keeps the
representation canonical and makes the integer-coefficient families cheap.
The parity families step on half forms, the lists of their x^(n-2k)
coefficients, and ``_spread`` lays each member out as this list once.
"""
from __future__ import annotations

from fractions import Fraction

from .exact import binary_pow, format_rational

NEG_INF = float("-inf")


def _canon(value):
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _spread(half: list, n: int) -> list:
    """The ascending list of degree n whose x^(n-2k) coefficient is half[k].

    ``half`` is the half form of a parity polynomial, the n//2 + 1
    coefficients of x^n, x^(n-2), ..., which the parity families step on;
    every other coefficient is zero.
    """
    out = [0] * (n + 1)
    out[n::-2] = half
    return out


def _row_product(a, b) -> list:
    """Untrimmed schoolbook product of two ascending coefficient lists.

    The interpreter loop meets only nonzero pairs: the shorter list supplies
    the rows, the nonzero entries of the longer one are collected once, and
    zeros on either side are skipped (the families store every other
    coefficient as zero).  Sums are exact, so the value at each index does
    not depend on the order of its terms; an index that only zeros reach
    stays int 0 where a Fraction operand could have made it Fraction(0),
    which canonicalization removes.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    nonzero = [(j, d) for j, d in enumerate(b) if d]
    for i, c in enumerate(a):
        if c:
            for j, d in nonzero:
                out[i + j] += c * d
    return out


def _radd_scaled(acc: list, term: list, factor) -> list:
    """acc + factor * term on ascending coefficient lists, updating acc in place
    unless it must grow."""
    if len(acc) < len(term):
        acc = acc + [0] * (len(term) - len(acc))
    for i, c in enumerate(term):
        if c:
            acc[i] += factor * c
    return acc


class Polynomial:
    """Immutable exact polynomial; all operations return new values."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        self._coeffs = tuple(_trim([_canon(c) for c in coefficients]))

    @classmethod
    def _raw(cls, trimmed: list) -> "Polynomial":
        # internal fast path: caller guarantees canonical, trimmed coefficients
        p = object.__new__(cls)
        p._coeffs = tuple(trimmed)
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw([])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw([1])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls._raw([0, 1])

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self):
        """Degree as an int; the zero polynomial reports -inf."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def leading_coefficient(self):
        return self._coeffs[-1] if self._coeffs else 0

    def coefficient(self, k: int):
        """Coefficient of x**k (zero beyond the stored range)."""
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                other = Polynomial((other,))
            else:
                return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._raw(_trim([_canon(c) for c in out]))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Exact product; a scalar factor scales.

        The schoolbook product of ``_row_product`` over nonzero coefficient
        pairs, for int and Fraction coefficients alike.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = _row_product(self._coeffs, other._coeffs)
        return Polynomial._raw(_trim(list(map(_canon, out))))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "Polynomial":
        if factor == 0:
            return Polynomial.zero()
        return Polynomial._raw([_canon(factor * c) for c in self._coeffs])

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        return binary_pow(self, n, Polynomial.one())

    def differentiate(self) -> "Polynomial":
        c = self._coeffs
        return Polynomial._raw(_trim([i * c[i] for i in range(1, len(c))]))

    def evaluate(self, x):
        """Exact value at a rational point, by Horner.

        At a Fraction p/q with all-int coefficients c_0..c_d, Horner runs on
        the homogenized integer sum of c_k p^k q^(d-k) and divides by q^d
        once, so no gcd is taken per coefficient; the result is the same
        Fraction that Horner over Fractions gives.  Every other input runs
        Horner on the values as given.
        """
        coeffs = self._coeffs
        if type(x) is Fraction and coeffs and all(type(c) is int for c in coeffs):
            p, q = x.numerator, x.denominator
            acc = coeffs[-1]
            q_pow = 1
            for c in reversed(coeffs[:-1]):
                q_pow *= q
                acc = acc * p + c * q_pow if c else acc * p
            return Fraction(acc, q_pow)
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Exact substitution self(inner(x)), Horner in the polynomial ring."""
        acc = Polynomial.zero()
        for c in reversed(self._coeffs):
            acc = acc * inner + Polynomial((c,))
        return acc

    def coefficient_strings(self) -> list[str]:
        """Ascending canonical rational strings, the serialization form."""
        return [format_rational(Fraction(c)) for c in self._coeffs]

    def pretty(self) -> str:
        """Human form, descending degree: "6x^5 - 20x^3 + 6x"."""
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = format_rational(Fraction(mag))
            else:
                xpart = "x" if k == 1 else f"x^{k}"
                body = xpart if mag == 1 else f"{format_rational(Fraction(mag))}{xpart}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self.pretty()})"
