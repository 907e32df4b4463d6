"""High-precision float helpers on top of mpmath.

Everything irrational in this package (cot nodes, reference arctan values,
root certificates) runs through here, under explicit working precisions so
the exact-arithmetic modules never touch machine floats.

Root certification evaluates one polynomial at many nodes.  ``prepare``
rounds its exact coefficients to mpf once, at the working precision, and
``eval_poly`` then runs Horner on the raw mpf values with the same
``mpf_mul``/``mpf_add`` calls, precision and rounding the mpf operators use,
so a prepared polynomial evaluates to exactly the bits the per-coefficient
conversion gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import fzero, mpf_add, mpf_mul, round_nearest

DEFAULT_PRECISION = 128  # bits

workprec = mpmath.workprec


def check_precision(precision_bits: int) -> None:
    """Reject a working precision below one bit, which mpmath does not refuse."""
    if precision_bits < 1:
        raise ValueError(f"precision must be at least 1 bit, got {precision_bits}")


def to_mpf(value):
    """int or Fraction to mpf under the current working precision."""
    num, den = value.numerator, value.denominator
    return mpmath.mpf(num) if den == 1 else mpmath.mpf(num) / den


def mpf_to_fraction(value) -> Fraction:
    """Exact rational value of an mpf (every finite mpf is dyadic)."""
    sign, man, exp, _ = mpmath.mpf(value)._mpf_
    if man == 0 and exp != 0:
        raise ValueError("cannot convert a non-finite value to a fraction")
    signed = -man if sign else man
    return Fraction(signed) * Fraction(2) ** exp


@dataclass(frozen=True)
class PreparedPoly:
    """An exact polynomial with its coefficients rounded to mpf once.

    ``coeffs`` holds raw mpf tuples from the leading coefficient down, the
    order Horner consumes them; ``prec`` is the precision they were rounded
    at, and the only one ``eval_poly`` accepts them at.
    """

    prec: int
    coeffs: tuple


def prepare(poly) -> PreparedPoly:
    """Round the coefficients of an exact polynomial under the current precision.

    Zero coefficients stay exact zeros without a conversion.
    """
    coeffs = tuple(to_mpf(c)._mpf_ if c else fzero for c in reversed(poly.coefficients))
    return PreparedPoly(mpmath.mp.prec, coeffs)


def eval_poly(poly, t):
    """Horner evaluation at an mpf point under the current precision.

    ``poly`` is an exact polynomial, prepared here on every call, or a
    ``PreparedPoly`` from ``prepare`` at the same precision.  Adding an exact
    zero to an already rounded value leaves it unchanged, so zero
    coefficients skip the add.
    """
    if not isinstance(poly, PreparedPoly):
        poly = prepare(poly)
    prec = mpmath.mp.prec
    if poly.prec != prec:
        raise ValueError(f"polynomial prepared at {poly.prec} bits, evaluated at {prec}")
    x = (t if isinstance(t, mpmath.mpf) else mpmath.mpf(t))._mpf_
    acc = fzero
    for c in poly.coeffs:
        acc = mpf_mul(acc, x, prec, round_nearest)
        if c is not fzero:
            acc = mpf_add(acc, c, prec, round_nearest)
    return mpmath.mp.make_mpf(acc)


def cot_node(k: int, m: int):
    """cot(k*pi/m) under the current working precision."""
    return mpmath.cot(mpmath.pi * k / m)


def atan_reference(x: Fraction, precision_bits: int = 256):
    """Reference arctan of an exact rational, as an mpf."""
    with workprec(precision_bits):
        return mpmath.atan(to_mpf(x))


@dataclass(frozen=True)
class RootCheck:
    """Simple-root certificate at a numeric point.

    ``residual`` is |p(r)| and ``slope`` is |p'(r)|.  The point certifies
    when residual <= tolerance * max(1, slope) and slope > tolerance: family
    coefficients grow fast with the degree, so the raw residual at a
    finite-precision approximation of a true root scales with the local
    slope and only the slope-relative residual is meaningful.
    """

    residual: float
    slope: float
    certified: bool


def certify_simple_root(
    poly,
    value,
    tolerance: float = 1e-9,
    derivative=None,
) -> RootCheck:
    """Certify ``value`` (an mpf under the current precision) as a simple root.

    ``poly`` and ``derivative`` may be exact polynomials or, when one
    polynomial is certified at many nodes, both ``PreparedPoly`` values made
    by ``prepare`` at the current precision; those skip the coefficient
    conversion and give the same certificate.  A prepared ``poly`` needs its
    prepared ``derivative``.
    """
    dp = derivative if derivative is not None else poly.differentiate()
    residual = abs(eval_poly(poly, value))
    slope = abs(eval_poly(dp, value))
    ok = bool(residual <= tolerance * max(1, slope) and slope > tolerance)
    return RootCheck(float(residual), float(slope), ok)
