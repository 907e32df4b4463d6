"""High-precision float helpers on top of mpmath: the package's only float gateway.

Everything irrational in this package (cot nodes, reference arctan values,
root certificates, series error columns, decimal renderings) runs through
here, under explicit working precisions, so the exact-arithmetic modules
never touch machine floats.  No other module imports mpmath.

mpmath is imported on the first call that needs it, not with the package,
so the exact commands (``poly``, ``deriv`` in text form, ``connect``) never
load it.  Each helper pays one global lookup for the loaded module per call
and nothing per coefficient.

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

DEFAULT_PRECISION = 128  # bits
# About 19,700 decimal digits.  Past it one cot node costs seconds: beta_3's
# roots take about 2 s at 65536 bits and 10 s at 131072 on a 2-vCPU host.
MAX_PRECISION = 65536  # bits

_mpmath = None  # the mpmath module, once a helper has needed it


def _load():
    global _mpmath
    import mpmath

    _mpmath = mpmath
    return mpmath


def workprec(precision_bits: int):
    """Context manager running its body at ``precision_bits`` bits."""
    return (_mpmath or _load()).workprec(precision_bits)


def check_precision(precision_bits: int) -> None:
    """Reject a working precision outside 1..MAX_PRECISION bits; mpmath refuses neither end."""
    if precision_bits < 1:
        raise ValueError(f"precision must be at least 1 bit, got {precision_bits}")
    if precision_bits > MAX_PRECISION:
        raise ValueError(f"precision must be at most {MAX_PRECISION} bits, got {precision_bits}")


def to_mpf(value):
    """int or Fraction to mpf under the current working precision."""
    mpf = (_mpmath or _load()).mpf
    num, den = value.numerator, value.denominator
    return mpf(num) if den == 1 else mpf(num) / den


def mpf(value):
    """mpmath's ``mpf(value)`` for an int, float, string or mpf."""
    return (_mpmath or _load()).mpf(value)


def mpf_to_fraction(value) -> Fraction:
    """Exact rational value of an mpf (every finite mpf is dyadic)."""
    sign, man, exp, _ = (_mpmath or _load()).mpf(value)._mpf_
    if man == 0 and exp != 0:
        raise ValueError("cannot convert a non-finite value to a fraction")
    signed = -man if sign else man
    return Fraction(signed) * Fraction(2) ** exp


def sqrt(x):
    """Square root under the current precision."""
    return (_mpmath or _load()).sqrt(x)


def atan(x):
    """arctan of an mpf under the current precision."""
    return (_mpmath or _load()).atan(x)


def factorial(n):
    """n! as an mpf under the current precision."""
    return (_mpmath or _load()).factorial(n)


def binomial(n, k):
    """C(n, k) as an mpf under the current precision."""
    return (_mpmath or _load()).binomial(n, k)


def nstr(x, digits: int) -> str:
    """``x`` rendered with ``digits`` significant digits, as mpmath prints it."""
    return (_mpmath or _load()).nstr(x, digits)


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
    mpmath = _mpmath or _load()
    fzero = mpmath.libmp.fzero
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
    mpmath = _mpmath or _load()
    libmp = mpmath.libmp
    fzero, mpf_add, mpf_mul = libmp.fzero, libmp.mpf_add, libmp.mpf_mul
    round_nearest = libmp.round_nearest
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
    mpmath = _mpmath or _load()
    return mpmath.cot(mpmath.pi * k / m)


def atan_reference(x: Fraction, precision_bits: int = 256):
    """Reference arctan of an exact rational, as an mpf."""
    with workprec(precision_bits):
        return atan(to_mpf(x))


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
