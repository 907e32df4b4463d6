"""High-precision float helpers on top of mpmath: the package's only float gateway.

Everything irrational in this package (cot nodes, reference arctan values,
root certificates, series error columns, decimal renderings of irrational
values) runs through here, under explicit working precisions, so the
exact-arithmetic modules never touch machine floats.  No other module
imports mpmath.

mpmath is imported on the first call that needs it, not with the package,
so the exact commands (``poly``, ``deriv``, ``connect``, ``pi``) never load it.
Each helper pays one global lookup for the loaded module per call and
nothing per coefficient.

Root certification evaluates one polynomial at many nodes.  ``prepare``
rounds its exact coefficients to mpf once, at the working precision, and
keeps them as signed (mantissa, exponent) integer pairs, split into the
halves of p(x) = E(x^2) + x O(x^2).  ``eval_poly`` then runs Horner in
t^2 over each nonempty half as one plain integer loop that rounds after
every multiply and every add exactly as mpmath's ``mpf_mul``/``mpf_add`` do
(correctly, ties to even), so it returns the bits of that scheme with the
mpf operators and the per-coefficient conversion, without a library call
per step.  The root sets' polynomials have the parity of their degree, so
one half is empty and an evaluation at degree d takes d//2 + 1 steps.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_PRECISION = 128  # bits
# A root certifies when its residual is at most this multiple of max(1, slope).
ROOT_TOLERANCE = 1e-9

_mpmath = None  # the mpmath module, once a helper has needed it


def _load():
    global _mpmath
    import mpmath

    _mpmath = mpmath
    return mpmath


def workprec(precision_bits: int):
    """Context manager running its body at ``precision_bits`` bits."""
    return (_mpmath or _load()).workprec(precision_bits)


def node_precision(n: int) -> int:
    """Working precision, in bits, of the root test at the cot nodes of degree n.

    ``eval_poly`` computes p(t) = E(y) + t O(y), with y = t*t rounded once,
    by Horner in y over each half, with coefficients rounded once.  With
    u = 2^-p and gamma_m = m u / (1 - m u), a result in which each term
    c_k t^k meets at most m roundings errs by at most gamma_m S, where
    S = sum |c_k| |t|^k (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1 and 5.1).  Term k = 2j or 2j+1 of a half of degree D in
    y meets one rounding of c_k, j of y, 2j+1 of Horner's multiplies and
    adds (2D at j = D, whose coefficient starts the loop), one of the
    multiply by t if k is odd, and one of the sum of the halves if neither
    is empty: at most 3D + 3.  beta_n and alpha_n have the parity of n and
    p' that of n-1, so one half is empty and the count is at most
    3(d//2) + 2 at degree d, at most 2d + 1 for d >= 1: the bound of Horner
    in x, gamma_(2n+1) S at degree n, still holds.  At a node
    t = cot(theta):

    - beta_n = Im((x+i)^(n+1)) and alpha_n = Re((x+i)^n), so
      S <= (1+|t|)^(n+1) <= (2(1+t^2))^((n+1)/2);
    - beta_n(cot theta) = sin((n+1) theta) / sin(theta)^(n+1) and
      alpha_n(cot theta) = cos(n theta) / sin(theta)^n, so the slope is
      (n+1)(1+t^2)^((n-1)/2) for beta and n(1+t^2)^((n-1)/2) for alpha;
    - cot(theta) < 1/theta on (0, pi/2), so |t| < 2n/pi.

    So the error is below slope * gamma_(2n+1) 2^((n+1)/2) (1 + 4n^2/pi^2) / n.
    At p >= (n+1)//2 + 2 bitlen(n) + 32, with n^2 < 2^(2 bitlen(n)), that is
    below slope * 2^-32 sqrt(2) (1+2^-90) (2 + 1/n)(1/n^2 + 4/pi^2), which for
    n >= 4 is below slope * 3.5e-10 < slope * ROOT_TOLERANCE/2; 128 bits lie
    at least 90 bits above that p for n <= 3.  The derivative's error is of
    the same order, so the computed slope is within a relative 1e-9 of the
    true one, and the node, rounded by mpmath to a few units in its last
    place, moves the residual by about slope * |t| 2^-p.  So at this
    precision every node certifies, and a point whose true residual exceeds
    twice ROOT_TOLERANCE times its slope does not.  The floor keeps every
    n <= 160 at DEFAULT_PRECISION.
    """
    return max(DEFAULT_PRECISION, (n + 1) // 2 + 2 * n.bit_length() + 32)


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
    """An exact polynomial split into halves, its coefficients rounded to mpf once.

    The halves are p(x) = E(x^2) + x O(x^2): ``even`` holds E's coefficients
    (those of x^0, x^2, ...) and ``odd`` O's (x^1, x^3, ...), each from the
    leading coefficient down, the order Horner consumes them.  Each entry is
    the rounded value as a signed ``(mantissa, exponent)`` pair,
    ``mantissa * 2**exponent``, which is all ``eval_poly``'s integer loop
    reads, or ``None`` for an exact zero.  A half starts at its first nonzero
    coefficient, so a half whose coefficients are all zero is empty; beta_n,
    alpha_n, charpoly(H_n) and their derivatives have the parity of their
    degree, so one of their halves is.  ``prec`` is the precision the
    coefficients were rounded at, and the only one ``eval_poly`` accepts
    them at.
    """

    prec: int
    even: tuple
    odd: tuple


def _round_half(coefficients) -> tuple:
    """One half's coefficients, listed from x^0 up, rounded and Horner-ordered."""
    half = []
    for c in reversed(coefficients):
        if c:
            sign, man, exp, _ = to_mpf(c)._mpf_
            half.append((-man if sign else man, exp))
        elif half:
            half.append(None)
    return tuple(half)


def prepare(poly) -> PreparedPoly:
    """Round the coefficients of an exact polynomial under the current precision.

    Zero coefficients stay exact zeros without a conversion.
    """
    mpmath = _mpmath or _load()
    coefficients = poly.coefficients
    return PreparedPoly(
        mpmath.mp.prec, _round_half(coefficients[0::2]), _round_half(coefficients[1::2])
    )


def _horner(coeffs, xm, xe, prec, m=0, e=0):
    """Horner steps from the accumulator ``m * 2**e`` at the point ``xm * 2**xe``.

    Each step multiplies the accumulator by the point and adds the next entry
    of ``coeffs``, a signed ``(mantissa, exponent)`` pair or ``None`` for an
    exact zero, rounding after the multiply and after the add to ``prec``
    bits exactly as mpmath's ``mpf_mul``/``mpf_add`` do.  Returns the last
    accumulator as a ``(mantissa, exponent)`` pair.
    """
    far = 2 * prec + 2  # an exponent gap past which the smaller addend cannot count
    # The rounding is written out after both steps: a call per step would
    # cost about as much as the step itself.
    for c in coeffs:
        m *= xm
        e += xe
        n = m.bit_length() - prec
        if n > 0:
            h = 1 << (n - 1)
            q = (m + h) >> n
            if q & 1 and m & (h + h - 1) == h:
                q -= 1
            m = q
            e += n
        if c is None:
            continue
        cm, ce = c
        d = e - ce
        if d > far or d < -far:
            # the smaller addend is under a quarter of the larger one's
            # rounding unit, so the rounded sum is the larger one
            if d < -far or not m:
                m, e = cm, ce
            continue
        if d >= 0:
            m = (m << d) + cm
            e = ce
        else:
            m += cm << -d
        n = m.bit_length() - prec
        if n > 0:
            h = 1 << (n - 1)
            q = (m + h) >> n
            if q & 1 and m & (h + h - 1) == h:
                q -= 1
            m = q
            e += n
    return m, e


_MULTIPLY = (None,)  # one Horner step with no coefficient: a rounded multiply


def eval_poly(poly, t):
    """Evaluate at a finite mpf point under the current precision, as E(t^2) + t O(t^2).

    ``poly`` is an exact polynomial, prepared here on every call, or a
    ``PreparedPoly`` from ``prepare`` at the same precision.  The result has
    exactly the bits of this scheme with mpmath's operators:

    - y = t * t, rounded once;
    - Horner in y over each nonempty half, ``acc * y + c`` at every step;
    - one multiply of O's value by t;
    - only when both halves are nonempty, one add of the two values.

    Each of those is a step of one integer loop over a signed mantissa ``m``
    and an exponent ``e`` instead of a chain of ``mpf_mul``/``mpf_add``
    calls: y and t O(y) are steps with no coefficient, and the last add is a
    step at the point 1, whose multiply is exact.  Each mpmath call returns
    its exact result correctly rounded to the working precision, ties to
    even, and so does each step here:

    - multiply: ``m *= xm; e += xe`` is exact;
    - add: align the exponents and add the integers, which is exact;
    - round: keep ``prec`` bits, ``q = (m + h) >> n`` with ``h`` half the
      dropped unit, and step back to the even ``q`` on an exact tie.

    Both addends carry at most ``prec + 1`` bits.  When their exponents lie
    more than ``2 * prec + 2`` apart, the smaller one is under a quarter of
    the larger one's rounding unit, so the rounded sum is the larger one and
    the add is skipped; no shift grows past about twice the precision.
    mpmath strips trailing zero bits from its mantissas, which changes the
    representation and not the value.  So the loop walks through the same
    values, and one ``from_man_exp`` at the end gives the same ``_mpf_``.

    Adding an exact zero to an already rounded value leaves it unchanged, so
    zero coefficients, and the sum with an empty half, skip the add.  A
    polynomial of degree d with one empty half, as every parity polynomial
    has, takes d//2 + 1 steps in y.  A zero point gives the constant
    coefficient; an infinite or nan point raises ValueError.
    """
    if not isinstance(poly, PreparedPoly):
        poly = prepare(poly)
    mpmath = _mpmath or _load()
    prec = mpmath.mp.prec
    if poly.prec != prec:
        raise ValueError(f"polynomial prepared at {poly.prec} bits, evaluated at {prec}")
    point = t if isinstance(t, mpmath.mpf) else mpmath.mpf(t)
    sign, xm, xe, _ = point._mpf_
    if not xm and xe:
        raise ValueError(f"cannot evaluate a polynomial at the non-finite point {point}")
    if sign:
        xm = -xm
    ym, ye = _horner(_MULTIPLY, xm, xe, prec, xm, xe)
    m = e = 0
    if poly.odd:
        m, e = _horner(poly.odd, ym, ye, prec)
        m, e = _horner(_MULTIPLY, xm, xe, prec, m, e)
    if poly.even:
        even = _horner(poly.even, ym, ye, prec)
        m, e = _horner((even,), 1, 0, prec, m, e) if poly.odd else even
    libmp = mpmath.libmp
    return mpmath.mp.make_mpf(libmp.from_man_exp(m, e, prec, libmp.round_nearest))


def cot_node(k: int, m: int):
    """cot(k*pi/m) under the current working precision.

    At 2k == m the node is cot(pi/2) = 0, returned as an exact zero: mpmath's
    cot of the rounded pi/2 would give that rounding error instead.  It is
    the middle root of every odd-degree beta and alpha, which, being odd
    polynomials, vanish at 0 exactly.

    At 2k > m the node is the mirror -cot((m-k)*pi/m), returned as the exact
    negation of that node, so the nodes of a root set come in exact pairs
    +-t.  It is also the more accurate value: the argument (m-k)*pi/m is
    rounded away from pi, where cot has its pole.
    """
    mpmath = _mpmath or _load()
    if 2 * k == m:
        return mpmath.mpf(0)
    if 2 * k > m:
        return -cot_node(m - k, m)
    # mpmath.cot(mpmath.pi * k / m) step by step on raw values: pi * k and
    # then / m at the working precision, 1 / tan at 10 bits more, as cot's
    # wrapper does, and the result rounded back to the working precision
    libmp = mpmath.libmp
    prec, rnd = mpmath.mp.prec, libmp.round_nearest
    x = libmp.mpf_div(
        libmp.mpf_mul_int(libmp.mpf_pi(prec, rnd), k, prec, rnd), libmp.from_int(m), prec, rnd
    )
    cot = libmp.mpf_div(libmp.fone, libmp.mpf_tan(x, prec + 10, rnd), prec + 10, rnd)
    return mpmath.mp.make_mpf(libmp.mpf_pos(cot, prec, rnd))


def atan_reference(x: Fraction, precision_bits: int):
    """Reference arctan of an exact rational, as an mpf."""
    with workprec(precision_bits):
        return atan(to_mpf(x))


def certifies(residual, slope) -> bool:
    """The root test: |residual| <= ROOT_TOLERANCE * max(1, |slope|) and |slope| > ROOT_TOLERANCE.

    ``residual`` and ``slope`` are mpf values, p(r) and p'(r) or their
    absolute values.  Family coefficients grow fast with the degree, so the
    residual at a finite-precision approximation of a true root scales with
    the local slope, and only the slope-relative residual is meaningful.
    The test runs on the raw values with the operations of the mpf
    expression: the float tolerance converts exactly, and its product with a
    slope above 1 is rounded to the working precision.
    """
    mpmath = _mpmath or _load()
    libmp = mpmath.libmp
    tol = libmp.from_float(ROOT_TOLERANCE)  # exact, converted once
    r, s = libmp.mpf_abs(residual._mpf_), libmp.mpf_abs(slope._mpf_)
    if libmp.mpf_gt(s, libmp.fone):
        bound = libmp.mpf_mul(tol, s, mpmath.mp.prec, libmp.round_nearest)
    else:
        bound = tol
    return libmp.mpf_le(r, bound) and libmp.mpf_gt(s, tol)


@dataclass(frozen=True)
class RootCheck:
    """Simple-root certificate at a numeric point.

    ``residual`` is |p(r)|, ``slope`` is |p'(r)|, and ``certified`` is
    ``certifies(residual, slope)``.
    """

    residual: float
    slope: float
    certified: bool


def certify_simple_root(poly, value, derivative) -> RootCheck:
    """Certify ``value`` (an mpf under the current precision) as a simple root.

    ``poly`` and ``derivative`` may be exact polynomials or, when one
    polynomial is certified at many nodes, both ``PreparedPoly`` values made
    by ``prepare`` at the current precision; those skip the coefficient
    conversion and give the same certificate.
    """
    at_root = eval_poly(poly, value)
    slope_at_root = eval_poly(derivative, value)
    libmp = (_mpmath or _load()).libmp
    # float(abs(x)) of an mpf x, with no mpf made in between
    return RootCheck(
        libmp.to_float(libmp.mpf_abs(at_root._mpf_), rnd=libmp.round_nearest),
        libmp.to_float(libmp.mpf_abs(slope_at_root._mpf_), rnd=libmp.round_nearest),
        certifies(at_root, slope_at_root),
    )
