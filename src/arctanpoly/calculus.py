"""High-order derivatives of arctan/artanh, root sets, and ODE checks.

The n-th derivative of arctan is P_{n-1}(x) / (1+x^2)^n.  The paper's
explicit formula P_m(x) = (-1)^m m! Im((x+i)^(m+1)) turns this, at a
rational x = p/q, into one Gaussian-integer power,

    d^n/dx^n arctan(p/q) = (n-1)! Im((-p+iq)^n) q^n / (p^2+q^2)^n,

so derivative values here are exact rationals and no member of P is built.
The float route through Chebyshev polynomials of the second kind,

    d^n/dx^n arctan(x) = (n-1)!/(1+x^2)^((n+1)/2) * U_{n-1}(-x/sqrt(1+x^2)),

is kept as an independent numeric cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import families, highprec
from .exact import GaussianInt, gaussian_pow
from .families import SequenceKind
from .highprec import (
    DEFAULT_PRECISION,
    RootCheck,
    certify_simple_root,
    cot_node,
    mpf,
    mpf_to_fraction,
    node_precision,
    prepare,
    to_mpf,
    workprec,
)
from .poly import Polynomial


class PoleError(ValueError):
    """Evaluation requested at a pole of the function."""


# Largest exact derivative value computed, as a bound on the bits of its
# numerator plus denominator before reduction (see _check_result_size).  The
# largest values it accepts take up to about 0.5 s to compute and print
# through ``arctanpoly deriv`` on a 2-vCPU host, interpreter start included.
MAX_RESULT_BITS = 2**19

# Largest degree whose root set ``roots`` computes.  It builds beta's
# recurrence prefix up to n (alpha_n is one subtraction of its last two
# members) and certifies about n/2 nodes of degree n at
# node_precision(n) bits, so its time grows faster than n^2;
# ``arctanpoly roots --kind alpha --n 1000`` takes about 0.9 s on a 2-vCPU host.
MAX_ROOT_DEGREE = 1000


def _check_result_size(n: int, x: Fraction) -> None:
    """Refuse an order and point whose exact value could exceed MAX_RESULT_BITS.

    With x = p/q and b = max(bit length of p, q, 1), (n-1)! has at most
    n*bitlen(n) bits and |p|+q and p^2+q^2 are below 2^(b+1) and 2^(2b+1), so
    either derivative's numerator and denominator before reduction have at
    most n*(bitlen(n) + 4b + 2) bits together.  The bound takes no power.
    """
    b = max(x.numerator.bit_length(), x.denominator.bit_length(), 1)
    bits = n * (n.bit_length() + 4 * b + 2)
    if bits > MAX_RESULT_BITS:
        raise ValueError(
            f"derivative of order {n} at a point with {b}-bit terms may need "
            f"{bits} bits, more than MAX_RESULT_BITS = {MAX_RESULT_BITS}"
        )


def arctan_nth_derivative(n: int, x: Fraction) -> Fraction:
    """Exact value of the n-th derivative of arctan at a rational point.

    With x = p/q this is (n-1)! Im((-p+iq)^n) q^n / (p^2+q^2)^n, the paper's
    P_{n-1}(x) / (1+x^2)^n with P_{n-1} in its complex-power form.  Raises
    ValueError for n < 1 and above MAX_RESULT_BITS.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    x = Fraction(x)
    _check_result_size(n, x)
    p, q = x.numerator, x.denominator
    w = gaussian_pow(GaussianInt(-p, q), n)
    return Fraction(factorial(n - 1) * w.im * q**n, (p * p + q * q) ** n)


def artanh_nth_derivative(n: int, x: Fraction) -> Fraction:
    """Exact n-th derivative of artanh: (n-1)!/(2(1-x^2)^n) ((x+1)^n - (x-1)^n).

    With x = p/q this is (n-1)! ((p+q)^n - (p-q)^n) q^n / (2 (q^2-p^2)^n).
    Raises PoleError at x = 1 and x = -1, and ValueError for n < 1 and above
    MAX_RESULT_BITS.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    x = Fraction(x)
    if x == 1 or x == -1:
        raise PoleError("artanh derivatives have poles at x = 1 and x = -1")
    _check_result_size(n, x)
    p, q = x.numerator, x.denominator
    diff = (p + q) ** n - (p - q) ** n
    return Fraction(factorial(n - 1) * diff * q**n, 2 * (q * q - p * p) ** n)


def chebyshev_derivative_form(n: int, x: Fraction):
    """The same arctan derivative through the U_{n-1} closed form, as an mpf
    at DEFAULT_PRECISION."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    with workprec(DEFAULT_PRECISION):
        t = to_mpf(Fraction(x))
        s = highprec.sqrt(1 + t * t)
        z = -t / s
        u_prev, u_cur = mpf(1), 2 * z
        if n - 1 == 0:
            u = u_prev
        else:
            for _ in range(n - 2):
                u_prev, u_cur = u_cur, 2 * z * u_cur - u_prev
            u = u_cur
        return highprec.factorial(n - 1) / s ** (n + 1) * u


def finite_difference_derivative(n: int, x: Fraction):
    """Independent numeric estimate of the n-th arctan derivative.

    Central binomial stencil with step h = 2**-10 at 256 bits, plus one
    Richardson extrapolation step (combining h and h/2 kills the h^2 term).
    Well-conditioned for small orders; intended as a sanity oracle up to
    n = 5.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    with workprec(256):
        x0 = to_mpf(Fraction(x))

        def central(h):
            acc = mpf(0)
            for j in range(n + 1):
                offset = mpf(n) / 2 - j
                sample = highprec.atan(x0 + offset * h)
                acc += (-1) ** j * highprec.binomial(n, j) * sample
            return acc / h**n

        h = mpf(2) ** -10
        coarse = central(h)
        fine = central(h / 2)
        return (4 * fine - coarse) / 3


@dataclass(frozen=True)
class RootRecord:
    """One certified zero: index, closed form, numeric value, certificate."""

    index: int
    closed_form: str
    value: object  # mpf
    check: RootCheck

    @property
    def certified(self) -> bool:
        return self.check.certified


@dataclass(frozen=True)
class RootSet:
    kind: SequenceKind
    n: int
    roots: tuple[RootRecord, ...]

    @property
    def all_certified(self) -> bool:
        return all(r.certified for r in self.roots)


def roots(kind: SequenceKind, n: int) -> RootSet:
    """All n real zeros in closed form, certified against the exact polynomial.

    beta_n vanishes at cot(k*pi/(n+1)) and alpha_n at cot((2k-1)*pi/(2n)),
    k = 1..n; both lists are strictly decreasing in k.  The nodes and their
    certificates are computed at ``node_precision(n)`` bits.  The polynomial
    is the family's default build: beta_n from beta's recurrence prefix, and
    alpha_n from the same prefix by the interchange relation.  Raises
    ValueError for n < 1 and n > MAX_ROOT_DEGREE.

    Only the records with 2k <= n+1 call ``cot_node`` and are certified;
    record k with 2k > n+1 takes the negated value and the certificate of
    its mirror n+1-k.  Both are what it would get itself.  In both kinds the
    node of record k is exactly the negation of its mirror's: ``cot_node``
    returns it so (for alpha the numerator 2k-1 mirrors to 2n-(2k-1) =
    2(n+1-k)-1), and negating an mpf at the precision it was rounded to is
    exact.  The certificate reads only |p(t)| and |p'(t)| from
    ``eval_poly``, which give the same bits at -t as at t: p has the parity
    of n and p' that of n-1, so each has one empty half, and ``eval_poly``
    evaluates the other half at the same rounded y = t*t from -t as from t.
    An even half's value is the result; an odd half's is multiplied by -t
    instead of t, and rounding to nearest, ties to even, is odd.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ROOT_DEGREE:
        raise ValueError(f"n = {n} exceeds MAX_ROOT_DEGREE = {MAX_ROOT_DEGREE}")
    if kind not in (SequenceKind.BETA, SequenceKind.ALPHA):
        raise ValueError("root sets are defined for the beta and alpha families")
    p = families.build(kind, n)
    records = []
    with workprec(node_precision(n)):
        p_mpf, dp_mpf = prepare(p), prepare(p.differentiate())
        for k in range(1, n + 1):
            if kind is SequenceKind.BETA:
                closed, num, den = f"cot({k}*pi/{n + 1})", k, n + 1
            else:
                closed, num, den = f"cot({2 * k - 1}*pi/{2 * n})", 2 * k - 1, 2 * n
            if 2 * k > n + 1:
                mirror = records[n - k]
                value, check = -mirror.value, mirror.check
            else:
                value = cot_node(num, den)
                check = certify_simple_root(p_mpf, value, dp_mpf)
            records.append(RootRecord(k, closed, value, check))
    return RootSet(kind, n, tuple(records))


def sign_changes_between_roots(kind: SequenceKind, n: int) -> bool:
    """Exact-arithmetic bracketing of the closed-form zeros.

    Converts each numeric root to the exact rational it denotes at working
    precision, evaluates the polynomial exactly at midpoints between
    consecutive roots (and outside the extremes), and requires strictly
    alternating signs, which pins one simple real root per interval.
    """
    rs = roots(kind, n)
    points = [mpf_to_fraction(r.value) for r in rs.roots]  # decreasing
    probes = [points[0] + 1]
    for a, b in zip(points, points[1:]):
        probes.append((a + b) / 2)
    probes.append(points[-1] - 1)
    p = families.build(kind, n)
    signs = []
    for t in probes:
        v = p.evaluate(t)
        if v == 0:
            return False
        signs.append(v > 0)
    return all(sa != sb for sa, sb in zip(signs, signs[1:]))


def ode_residual(kind: SequenceKind, n: int) -> Polynomial:
    """Residual of the second-order ODE each family satisfies; must be zero.

    beta:  (1+x^2) y'' - 2 n x y' + n(n+1) y
    alpha: (1+x^2) y'' - 2 (n-1) x y' + n(n-1) y

    Both are (1+x^2) y'' - 2 m x y' + m(m+1) y, with m = n for beta and
    m = n-1 for alpha.  With y = sum c_k x^k, its coefficient of x^k is
    (k+2)(k+1) c_(k+2) + (k(k-1) - 2mk + m(m+1)) c_k, and the second factor
    is (m-k)(m-k+1); so each coefficient is computed in one pass, with no
    polynomial product.
    """
    if kind not in (SequenceKind.BETA, SequenceKind.ALPHA):
        raise ValueError("the ODE applies to the beta and alpha families")
    c = families.build(kind, n).coefficients
    m = n if kind is SequenceKind.BETA else n - 1
    d = len(c)
    return Polynomial(
        [
            (m - k) * (m - k + 1) * c[k] + ((k + 2) * (k + 1) * c[k + 2] if k + 2 < d else 0)
            for k in range(d)
        ]
    )
