"""Two series expansions of arctan with exact partial sums and error tracking.

Classical factorial-ratio series:

    arctan x = sum_{n>=0} 4^n (n!)^2 / (2n+1)!  *  x^(2n+1) / (1+x^2)^(n+1)

and the expansion driven by the beta family:

    arctan x = sum_{n>=0} beta_n(x)/(n+1)  *  x^(n+1) / (1+x^2)^(n+1).

At x = p/q the summed terms come from their integer forms, stepped from the
term before in ints or by a small rational ratio; ``series_term`` computes
a term from its definition, and the tests compare the two.

Since |beta_n(x)| <= (n+1)(1+x^2)^(n/2), the beta-expansion term is bounded
by q^(n+1)/sqrt(1+x^2) with q = |x|/sqrt(1+x^2) < 1, so both series converge
for every real x; convergence merely slows as |x| grows, and |x| > 4 is
flagged as slow rather than rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import count
from math import comb, isfinite

from .exact import format_rational
from .families import SINGLE_MEMBER_METHOD, SequenceKind, build
from .highprec import atan_reference, to_mpf, workprec

# Largest partial sum and longest pi run.  pi needs 2,133 beta terms at
# the smallest positive float tolerance, 5e-324.
MAX_TERMS = 5000
# Bound on the bits of a table's last exact partial sum (see _check_size); it
# admits MAX_TERMS terms at every x = p/q with |p|, q < 4.
MAX_SUM_BITS = 200_000
SLOW_CONVERGENCE_BOUND = Fraction(4)
ERROR_TRACKING_BITS = 512


class SeriesKind(Enum):
    EULER = "euler"
    BETA_EXPANSION = "beta-expansion"


@dataclass(frozen=True)
class SeriesRow:
    n: int
    term: Fraction
    partial_sum: Fraction
    abs_error: float


@dataclass
class SeriesReport:
    kind: SeriesKind
    x: Fraction
    rows: list[SeriesRow] = field(default_factory=list)
    target: float = 0.0
    slow_convergence: bool = False

    @property
    def final_error(self) -> float:
        return self.rows[-1].abs_error if self.rows else float("nan")

    def csv_lines(self):
        """The CSV table, one newline-terminated line at a time, so a writer
        never holds more than one formatted row."""
        yield "n,term,partial_sum,abs_error\n"
        for row in self.rows:
            yield (
                f"{row.n},{format_rational(row.term)},"
                f"{format_rational(row.partial_sum)},{row.abs_error!r}\n"
            )


def series_term(kind: SeriesKind, n: int, x: Fraction) -> Fraction:
    """Exact value of term n at a rational point."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    shell = (1 + x * x) ** (n + 1)
    if kind is SeriesKind.EULER:
        # 4^n (n!)^2/(2n+1)! = 4^n / ((2n+1) C(2n,n))
        factor = Fraction(4**n, (2 * n + 1) * comb(2 * n, n))
        return factor * x ** (2 * n + 1) / shell
    beta_n = build(SequenceKind.BETA, n, SINGLE_MEMBER_METHOD[SequenceKind.BETA]).evaluate(x)
    return beta_n * x ** (n + 1) / ((n + 1) * shell)


def _term_stream(kind: SeriesKind, x: Fraction):
    """Yield exact terms from the integer forms that _check_size bounds, at
    x = p/q with s = p^2+q^2.

    Euler term n is 2^n n!/(2n+1)!! p^(2n+1) q / s^(n+1): from pq/s, each
    step multiplies by 2(n+1) p^2 / ((2n+3) s), whose small factors are all
    that can cancel, so no gcd runs over the full-size terms.  Beta term n
    is Im((p+iq)^(n+1)) p^(n+1) / ((n+1) s^(n+1)), one Fraction of the
    Gaussian power and the powers of p and s, each stepped as an int.
    """
    p, q = x.numerator, x.denominator
    s = p * p + q * q
    if kind is SeriesKind.EULER:
        term = Fraction(p * q, s)
        for n in count():
            yield term
            term *= Fraction(2 * (n + 1) * p * p, (2 * n + 3) * s)
    # at m = n+1: re + i im = (p+iq)^m, p_pow = p^m, s_pow = s^m
    re, im, p_pow, s_pow = p, q, p, s
    for m in count(1):
        yield Fraction(im * p_pow, m * s_pow)
        re, im = re * p - im * q, re * q + im * p
        p_pow *= p
        s_pow *= s


def _check_size(name: str, terms: int, x: Fraction) -> None:
    """Refuse more than MAX_TERMS terms, or a last partial sum past MAX_SUM_BITS.

    At x = p/q with b = max(bitlen p, bitlen q, 1), euler term n is
    2^n n!/(2n+1)!! p^(2n+1) q/(p^2+q^2)^(n+1) and beta term n is
    Im((p+iq)^(n+1)) p^(n+1)/((n+1) (p^2+q^2)^(n+1)).  The first N share the
    denominator (2N-1)!! or N! (N factors below 2^(bitlen(N)+1)) times
    (p^2+q^2)^N < 2^(N(2b+1)), so N(bitlen(N)+2b+2) bits bound it.  Each term
    is below 1 in size (2^n n! = (2n)!! <= (2n+1)!!, |x|/(1+x^2) <= 1/2 and
    |beta_n(x)| <= (1+x^2)^((n+1)/2)), so |numerator| < N * that denominator.
    """
    if terms > MAX_TERMS:
        raise ValueError(f"{name} must be at most {MAX_TERMS}, got {terms}")
    b = max(x.numerator.bit_length(), x.denominator.bit_length(), 1)
    bits = 2 * terms * (terms.bit_length() + 2 * b + 2) + terms.bit_length()
    if bits > MAX_SUM_BITS:
        raise ValueError(
            f"{terms} terms at this x may need {bits} bits, more than MAX_SUM_BITS = {MAX_SUM_BITS}"
        )


def _walk(kind: SeriesKind, x: Fraction, terms: int, target):
    """Yield (n, term, exact partial sum, |partial sum - target|) for n < terms.

    ``target`` is the reference arctan x as an mpf.  The errors are mpf
    values at ERROR_TRACKING_BITS, the precision the walk holds until it is
    exhausted or closed; the terms and sums stay exact rationals.
    """
    acc = Fraction(0)
    with workprec(ERROR_TRACKING_BITS):
        for n, term in zip(range(terms), _term_stream(kind, x)):
            acc += term
            yield n, term, acc, abs(to_mpf(acc) - target)


def partial_sum(kind: SeriesKind, x: Fraction, terms: int) -> SeriesReport:
    """Exact partial sums with a float error column against reference arctan.

    ``terms`` runs from 1 to MAX_TERMS, within MAX_SUM_BITS; else ValueError.
    """
    if terms < 1:
        raise ValueError("terms must be positive")
    x = Fraction(x)
    _check_size("terms", terms, x)
    target = atan_reference(x, ERROR_TRACKING_BITS)
    walk = _walk(kind, x, terms, target)
    return SeriesReport(
        kind=kind,
        x=x,
        rows=[SeriesRow(n, term, total, float(err)) for n, term, total, err in walk],
        target=float(target),
        slow_convergence=abs(x) > SLOW_CONVERGENCE_BOUND,
    )


def _tail_below(kind: SeriesKind, n: int, latest_term: Fraction, tolerance: Fraction) -> bool:
    """Whether 4 * (a bound on |sum of terms beyond n| at x = 1) < tolerance, exactly.

    Classical series: the term ratio (m+1)/(2m+3) never exceeds 1/2, so the
    tail is below the latest term.  Beta expansion: |term_m| is at most
    2^-(m+1)/2 / (m+1), and summing the geometric envelope gives
    2^-(n+2)/2 / ((n+2)(1 - s)) with s = 2^-1/2.

    With t = tolerance * (n+2) and 4 * 2^-(n+2)/2 = a + f*s (a is zero for
    odd n, f for even n), the beta test 4 * envelope < tolerance reads
    a + b*s < t with b = f + t >= 0, which holds exactly when t - a > 0 and
    b^2/2 < (t - a)^2.
    """
    if kind is SeriesKind.EULER:
        return 4 * abs(latest_term) < tolerance
    t = tolerance * (n + 2)
    rational = Fraction(4, 2 ** ((n + 2) // 2))  # 4 * 2^-(n+2)/2 is this, times s for odd n
    a, b = (0, rational + t) if n % 2 else (rational, t)
    return t > a and b * b < 2 * (t - a) ** 2


def _check_tolerance(tolerance: float) -> None:
    if not (isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tolerance}")


def pi_approx(kind: SeriesKind, tolerance: float) -> tuple[Fraction, int]:
    """Approximate pi as 4 * (series at x = 1), stopping on a certified bound.

    Returns (value, terms_used), the exact rational 4 * S_N and N, with
    |value - pi| below ``tolerance`` by the tail bounds documented in
    _tail_below.  A tolerance that is not a finite positive number raises
    ValueError, and one that needs more than MAX_TERMS terms RuntimeError.
    """
    _check_tolerance(tolerance)
    tolerance = Fraction(tolerance)
    acc = Fraction(0)
    for n, term in zip(range(MAX_TERMS), _term_stream(kind, Fraction(1))):
        acc += term
        if _tail_below(kind, n, term, tolerance):
            return 4 * acc, n + 1
    raise RuntimeError(f"tolerance not reached within {MAX_TERMS} terms")


@dataclass(frozen=True)
class ComparisonRow:
    kind: SeriesKind
    terms_to_tolerance: int | None
    final_error: float


def compare_series(x: Fraction, tolerance: float, max_terms: int = 2000) -> list[ComparisonRow]:
    """Terms needed by each series to push the measured error below tolerance.

    A tolerance that is not a finite positive number, or a ``max_terms``
    past MAX_TERMS or MAX_SUM_BITS, raises ValueError.
    """
    _check_tolerance(tolerance)
    x = Fraction(x)
    _check_size("max_terms", max_terms, x)
    target = atan_reference(x, ERROR_TRACKING_BITS)
    out = []
    for kind in SeriesKind:
        used, err = None, float("inf")
        for n, _, _, err in _walk(kind, x, max_terms, target):
            if err < tolerance:
                used = n + 1
                break
        out.append(ComparisonRow(kind, used, float(err)))
    return out
