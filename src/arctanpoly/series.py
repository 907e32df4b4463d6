"""Two series expansions of arctan with exact partial sums and error tracking.

Classical factorial-ratio series:

    arctan x = sum_{n>=0} 4^n (n!)^2 / (2n+1)!  *  x^(2n+1) / (1+x^2)^(n+1)

and the expansion driven by the beta family:

    arctan x = sum_{n>=0} beta_n(x)/(n+1)  *  x^(n+1) / (1+x^2)^(n+1).

Since |beta_n(x)| <= (n+1)(1+x^2)^(n/2), the beta-expansion term is bounded
by q^(n+1)/sqrt(1+x^2) with q = |x|/sqrt(1+x^2) < 1, so both series converge
for every real x; convergence merely slows as |x| grows, and |x| > 4 is
flagged as slow rather than rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb, isfinite

from .exact import format_rational
from .families import SequenceKind, family_values
from .highprec import atan_reference, mpf, mpf_to_fraction, to_mpf, workprec

EXACT_TERM_LIMIT = 500  # rational partial sums beyond this switch to mpf
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
    exact_terms: int = 0  # rows up to this count carry exact sums
    slow_convergence: bool = False

    @property
    def final_error(self) -> float:
        return self.rows[-1].abs_error if self.rows else float("nan")

    def csv(self) -> str:
        lines = ["n,term,partial_sum,abs_error"]
        for row in self.rows:
            lines.append(
                f"{row.n},{format_rational(row.term)},"
                f"{format_rational(row.partial_sum)},{row.abs_error!r}"
            )
        return "\n".join(lines) + "\n"


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
    beta_n = family_values(SequenceKind.BETA, x, n + 1)[-1]
    return beta_n * x ** (n + 1) / ((n + 1) * shell)


def _term_stream(kind: SeriesKind, x: Fraction):
    """Yield exact terms without recomputing shared factors from scratch."""
    shell_step = 1 + x * x
    shell = shell_step
    if kind is SeriesKind.EULER:
        factor = Fraction(1)
        power = x
        n = 0
        while True:
            yield factor * power / shell
            # factor ratio: 4 (n+1)^2 / ((2n+2)(2n+3)) = 2(n+1)/(2n+3)
            factor *= Fraction(2 * (n + 1), 2 * n + 3)
            power *= x * x
            shell *= shell_step
            n += 1
    else:
        b_prev, b_cur = Fraction(1), 2 * x
        power = x
        n = 0
        while True:
            b_n = b_prev if n == 0 else b_cur
            yield b_n * power / ((n + 1) * shell)
            if n >= 1:
                b_prev, b_cur = b_cur, 2 * x * b_cur - shell_step * b_prev
            power *= x
            shell *= shell_step
            n += 1


def partial_sum(kind: SeriesKind, x: Fraction, terms: int) -> SeriesReport:
    """Exact partial sums with a float error column against reference arctan.

    Sums stay rational for the first EXACT_TERM_LIMIT terms; after that the
    accumulation continues in high-precision floats (whose dyadic values are
    still recorded exactly in the rows).
    """
    if terms < 1:
        raise ValueError("terms must be positive")
    x = Fraction(x)
    report = SeriesReport(
        kind=kind,
        x=x,
        slow_convergence=abs(x) > SLOW_CONVERGENCE_BOUND,
        exact_terms=min(terms, EXACT_TERM_LIMIT),
    )
    with workprec(ERROR_TRACKING_BITS):
        target = atan_reference(x, ERROR_TRACKING_BITS)
        report.target = float(target)
        stream = _term_stream(kind, x)
        acc: Fraction | None = Fraction(0)
        acc_mpf = mpf(0)
        for n in range(terms):
            term = next(stream)
            if n < EXACT_TERM_LIMIT:
                acc += term
                row_sum = acc
                err = abs(to_mpf(acc) - target)
            else:
                if acc is not None:
                    acc_mpf = to_mpf(acc)
                    acc = None
                acc_mpf += to_mpf(term)
                row_sum = mpf_to_fraction(acc_mpf)
                err = abs(acc_mpf - target)
            report.rows.append(SeriesRow(n, term, row_sum, float(err)))
    return report


def _tail_bound_at_one(kind: SeriesKind, n: int, latest_term: Fraction):
    """Upper bound on |sum of terms beyond n| at x = 1.

    Classical series: the term ratio (m+1)/(2m+3) never exceeds 1/2, so the
    tail is below the latest term.  Beta expansion: |term_m| is at most
    2^-(m+1)/2 / (m+1), and summing the geometric envelope gives
    2^-(n+2)/2 / ((n+2)(1 - 2^-1/2)).
    """
    if kind is SeriesKind.EULER:
        return to_mpf(abs(latest_term))
    envelope = mpf(2) ** (-(n + 2) / 2.0)
    return envelope / ((n + 2) * (1 - mpf(2) ** -0.5))


def _check_tolerance(tolerance: float) -> None:
    if not (isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tolerance}")


def pi_approx(kind: SeriesKind, tolerance: float) -> tuple[float, int]:
    """Approximate pi as 4 * (series at x = 1), stopping on a certified bound.

    Returns (value, terms_used); |value - pi| is below ``tolerance`` by the
    tail bounds documented in _tail_bound_at_one.  A tolerance that is not a
    finite positive number raises ValueError.
    """
    _check_tolerance(tolerance)
    one = Fraction(1)
    with workprec(ERROR_TRACKING_BITS):
        stream = _term_stream(kind, one)
        acc = Fraction(0)
        n = 0
        while True:
            term = next(stream)
            acc += term
            if 4 * _tail_bound_at_one(kind, n, term) < tolerance:
                return float(4 * to_mpf(acc)), n + 1
            n += 1
            if n > 10_000:
                raise RuntimeError("tolerance not reached within 10000 terms")


@dataclass(frozen=True)
class ComparisonRow:
    kind: SeriesKind
    terms_to_tolerance: int | None
    final_error: float


def compare_series(x: Fraction, tolerance: float, max_terms: int = 2000) -> list[ComparisonRow]:
    """Terms needed by each series to push the measured error below tolerance.

    A tolerance that is not a finite positive number raises ValueError.
    """
    _check_tolerance(tolerance)
    x = Fraction(x)
    out = []
    with workprec(ERROR_TRACKING_BITS):
        target = atan_reference(x, ERROR_TRACKING_BITS)
        for kind in SeriesKind:
            stream = _term_stream(kind, x)
            acc = Fraction(0)
            used = None
            err = mpf("inf")
            for n in range(max_terms):
                acc += next(stream)
                err = abs(to_mpf(acc) - target)
                if err < tolerance:
                    used = n + 1
                    break
            out.append(ComparisonRow(kind, used, float(err)))
    return out
