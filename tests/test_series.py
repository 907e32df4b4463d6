"""Series terms, partial sums, pi approximation, and the error columns."""
from fractions import Fraction

import mpmath
import pytest

from arctanpoly import series
from arctanpoly.highprec import to_mpf, workprec
from arctanpoly.series import (
    MAX_SUM_BITS,
    MAX_TERMS,
    SeriesKind,
    compare_series,
    partial_sum,
    pi_approx,
    series_term,
)


def test_term_examples():
    assert series_term(SeriesKind.EULER, 0, Fraction(1)) == Fraction(1, 2)
    assert series_term(SeriesKind.BETA_EXPANSION, 0, Fraction(1)) == Fraction(1, 2)
    assert series_term(SeriesKind.BETA_EXPANSION, 2, Fraction(1)) == Fraction(1, 12)


def test_term_closed_forms():
    # factorial-ratio coefficients 1, 2/3, 8/15, 16/35 for the classical series
    x = Fraction(2, 3)
    shell = 1 + x * x
    for n, coeff in enumerate([Fraction(1), Fraction(2, 3), Fraction(8, 15), Fraction(16, 35)]):
        expected = coeff * x ** (2 * n + 1) / shell ** (n + 1)
        assert series_term(SeriesKind.EULER, n, x) == expected


def test_partial_sum_rows_are_cumulative_and_match_terms():
    report = partial_sum(SeriesKind.BETA_EXPANSION, Fraction(2, 5), 30)
    acc = Fraction(0)
    for row in report.rows:
        assert row.term == series_term(SeriesKind.BETA_EXPANSION, row.n, Fraction(2, 5))
        acc += row.term
        assert row.partial_sum == acc


@pytest.mark.parametrize("kind", list(SeriesKind))
@pytest.mark.parametrize(
    "x",
    [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(0), Fraction(-3, 7), Fraction(9, 2)],
)
def test_partial_sums_stay_exact_past_500_terms(kind, x):
    report = partial_sum(kind, x, 600)
    acc = Fraction(0)
    for n, row in enumerate(report.rows):
        acc += series_term(kind, n, x)
        assert row.partial_sum == acc


def test_partial_sum_examples():
    report = partial_sum(SeriesKind.BETA_EXPANSION, Fraction(1), 80)
    assert report.final_error < 1e-10
    report = partial_sum(SeriesKind.EULER, Fraction(1), 40)
    assert report.final_error < 1e-10
    report = partial_sum(SeriesKind.EULER, Fraction(0), 1)
    assert report.rows[0].partial_sum == 0
    assert report.final_error == 0


def test_partial_sums_converge_to_reference():
    with workprec(256):
        for x in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
            target = mpmath.atan(to_mpf(x))
            for kind in SeriesKind:
                report = partial_sum(kind, x, 60)
                final = to_mpf(report.rows[-1].partial_sum)
                assert abs(final - target) < mpmath.mpf("1e-9")


def test_euler_error_decays_monotonically():
    for x in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
        errors = [r.abs_error for r in partial_sum(SeriesKind.EULER, x, 60).rows]
        assert all(b <= a for a, b in zip(errors[5:], errors[6:]))


def test_beta_expansion_error_envelope():
    # the pointwise error oscillates inside sign blocks, but stays below the
    # provable envelope q^(n+2)/(sqrt(1+x^2)(1-q)), q = |x|/sqrt(1+x^2)
    for x in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
        report = partial_sum(SeriesKind.BETA_EXPANSION, x, 60)
        with workprec(256):
            root_shell = mpmath.sqrt(1 + to_mpf(x) ** 2)
            q = abs(to_mpf(x)) / root_shell
            for row in report.rows:
                bound = q ** (row.n + 2) / (root_shell * (1 - q))
                assert row.abs_error <= bound


def test_slow_convergence_flag():
    assert partial_sum(SeriesKind.EULER, Fraction(5), 3).slow_convergence
    assert not partial_sum(SeriesKind.EULER, Fraction(4), 3).slow_convergence


def test_pi_examples():
    value, terms = pi_approx(SeriesKind.EULER, 1e-10)
    assert abs(value - float(mpmath.pi)) < 1e-10
    assert terms <= 45
    value, terms = pi_approx(SeriesKind.BETA_EXPANSION, 1e-10)
    assert abs(value - float(mpmath.pi)) < 1e-10
    assert terms <= 90
    value, terms = pi_approx(SeriesKind.EULER, 1e-1)
    assert abs(value - float(mpmath.pi)) < 0.1
    assert terms <= 5


def _documented_tail_bounds(kind):
    """4 * the tail bound after term n at x = 1, for n = 0, 1, ..., as 1024-bit mpf values."""
    n = 0
    while True:
        with workprec(1024):
            if kind is SeriesKind.EULER:
                bound = 4 * abs(to_mpf(series_term(kind, n, Fraction(1))))
            else:
                root = mpmath.sqrt(2)
                bound = 4 / (root ** (n + 2) * (n + 2) * (1 - 1 / root))
        yield bound
        n += 1


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_pi_stops_where_the_documented_tail_bound_first_falls_below_tol(kind):
    tolerances = [float(f"1e-{k}") for k in range(1, 301, 6)]
    bounds = _documented_tail_bounds(kind)
    n, bound = 0, next(bounds)
    for tol in tolerances:
        while not bound < mpmath.mpf(tol):
            n, bound = n + 1, next(bounds)
        value, terms = pi_approx(kind, tol)
        assert terms == n + 1, tol
        assert type(value) is Fraction
        if tol == 1e-31:
            assert value == 4 * sum(series_term(kind, m, Fraction(1)) for m in range(terms))


def test_compare_series_examples():
    rows = compare_series(Fraction(1), 1e-8)
    by_kind = {row.kind: row for row in rows}
    assert by_kind[SeriesKind.EULER].terms_to_tolerance is not None
    assert by_kind[SeriesKind.BETA_EXPANSION].terms_to_tolerance is not None
    assert (
        by_kind[SeriesKind.EULER].terms_to_tolerance
        < by_kind[SeriesKind.BETA_EXPANSION].terms_to_tolerance
    )
    rows = compare_series(Fraction(1, 5), 1e-8)
    assert all(row.terms_to_tolerance is not None for row in rows)
    rows = compare_series(Fraction(0), 1e-6)
    assert all(row.terms_to_tolerance == 1 for row in rows)


def test_csv_emission():
    report = partial_sum(SeriesKind.EULER, Fraction(1), 3)
    lines = list(report.csv_lines())
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    lines = [line.rstrip("\n") for line in lines]
    assert lines[0] == "n,term,partial_sum,abs_error"
    assert lines[1].startswith("0,1/2,1/2,")
    assert lines[2].startswith("1,1/6,2/3,")
    assert len(lines) == 4


def test_input_validation():
    with pytest.raises(ValueError):
        series_term(SeriesKind.EULER, -1, Fraction(1))
    with pytest.raises(ValueError):
        partial_sum(SeriesKind.EULER, Fraction(1), 0)
    assert len(partial_sum(SeriesKind.EULER, Fraction(0), MAX_TERMS).rows) == MAX_TERMS
    with pytest.raises(ValueError, match=f"at most {MAX_TERMS}, got {MAX_TERMS + 1}"):
        partial_sum(SeriesKind.EULER, Fraction(0), MAX_TERMS + 1)
    # compare_series's error column is a 512-bit mpf, so a tolerance below
    # about 1e-154 is never reached and its walk runs to max_terms; at x = 0
    # the first term meets any tolerance
    rows = compare_series(Fraction(0), 1e-6, MAX_TERMS)
    assert [row.terms_to_tolerance for row in rows] == [1, 1]
    with pytest.raises(ValueError, match=f"at most {MAX_TERMS}, got {MAX_TERMS + 1}"):
        compare_series(Fraction(1), 1e-300, MAX_TERMS + 1)
    with pytest.raises(ValueError):
        pi_approx(SeriesKind.EULER, 0.0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-8])
def test_compare_series_rejects_non_finite_or_non_positive_tolerance(tolerance):
    with pytest.raises(ValueError, match="finite positive"):
        compare_series(Fraction(1), tolerance, 300)


def _sum_bound(terms, x):
    b = max(x.numerator.bit_length(), x.denominator.bit_length(), 1)
    return 2 * terms * (terms.bit_length() + 2 * b + 2) + terms.bit_length()


def test_sum_bound_holds():
    points = [Fraction(0), Fraction(1), Fraction(-2), Fraction(2, 5), Fraction(-7, 2),
              Fraction(1000000007, 3), Fraction(-(2**40 - 1), 2**40 - 3)]
    for x in points:
        for kind in SeriesKind:
            for row in partial_sum(kind, x, 120).rows:
                total = row.partial_sum
                bits = total.numerator.bit_length() + total.denominator.bit_length()
                assert bits <= _sum_bound(row.n + 1, x), (kind, x, row.n)


@pytest.mark.parametrize(
    "terms, x",
    [(MAX_TERMS, Fraction(p, q)) for p in range(-3, 4) for q in (1, 2, 3)]
    + [(300, Fraction(-2, 1)), (300, Fraction(2, 1)), (80, Fraction(1, 5)),
       (600, Fraction(3)), (600, Fraction(2, 5))],
)
def test_sum_size_cap_admits_every_table_in_use(terms, x):
    # the CLI's worst case, the benchmark's series ops, the verify suite and
    # the test points above; only the check runs
    series._check_size("terms", terms, x)


def test_sum_size_cap_boundary():
    # 1000000007/3 has b = 30, so the bound is 2N (bitlen(N) + 62) + bitlen(N);
    # 1369 terms is the last table under the cap.  Only the check runs at the
    # boundary: the sums themselves are never computed there.
    x = Fraction(1000000007, 3)
    assert _sum_bound(1369, x) <= MAX_SUM_BITS < _sum_bound(1370, x)
    series._check_size("terms", 1369, x)
    with pytest.raises(ValueError, match="MAX_SUM_BITS"):
        partial_sum(SeriesKind.EULER, x, 1370)
    with pytest.raises(ValueError, match="MAX_SUM_BITS"):
        compare_series(x, 1e-8, 1370)
    # a long literal is refused at a few terms
    wide = Fraction(10**1300 + 1, 3)
    assert _sum_bound(31, wide) > MAX_SUM_BITS
    with pytest.raises(ValueError, match="MAX_SUM_BITS"):
        partial_sum(SeriesKind.BETA_EXPANSION, wide, 31)
