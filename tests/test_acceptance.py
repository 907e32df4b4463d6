"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""
import random
import time
from fractions import Fraction
from math import factorial, isqrt

import mpmath
import pytest

import arctanpoly as ap
from arctanpoly import cli
from arctanpoly.families import BuildMethod, SequenceKind
from arctanpoly.highprec import ROOT_TOLERANCE, node_precision, to_mpf, workprec
from arctanpoly.poly import Polynomial


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number:02d}: {status} - {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def test_criterion_01_cross_method_equality():
    start = time.perf_counter()
    beta_report = ap.cross_validate(SequenceKind.BETA, 200)
    alpha_report = ap.cross_validate(SequenceKind.ALPHA, 200)
    elapsed = time.perf_counter() - start
    ok = beta_report.passed and alpha_report.passed and elapsed < 30
    _report(
        1,
        ok,
        f"all beta and alpha methods bit-identical up to n=200 in {elapsed:.2f}s "
        f"({len(beta_report.rows) + len(alpha_report.rows)} route checks)",
    )


def test_criterion_02_reference_tables():
    beta_expected = [
        Polynomial((1,)),
        Polynomial((0, 2)),
        Polynomial((-1, 0, 3)),
        Polynomial((0, -4, 0, 4)),
        Polynomial((1, 0, -10, 0, 5)),
        Polynomial((0, 6, 0, -20, 0, 6)),
    ]
    alpha_expected = [
        Polynomial((1,)),
        Polynomial((0, 1)),
        Polynomial((-1, 0, 1)),
        Polynomial((0, -3, 0, 1)),
        Polynomial((1, 0, -6, 0, 1)),
        Polynomial((0, 5, 0, -10, 0, 1)),
    ]
    ok = all(ap.build(SequenceKind.BETA, n) == beta_expected[n] for n in range(6)) and all(
        ap.build(SequenceKind.ALPHA, n) == alpha_expected[n] for n in range(6)
    )
    _report(2, ok, "beta_0..beta_5 and alpha_0..alpha_5 match the printed lists exactly")


def test_criterion_03_exact_identity_suite():
    n_max = 200
    betas = ap.build_sequence(SequenceKind.BETA, n_max + 1)
    # alpha's default route is beta_n - x beta_(n-1) on beta's own members,
    # so the interchange lines below would hold by construction; the
    # explicit sums make them evidence
    alphas = ap.build_sequence(SequenceKind.ALPHA, n_max + 1, BuildMethod.EXPLICIT)
    ps = ap.build_sequence(SequenceKind.P, n_max, BuildMethod.DERIVATIVE_RECURRENCE)
    x = Polynomial.x()
    shell = Polynomial((1, 0, 1))
    shells = [Polynomial.one()]
    for _ in range(n_max):
        shells.append(shells[-1] * shell)
    fact = 1
    ok = True
    for n in range(n_max + 1):
        beta_n, alpha_n = betas[n], alphas[n]
        flip_beta = Polynomial([(-1) ** k * c for k, c in enumerate(beta_n.coefficients)])
        flip_alpha = Polynomial([(-1) ** k * c for k, c in enumerate(alpha_n.coefficients)])
        sign = (-1) ** n
        ok &= flip_beta == sign * beta_n and flip_alpha == sign * alpha_n  # parity
        if n:
            fact *= n
        ok &= ps[n] == fact * flip_beta  # P_n = n! beta_n(-x)
        ok &= not ap.ode_residual(SequenceKind.BETA, n)
        ok &= not ap.ode_residual(SequenceKind.ALPHA, n)
        if n >= 1:
            ok &= beta_n.differentiate() == (n + 1) * betas[n - 1]
            ok &= alpha_n.differentiate() == n * alphas[n - 1]
            ok &= alpha_n == beta_n - x * betas[n - 1]
            ok &= beta_n == x * shell * alphas[n - 1] - Polynomial((-1, 0, 1)) * alpha_n
            ok &= beta_n * beta_n - betas[n - 1] * betas[n + 1] == shells[n]
            ok &= alpha_n * alpha_n - alphas[n - 1] * alphas[n + 1] == shells[n - 1]
        if not ok:
            break
    _report(3, ok, f"parity/derivative/ODE/interchange/Turan/P identities zero-residual, n<=200")


def test_criterion_04_generating_functions():
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]
    ok = all(
        ap.verify_ogf(kind, pt, 40) and ap.verify_egf(kind, pt, 40)
        for kind in (SequenceKind.BETA, SequenceKind.ALPHA)
        for pt in points
    )
    _report(4, ok, "OGF and EGF truncations match family values at 5 points, order 40, exactly")


def test_criterion_05_chebyshev_bridges():
    ok = all(
        ap.beta_from_chebyshev(n) == ap.build(SequenceKind.BETA, n)
        and ap.alpha_from_chebyshev(n) == ap.build(SequenceKind.ALPHA, n)
        for n in range(201)
    )
    samples = [
        (1, Fraction(3), 4),
        (4, Fraction(-5, 2), 9),
        (1, Fraction(1, 3), 1),
        (9, Fraction(2), 4),
        (16, Fraction(-7), 9),
        (1, Fraction(5), 16),
        (25, Fraction(1, 2), 4),
        (4, Fraction(11, 5), 25),
        (9, Fraction(-1, 4), 16),
        (36, Fraction(3, 2), 1),
    ]
    for a, b, c in samples:
        s = isqrt(a * c)
        assert s * s == a * c
        for n in range(1, 21):
            u_n = ap.chebyshev(ap.ChebyshevKind.SECOND_KIND, n)
            expected = Fraction(s) ** n * u_n.evaluate(b / (2 * s))
            ok &= ap.tridiag_det(Fraction(a), b, Fraction(c), n) == expected
    _report(5, ok, "bridges equal recurrence builds for n<=200; tridiagonal identity at 10 samples")


def test_criterion_06_derivative_oracles():
    points = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    ok = True
    for pt in points:
        for n in range(1, 6):
            exact = float(ap.arctan_nth_derivative(n, pt))
            fd = float(ap.finite_difference_derivative(n, pt))
            ok &= abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))
    with workprec(128):
        for pt in points:
            for n in range(1, 31):
                exact = to_mpf(ap.arctan_nth_derivative(n, pt))
                float_form = ap.chebyshev_derivative_form(n, pt)
                ok &= bool(abs(float_form - exact) <= mpmath.mpf("1e-12") * max(1, abs(exact)))
    _report(6, ok, "finite differences (rel 1e-4, n<=5) and Chebyshev form (1e-12, n<=30) agree")


def test_criterion_07_root_certificates():
    # roots works out its precision from n; pin it, and the tolerance, here
    ok = ROOT_TOLERANCE == 1e-9
    worst = 0.0
    for kind in (SequenceKind.BETA, SequenceKind.ALPHA):
        for n in range(1, 51):
            ok &= node_precision(n) == 128
            rs = ap.roots(kind, n)
            ok &= rs.all_certified
            worst = max(
                worst, max(r.check.residual / max(1.0, r.check.slope) for r in rs.roots)
            )
    _report(
        7,
        ok,
        f"all cot nodes certify as simple roots for n<=50 at 128 bits "
        f"(worst slope-scaled residual {worst:.2e} < 1e-9)",
    )


def test_criterion_08_hessenberg():
    ok = all(
        ap.charpoly(ap.build_H(n)) == ap.build(SequenceKind.MONIC_PI, n) for n in range(1, 13)
    )
    ok &= ap.bracket(1, 1) == Fraction(1, 3)
    ok &= ap.bracket(3, 3) == Fraction(2, 15)
    ok &= ap.bracket(5, 5) == Fraction(16, 63)
    ok &= all(ap.eigen_check(n) for n in range(1, 9))
    _report(8, ok, "charpoly(H_n) = pi_n for n<=12; printed brackets match; eigen checks n<=8")


def test_criterion_09_series():
    details = []
    ok = True

    start = time.perf_counter()
    value, terms = ap.pi_approx(ap.SeriesKind.EULER, 1e-10)
    euler_ok = abs(value - float(mpmath.pi)) < 1e-10 and terms <= 45
    details.append(f"classical pi in {terms} terms")
    value, terms = ap.pi_approx(ap.SeriesKind.BETA_EXPANSION, 1e-10)
    beta_ok = abs(value - float(mpmath.pi)) < 1e-10 and terms <= 90
    details.append(f"beta-expansion pi in {terms} terms")
    ok &= euler_ok and beta_ok

    monotone_failures = []
    for x in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
        for kind in ap.SeriesKind:
            run_start = time.perf_counter()
            report = ap.partial_sum(kind, x, 80)
            run_elapsed = time.perf_counter() - run_start
            ok &= report.final_error < 1e-10 and run_elapsed < 5
            errors = [row.abs_error for row in report.rows]
            for n in range(5, len(errors) - 1):
                if errors[n + 1] > errors[n]:
                    monotone_failures.append((kind.value, str(x), n + 1))
                    break
    elapsed = time.perf_counter() - start
    details.append(f"{elapsed:.2f}s total")
    if monotone_failures:
        details.append(
            "monotone error decay past index 5 FAILS for "
            + "; ".join(f"{k} at x={x} (first rise at n={n})" for k, x, n in monotone_failures)
        )
    ok &= not monotone_failures
    _report(9, ok, "; ".join(details))


def test_criterion_10_fibonacci_lucas_matching():
    x = Polynomial.x()
    ok = True
    for h in (x, 2 * x, Polynomial((1, 0, 1))):
        for n in range(1, 13):
            ok &= ap.fibonacci_poly(n, h, ap.FibonacciMethod.CLOSED_FORM) == ap.fibonacci_poly(
                n, h, ap.FibonacciMethod.RECURRENCE_ORACLE
            )
            ok &= ap.lucas_poly(n, h, ap.FibonacciMethod.CLOSED_FORM) == ap.lucas_poly(
                n, h, ap.FibonacciMethod.RECURRENCE_ORACLE
            )
    for n in range(1, 15):
        graph = ap.GraphKind(ap.GraphFamily.PATH, n)
        built = [ap.matching_poly(graph, m) for m in ap.MatchingMethod]
        ok &= built[0] == built[1] == built[2]
    for n in range(3, 15):
        graph = ap.GraphKind(ap.GraphFamily.CYCLE, n)
        built = [ap.matching_poly(graph, m) for m in ap.MatchingMethod]
        ok &= built[0] == built[1] == built[2]
    fib_numbers = [ap.fibonacci_poly(n, x).evaluate(Fraction(1)) for n in range(1, 7)]
    lucas_numbers = [ap.lucas_poly(n, x).evaluate(Fraction(1)) for n in range(1, 6)]
    ok &= fib_numbers == [1, 1, 2, 3, 5, 8] and lucas_numbers == [1, 3, 4, 7, 11]
    _report(10, ok, "Fibonacci/Lucas closed forms and matching methods agree; number rows correct")


def test_criterion_11_tan_multiples():
    rng = random.Random(20260810)
    points = [Fraction(rng.randint(-999, 999), 1000) for _ in range(20)]
    ok = True
    with workprec(128):
        for n in range(1, 31):
            ratio = ap.tan_multiple(n)
            for pt in points:
                den = ratio.denominator.evaluate(pt)
                if abs(den) <= Fraction(1, 1000):
                    continue
                exact = to_mpf(Fraction(ratio.numerator.evaluate(pt))) / to_mpf(Fraction(den))
                direct = mpmath.tan(n * mpmath.atan(to_mpf(pt)))
                ok &= bool(abs(exact - direct) <= mpmath.mpf("1e-10"))
    x = Polynomial.x()
    shell = Polynomial((1, 0, 1))
    for n in range(1, 31):
        alpha_n = ap.build(SequenceKind.ALPHA, n)
        beta_n = ap.build(SequenceKind.BETA, n)
        beta_prev = ap.build(SequenceKind.BETA, n - 1)
        alpha_prev = ap.build(SequenceKind.ALPHA, n - 1)
        if n % 2 == 0:
            ok &= x * alpha_n - shell * alpha_prev == -beta_prev
        else:
            ok &= beta_n - x * beta_prev == alpha_n
    _report(11, ok, "ratios match tan(n arctan x) at 20 random points; alternative forms exact")


def test_criterion_12_verify_cli():
    start = time.perf_counter()
    code = cli.main(["verify", "--suite", "all", "--max-n", "50"])
    elapsed = time.perf_counter() - start
    ok = code == 0 and elapsed < 60
    _report(12, ok, f"verify --suite all --max-n 50 exited {code} in {elapsed:.2f}s")
