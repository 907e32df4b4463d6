"""tan multiples, Fibonacci/Lucas polynomials, matching polynomials."""
from fractions import Fraction

import mpmath
import pytest

from arctanpoly.connections import (
    ENUMERATION_LIMIT,
    FibonacciMethod,
    GraphFamily,
    GraphKind,
    MatchingMethod,
    SizeLimitError,
    TanRatio,
    fibonacci_poly,
    lucas_poly,
    matching_poly,
    tan_multiple,
)
from arctanpoly.checks import _tan_multiple_matches, suite_connections
from arctanpoly.families import BuildMethod, SequenceKind, build
from arctanpoly.highprec import to_mpf, workprec
from arctanpoly.poly import Polynomial

X = Polynomial.x()


def test_tan_multiple_examples():
    assert tan_multiple(3).evaluate(Fraction(1)) == -1  # tan(3*pi/4)
    ratio = tan_multiple(1)
    assert ratio.numerator == X and ratio.denominator == Polynomial.one()
    ratio = tan_multiple(2)
    assert ratio.denominator.evaluate(Fraction(1)) == 0  # pole of tan(pi/2)
    with pytest.raises(ZeroDivisionError):
        ratio.evaluate(Fraction(1))


def test_tan_multiple_parity_shapes():
    for n in range(1, 20):
        ratio = tan_multiple(n)
        alpha_n = build(SequenceKind.ALPHA, n)
        beta_prev = build(SequenceKind.BETA, n - 1)
        if n % 2 == 0:
            assert ratio.parity == "even"
            assert ratio.numerator == -beta_prev and ratio.denominator == alpha_n
        else:
            assert ratio.parity == "odd"
            assert ratio.numerator == alpha_n and ratio.denominator == beta_prev


def test_tan_multiple_matches_tan_numerically():
    with workprec(128):
        for n in range(1, 31):
            ratio = tan_multiple(n)
            for num in range(-9, 10, 2):
                pt = Fraction(num, 10)
                den = ratio.denominator.evaluate(pt)
                if abs(den) <= Fraction(1, 1000):
                    continue
                exact = to_mpf(Fraction(ratio.numerator.evaluate(pt))) / to_mpf(Fraction(den))
                direct = mpmath.tan(n * mpmath.atan(to_mpf(pt)))
                assert abs(exact - direct) < mpmath.mpf("1e-10")


def test_exact_tan_check_accepts_true_ratios_and_poles():
    for n in range(1, 31):
        ratio = tan_multiple(n)
        for num in range(-12, 13):
            assert _tan_multiple_matches(ratio, n, Fraction(num, 4))
    # tan(2 arctan 1) is a pole: alpha_2(1) = 0 and (1 + i)^2 = 2i
    assert tan_multiple(2).denominator.evaluate(Fraction(1)) == 0
    assert _tan_multiple_matches(tan_multiple(2), 2, Fraction(1))


def test_exact_tan_check_rejects_wrong_ratios():
    x = Fraction(-3, 7)
    ratio = tan_multiple(5)
    swapped = TanRatio(ratio.denominator, ratio.numerator, ratio.parity)
    negated = TanRatio(-ratio.numerator, ratio.denominator, ratio.parity)
    # a common factor vanishing at x leaves 0 == 0 cross-multiplied, but
    # puts a pole where tan(5 arctan x) is finite
    factor = Polynomial((-x, 1))
    padded = TanRatio(factor * ratio.numerator, factor * ratio.denominator, ratio.parity)
    assert _tan_multiple_matches(ratio, 5, x)
    for wrong in (swapped, negated, padded):
        assert not _tan_multiple_matches(wrong, 5, x)
    assert not _tan_multiple_matches(ratio, 4, x)


def test_verify_connections_flags_a_wrong_tan_ratio(monkeypatch):
    import arctanpoly.connections as connections_module

    def wrong_at_three(n):
        ratio = tan_multiple(n)
        if n != 3:
            return ratio
        return TanRatio(ratio.numerator + Polynomial((0, 0, 0, 1)), ratio.denominator, ratio.parity)

    monkeypatch.setattr(connections_module, "tan_multiple", wrong_at_three)
    rows = [row for row in suite_connections(5) if row.check == "tan-multiple-spot"]
    assert [row.n for row in rows] == [1, 2, 3, 4, 5]
    assert [row.n for row in rows if not row.passed] == [3]
    assert rows[2].detail.startswith("differs from Im/Re((1+ix)^3) at x=")


def test_tan_alternative_forms_exact():
    shell = Polynomial((1, 0, 1))
    for n in range(1, 31):
        alpha_n = build(SequenceKind.ALPHA, n)
        beta_n = build(SequenceKind.BETA, n)
        beta_prev = build(SequenceKind.BETA, n - 1)
        alpha_prev = build(SequenceKind.ALPHA, n - 1)
        if n % 2 == 0:
            assert X * alpha_n - shell * alpha_prev == -beta_prev
        else:
            assert beta_n - X * beta_prev == alpha_n


def test_fibonacci_examples():
    assert fibonacci_poly(4, X) == Polynomial((0, 2, 0, 1))
    assert fibonacci_poly(1, Polynomial((3, 1))) == Polynomial.one()
    assert fibonacci_poly(6, X).evaluate(Fraction(1)) == 8


def test_fibonacci_number_specialization():
    numbers = [fibonacci_poly(n, X).evaluate(Fraction(1)) for n in range(1, 7)]
    assert numbers == [1, 1, 2, 3, 5, 8]


def test_lucas_examples():
    assert lucas_poly(3, X, FibonacciMethod.CLOSED_FORM) == Polynomial((0, 3, 0, 1))
    assert lucas_poly(1, X) == X
    assert lucas_poly(5, X).evaluate(Fraction(1)) == 11


def test_lucas_number_specialization():
    numbers = [lucas_poly(n, X).evaluate(Fraction(1)) for n in range(1, 6)]
    assert numbers == [1, 3, 4, 7, 11]


@pytest.mark.parametrize("fn", [fibonacci_poly, lucas_poly])
@pytest.mark.parametrize("method", list(FibonacciMethod))
def test_fibonacci_and_lucas_commute_with_substitution(fn, method):
    # both routes are ring expressions in h, so a route at h is the route at
    # x composed with h; verify checks the two routes agree at h = x only
    for h in (2 * X, Polynomial((1, 0, 1))):
        for n in range(1, 13):
            assert fn(n, h, method) == fn(n, X, method).compose(h)


@pytest.mark.parametrize(
    "h", [X, 2 * X, Polynomial((1, 0, 1)), Polynomial((Fraction(1, 3), 2))]
)
def test_closed_forms_match_recurrences(h):
    for n in range(1, 13):
        assert fibonacci_poly(n, h, FibonacciMethod.CLOSED_FORM) == fibonacci_poly(
            n, h, FibonacciMethod.RECURRENCE_ORACLE
        )
        assert lucas_poly(n, h, FibonacciMethod.CLOSED_FORM) == lucas_poly(
            n, h, FibonacciMethod.RECURRENCE_ORACLE
        )


def test_matching_examples():
    path3 = GraphKind(GraphFamily.PATH, 3)
    assert matching_poly(path3, MatchingMethod.ENUMERATION) == Polynomial((0, -2, 0, 1))
    cycle4 = GraphKind(GraphFamily.CYCLE, 4)
    assert matching_poly(cycle4, MatchingMethod.CLOSED_FORM) == Polynomial((2, 0, -4, 0, 1))
    assert matching_poly(cycle4, MatchingMethod.CHEBYSHEV_TRANSFORM) == Polynomial((2, 0, -4, 0, 1))
    path1 = GraphKind(GraphFamily.PATH, 1)
    assert matching_poly(path1, MatchingMethod.ENUMERATION) == X


def test_matching_hand_counts():
    # path on 4 vertices: matchings of sizes 0,1,2 are 1,3,1 -> x^4 - 3x^2 + 1
    path4 = GraphKind(GraphFamily.PATH, 4)
    assert matching_poly(path4, MatchingMethod.ENUMERATION) == Polynomial((1, 0, -3, 0, 1))
    # triangle: 1 empty matching, 3 single edges -> x^3 - 3x
    cycle3 = GraphKind(GraphFamily.CYCLE, 3)
    assert matching_poly(cycle3, MatchingMethod.ENUMERATION) == Polynomial((0, -3, 0, 1))


def test_matching_methods_agree():
    for n in range(1, 15):
        graph = GraphKind(GraphFamily.PATH, n)
        built = [matching_poly(graph, m) for m in MatchingMethod]
        assert built[0] == built[1] == built[2]
    for n in range(3, 15):
        graph = GraphKind(GraphFamily.CYCLE, n)
        built = [matching_poly(graph, m) for m in MatchingMethod]
        assert built[0] == built[1] == built[2]


def test_matching_polynomials_follow_the_minus_one_fibonacci_recurrence():
    # mu(P_n) = F_(n+1)(x, -1) and mu(C_n) = L_n(x, -1) both step
    # W_(k+1) = x W_k - W_(k-1): from W_0 = mu(P_0) = 1, W_1 = mu(P_1) = x for
    # paths, from L_0 = 2, L_1 = x for cycles; checked against enumeration
    seeds = ((GraphFamily.PATH, 1, Polynomial.one()), (GraphFamily.CYCLE, 3, Polynomial((2,))))
    for family, start, w0 in seeds:
        members = [w0, X]
        while len(members) < 15:
            members.append(X * members[-1] - members[-2])
        for n in range(start, 15):
            assert members[n] == matching_poly(GraphKind(family, n), MatchingMethod.ENUMERATION)


def test_matching_size_limit():
    big = GraphKind(GraphFamily.PATH, ENUMERATION_LIMIT + 1)
    with pytest.raises(SizeLimitError):
        matching_poly(big, MatchingMethod.ENUMERATION)
    # the closed forms keep working past the enumeration cap
    for family in GraphFamily:
        for n in (17, 64, 301):
            graph = GraphKind(family, n)
            closed = matching_poly(graph, MatchingMethod.CLOSED_FORM)
            assert closed == matching_poly(graph, MatchingMethod.CHEBYSHEV_TRANSFORM)
            assert closed.degree == n and closed.leading_coefficient == 1


def test_graph_kind_validation():
    with pytest.raises(ValueError):
        GraphKind(GraphFamily.PATH, 0)
    with pytest.raises(ValueError):
        GraphKind(GraphFamily.CYCLE, 2)


def test_input_validation():
    with pytest.raises(ValueError):
        tan_multiple(0)
    with pytest.raises(ValueError):
        fibonacci_poly(0, X)
    with pytest.raises(ValueError):
        lucas_poly(0, X)
