"""Differential tests against sympy, a computer algebra system that shares no
code with this package."""
from fractions import Fraction

import pytest

from arctanpoly.calculus import arctan_nth_derivative, artanh_nth_derivative
from arctanpoly.chebyshev import ChebyshevKind, chebyshev
from arctanpoly.exact import bernoulli
from arctanpoly.families import BuildMethod, SequenceKind, build
from arctanpoly.poly import Polynomial

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x", real=True)
N_MAX = 60


def _polynomial(expr) -> Polynomial:
    return Polynomial([int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())])


@pytest.mark.parametrize(
    "kind, reference",
    [(ChebyshevKind.FIRST_KIND, sympy.chebyshevt), (ChebyshevKind.SECOND_KIND, sympy.chebyshevu)],
)
def test_chebyshev_matches_sympy(kind, reference):
    for n in range(N_MAX + 1):
        assert chebyshev(kind, n) == _polynomial(reference(n, X)), n


@pytest.mark.parametrize("method", [BuildMethod.EXPLICIT, BuildMethod.HYPERGEOMETRIC])
def test_binomial_routes_match_powers_of_x_plus_i(method):
    # beta_n = Im((x+i)^(n+1)) and alpha_n = Re((x+i)^n)
    for n in range(N_MAX + 1):
        re_n, _ = sympy.expand((X + sympy.I) ** n).as_real_imag()
        _, im_next = sympy.expand((X + sympy.I) ** (n + 1)).as_real_imag()
        assert build(SequenceKind.BETA, n, method) == _polynomial(im_next), n
        assert build(SequenceKind.ALPHA, n, method) == _polynomial(re_n), n


def test_bernoulli_matches_sympy():
    # sympy 1.14 takes B_1 = +1/2, this package B_1 = -1/2; the two
    # conventions agree at every other index
    assert bernoulli(0) == 1
    for n in range(2, N_MAX + 1):
        b = sympy.bernoulli(n)
        assert bernoulli(n) == Fraction(int(b.p), int(b.q)), n


@pytest.mark.parametrize(
    "function, derivative",
    [(sympy.atan, arctan_nth_derivative), (sympy.atanh, artanh_nth_derivative)],
)
def test_derivatives_match_sympy_diff(function, derivative):
    points = [Fraction(0), Fraction(1, 2), Fraction(-5, 6), Fraction(3), Fraction(-7, 2)]
    expr = function(X)
    for n in range(1, 31):
        expr = sympy.diff(expr, X)
        for x in points:
            value = expr.subs(X, sympy.Rational(x.numerator, x.denominator))
            assert value.is_Rational, (n, x)
            assert derivative(n, x) == Fraction(int(value.p), int(value.q)), (n, x)
