"""Polynomial ring operations, exactness, and algebraic laws."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctanpoly.poly import NEG_INF, Polynomial

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(coeffs, max_size=6).map(Polynomial)
points = st.fractions(min_value=-8, max_value=8, max_denominator=10)


def test_addition_examples():
    p = Polynomial((-1, 0, 3))  # 3x^2 - 1
    assert p + Polynomial((1,)) == Polynomial((0, 0, 3))
    assert p + Polynomial.zero() == p
    assert Polynomial((0, 2)) + Polynomial((0, -2)) == Polynomial.zero()


def test_multiplication_examples():
    assert Polynomial((1, 1)) * Polynomial((-1, 1)) == Polynomial((-1, 0, 1))
    assert Polynomial((0, 2)) * Polynomial((-1, 0, 3)) == Polynomial((0, -2, 0, 6))
    p = Polynomial((5, Fraction(1, 3)))
    assert p * Polynomial.one() == p


def test_differentiation_examples():
    assert Polynomial((-1, 0, 3)).differentiate() == Polynomial((0, 6))
    assert Polynomial((5,)).differentiate() == Polynomial.zero()
    assert Polynomial((1, 0, -10, 0, 5)).differentiate() == Polynomial((0, -20, 0, 20))


def test_evaluation_examples():
    assert Polynomial((-1, 0, 3)).evaluate(Fraction(1)) == 2
    assert Polynomial((7, 1, 2)).evaluate(Fraction(0)) == 7
    assert Polynomial((0, -3, 0, 1)).evaluate(Fraction(2)) == 2


def test_composition_examples():
    x_plus_1 = Polynomial((1, 1))
    assert Polynomial((0, 0, 1)).compose(x_plus_1) == Polynomial((1, 2, 1))
    p = Polynomial((3, -2, 1))
    assert p.compose(Polynomial.x()) == p
    assert Polynomial((-1, 0, 1)).compose(Polynomial((0, 2))) == Polynomial((-1, 0, 4))


def test_trailing_zeros_trimmed_and_zero_degree():
    assert Polynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert Polynomial(()).degree == NEG_INF
    assert Polynomial((0, 0)).degree == NEG_INF
    assert Polynomial((0, 0, Fraction(3, 2))).degree == 2


def test_integral_fractions_normalize_to_ints():
    p = Polynomial((Fraction(4, 2), Fraction(1, 3)))
    assert p.coefficients == (2, Fraction(1, 3))
    assert type(p.coefficients[0]) is int


def test_scalar_arithmetic():
    p = Polynomial((1, 2))
    assert 3 * p == Polynomial((3, 6))
    assert p.scale(Fraction(1, 2)) == Polynomial((Fraction(1, 2), 1))
    assert p - 1 == Polynomial((0, 2))


def test_power():
    assert Polynomial((1, 1)) ** 3 == Polynomial((1, 3, 3, 1))
    assert Polynomial((0, 2)) ** 0 == Polynomial.one()
    with pytest.raises(ValueError):
        Polynomial((1, 1)) ** -1


def test_pretty_printing():
    assert Polynomial((0, 6, 0, -20, 0, 6)).pretty() == "6x^5 - 20x^3 + 6x"
    assert Polynomial((-1, 0, 3)).pretty() == "3x^2 - 1"
    assert Polynomial((Fraction(-1, 3), 0, 1)).pretty() == "x^2 - 1/3"
    assert Polynomial.zero().pretty() == "0"
    assert Polynomial((0, -1)).pretty() == "-x"


def test_coefficient_strings():
    assert Polynomial((Fraction(-1, 3), 0, 1)).coefficient_strings() == ["-1/3", "0", "1"]


@given(polys, polys)
def test_product_rule(p, q):
    lhs = (p * q).differentiate()
    rhs = p.differentiate() * q + p * q.differentiate()
    assert lhs == rhs


@given(polys, polys, points)
def test_composition_evaluation_homomorphism(p, h, a):
    assert p.compose(h).evaluate(a) == p.evaluate(h.evaluate(a))


@given(polys, polys, polys)
def test_multiplication_laws(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_degree_of_products(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(polys, points)
def test_evaluate_respects_ring_maps(p, a):
    assert (p + p).evaluate(a) == 2 * p.evaluate(a)
    assert (-p).evaluate(a) == -p.evaluate(a)


# Reference implementations: the plain schoolbook double loop, and Horner
# over the values as given.

def _schoolbook(a, b):
    a, b = a.coefficients, b.coefficients
    if not a or not b:
        return Polynomial.zero()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return Polynomial(out)


def _horner(p, x):
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def _types(p):
    return [type(c) for c in p.coefficients]


int_coeffs = st.integers(min_value=-(10**30), max_value=10**30)
int_polys = st.lists(int_coeffs, max_size=12).map(Polynomial)
mixed_polys = st.lists(st.one_of(int_coeffs, coeffs), max_size=10).map(Polynomial)
# every other coefficient zero, as in the beta and alpha families
sparse_polys = st.lists(int_coeffs, max_size=8).map(
    lambda cs: Polynomial([c if i % 2 == 0 else 0 for i, c in enumerate(cs)])
)
any_polys = st.one_of(int_polys, polys, mixed_polys, sparse_polys)


@given(any_polys, any_polys)
def test_product_matches_schoolbook_loop(p, q):
    got = p * q
    want = _schoolbook(p, q)
    assert got == want
    assert _types(got) == _types(want)


def test_product_edge_cases_match_schoolbook_loop():
    zero = Polynomial.zero()
    cases = [
        (zero, Polynomial((1, 2))),
        (Polynomial((1, 2)), zero),
        (zero, zero),
        (Polynomial((0, 0, 5)), Polynomial((0, 3))),
        (Polynomial((Fraction(1, 2), 0, 2)), Polynomial((2, 0, Fraction(-1, 4)))),
        (Polynomial((Fraction(1, 3),)), Polynomial((3, 6))),  # products 1 and 2 become ints
        (Polynomial((1, 0, -10, 0, 5)), Polynomial((0, 6, 0, -20, 0, 6))),
    ]
    for p, q in cases:
        got = p * q
        assert got == _schoolbook(p, q)
        assert _types(got) == _types(_schoolbook(p, q))


rational_points = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def _same_value_and_type(got, want):
    return got == want and type(got) is type(want)


@given(any_polys, st.one_of(rational_points, st.integers(-50, 50)))
def test_evaluate_matches_fraction_horner(p, x):
    assert _same_value_and_type(p.evaluate(x), _horner(p, x))


def test_evaluate_special_points_match_fraction_horner():
    int_poly = Polynomial((3, 0, -7, 0, 0, 11))
    frac_poly = Polynomial((Fraction(1, 3), 2, 0, Fraction(-5, 7)))
    points = [
        Fraction(-5, 6),
        Fraction(-7, 3),
        Fraction(0),
        Fraction(4),  # q = 1
        Fraction(-1),
        Fraction(1, 10**20),
        0,
        5,
        -2,
    ]
    for p in (int_poly, frac_poly, Polynomial.zero(), Polynomial((9,)), Polynomial((0, 1))):
        for x in points:
            got, want = p.evaluate(x), _horner(p, x)
            assert _same_value_and_type(got, want), (p, x)
    assert _same_value_and_type(Polynomial.zero().evaluate(Fraction(1, 2)), 0)
    assert _same_value_and_type(Polynomial((9,)).evaluate(Fraction(1, 2)), Fraction(9))


def test_evaluate_matches_fraction_horner_on_family_members():
    from arctanpoly.families import SequenceKind, build

    for n in (1, 2, 40, 349):
        p = build(SequenceKind.P, n)
        for x in (Fraction(-5, 6), Fraction(5, 6), Fraction(3), Fraction(-1, 6), Fraction(0)):
            assert _same_value_and_type(p.evaluate(x), _horner(p, x))
