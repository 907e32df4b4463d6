"""Chebyshev polynomials, the family bridges, and the tridiagonal lemma."""
from fractions import Fraction

import pytest

from arctanpoly.chebyshev import (
    ChebyshevKind,
    _bridge_expansion,
    ZeroParameterError,
    alpha_from_chebyshev,
    beta_from_chebyshev,
    chebyshev,
    tridiag_det,
    trig_spot_check,
)
from arctanpoly.connections import GraphFamily, GraphKind, matching_poly
from arctanpoly.families import BuildMethod, SequenceKind, build
from arctanpoly.poly import Polynomial


def test_chebyshev_examples():
    assert chebyshev(ChebyshevKind.SECOND_KIND, 2) == Polynomial((-1, 0, 4))
    assert chebyshev(ChebyshevKind.FIRST_KIND, 3) == Polynomial((0, -3, 0, 4))
    assert chebyshev(ChebyshevKind.SECOND_KIND, 0) == Polynomial.one()
    assert chebyshev(ChebyshevKind.FIRST_KIND, 0) == Polynomial.one()
    assert chebyshev(ChebyshevKind.FIRST_KIND, 1) == Polynomial.x()


def test_chebyshev_trigonometric_defining_property():
    # T_n(cos t) = cos(nt) and U_n(cos t) = sin((n+1)t)/sin t at rational
    # cos values via the angle-addition recurrences over exact rationals
    cos_t = Fraction(3, 5)
    sin_t = Fraction(4, 5)  # 3-4-5 triangle
    cos_multiples = [Fraction(1), cos_t]
    sin_multiples = [Fraction(0), sin_t]
    for _ in range(12):
        cos_multiples.append(2 * cos_t * cos_multiples[-1] - cos_multiples[-2])
        sin_multiples.append(2 * cos_t * sin_multiples[-1] - sin_multiples[-2])
    for n in range(12):
        assert chebyshev(ChebyshevKind.FIRST_KIND, n).evaluate(cos_t) == cos_multiples[n]
        assert chebyshev(ChebyshevKind.SECOND_KIND, n).evaluate(cos_t) == (
            sin_multiples[n + 1] / sin_t
        )


def test_beta_bridge_examples():
    assert beta_from_chebyshev(2) == Polynomial((-1, 0, 3))
    assert beta_from_chebyshev(0) == Polynomial.one()
    assert beta_from_chebyshev(3) == Polynomial((0, -4, 0, 4))


def test_alpha_bridge_examples():
    assert alpha_from_chebyshev(3) == Polynomial((0, -3, 0, 1))
    assert alpha_from_chebyshev(1) == Polynomial.x()
    assert alpha_from_chebyshev(4) == Polynomial((1, 0, -6, 0, 1))


def test_bridges_match_recurrence_builds():
    for n in range(60):
        assert beta_from_chebyshev(n) == build(SequenceKind.BETA, n, BuildMethod.RECURRENCE)
        assert alpha_from_chebyshev(n) == build(SequenceKind.ALPHA, n, BuildMethod.RECURRENCE)


# Reference implementations: the Chebyshev step and the (1+x^2)^j powers of
# the bridge expansion as index loops.

def _loop_chebyshev_rows(kind, n_max):
    prev = [1]
    cur = [0, 1] if kind is ChebyshevKind.FIRST_KIND else [0, 2]
    yield prev
    for _ in range(n_max):
        yield cur
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] = 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt


def _loop_bridge_expansion(n, source):
    acc = []
    powers = [[1]]
    for _ in range(1, n // 2 + 1):
        prev = powers[-1]
        nxt = [0] * (len(prev) + 2)
        for i, c in enumerate(prev):
            nxt[i] += c
            nxt[i + 2] += c
        powers.append(nxt)
    for m in range(n + 1):
        c = source.coefficient(m)
        if not c:
            continue
        term = powers[(n - m) // 2]
        if len(acc) < m + len(term):
            acc = acc + [0] * (m + len(term) - len(acc))
        for i, d in enumerate(term):
            acc[m + i] += c * d
    return Polynomial(acc)


@pytest.mark.parametrize("kind", list(ChebyshevKind))
def test_chebyshev_and_bridge_match_index_loops(kind):
    for n, expected in enumerate(_loop_chebyshev_rows(kind, 300)):
        t = chebyshev(kind, n)
        assert list(t.coefficients) == expected, n
        assert all(type(c) is int for c in t.coefficients), n
        bridged = _bridge_expansion(n, t)
        assert bridged == _loop_bridge_expansion(n, t), n
        assert all(type(c) is int for c in bridged.coefficients), n


def test_chebyshev_coefficients_are_path_and_cycle_matching_numbers():
    # U_n(x/2) and 2 T_n(x/2) against matchings counted by enumeration
    half_x = Polynomial((0, Fraction(1, 2)))
    for n in range(1, 15):
        u = chebyshev(ChebyshevKind.SECOND_KIND, n)
        assert u.compose(half_x) == matching_poly(GraphKind(GraphFamily.PATH, n)), n
        if n >= 3:
            t = chebyshev(ChebyshevKind.FIRST_KIND, n)
            assert 2 * t.compose(half_x) == matching_poly(GraphKind(GraphFamily.CYCLE, n)), n


def test_tridiag_examples():
    assert tridiag_det(Fraction(1), Fraction(3), Fraction(4), 2) == 5
    # s = 2:  2^2 * U_2(3/4) = 4 * (9/4 - 1) = 5
    u2 = chebyshev(ChebyshevKind.SECOND_KIND, 2)
    assert 4 * u2.evaluate(Fraction(3, 4)) == 5
    assert tridiag_det(Fraction(1), Fraction(2), Fraction(1), 3) == 4
    assert chebyshev(ChebyshevKind.SECOND_KIND, 3).evaluate(Fraction(1)) == 4
    assert tridiag_det(Fraction(1), Fraction(3), Fraction(4), 1) == 3


def test_tridiag_zero_parameter_rejected():
    with pytest.raises(ZeroParameterError):
        tridiag_det(Fraction(0), Fraction(2), Fraction(1), 3)
    with pytest.raises(ZeroParameterError):
        tridiag_det(Fraction(1), Fraction(0), Fraction(1), 3)
    with pytest.raises(ZeroParameterError):
        tridiag_det(Polynomial.zero(), Polynomial.x(), Polynomial.one(), 2)


def test_tridiag_chebyshev_identity_perfect_squares():
    # whenever a*c = s^2 the determinant equals s^n U_n(b/(2s)), exactly
    from math import isqrt

    samples = [(1, Fraction(5, 2), 4), (4, 3, 9), (1, -2, 1), (9, Fraction(-7, 3), 4)]
    for a, b, c in samples:
        s = isqrt(a * c)
        assert s * s == a * c
        for n in range(1, 21):
            u_n = chebyshev(ChebyshevKind.SECOND_KIND, n)
            expected = Fraction(s) ** n * u_n.evaluate(Fraction(b) / (2 * s))
            assert tridiag_det(Fraction(a), Fraction(b), Fraction(c), n) == expected


def test_tridiag_in_polynomial_ring_reproduces_beta():
    a = Polynomial((-1,))
    b = Polynomial((0, 2))
    c = Polynomial((-1, 0, -1))
    for n in range(1, 40):
        det = tridiag_det(a, b, c, n)
        assert det == build(SequenceKind.BETA, n)


def test_pell_type_identity():
    # U_n^2 - U_{n-1} U_{n+1} = 1 at any rational point
    for a in (Fraction(2, 3), Fraction(-5, 7), Fraction(4)):
        us = [chebyshev(ChebyshevKind.SECOND_KIND, n).evaluate(a) for n in range(12)]
        for n in range(1, 11):
            assert us[n] * us[n] - us[n - 1] * us[n + 1] == 1


def test_trig_spot_check_examples():
    assert trig_spot_check(2, 1)
    assert trig_spot_check(3, 2)
    assert trig_spot_check(4, 4)
    for n in range(1, 20):
        for k in range(1, n + 1):
            assert trig_spot_check(n, k)


def test_trig_spot_check_index_bounds():
    with pytest.raises(ValueError):
        trig_spot_check(3, 0)
    with pytest.raises(ValueError):
        trig_spot_check(3, 4)
