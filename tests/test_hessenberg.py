"""Bracket coefficients, the companion matrix, and its characteristic polynomial."""
import json
import random
from fractions import Fraction

import mpmath
import pytest

from arctanpoly import hessenberg
from arctanpoly.calculus import roots
from arctanpoly.families import BuildMethod, SequenceKind, build
from arctanpoly.highprec import (
    RootCheck,
    certify_simple_root,
    cot_node,
    eval_poly,
    node_precision,
    prepare,
    to_mpf,
    workprec,
)
from arctanpoly.hessenberg import (
    RationalMatrix,
    bracket,
    build_H,
    charpoly,
    eigen_check,
)
from arctanpoly.poly import Polynomial


def test_bracket_examples():
    assert bracket(1, 1) == Fraction(1, 3)
    assert bracket(3, 3) == Fraction(2, 15)
    assert bracket(5, 5) == Fraction(16, 63)
    assert bracket(4, 2) == 0
    assert bracket(7, 0) == 0


def test_bracket_even_offsets_vanish():
    for n in range(41):
        for j in range(2, n + 1, 2):
            assert bracket(n, j) == 0


def test_bracket_bounds():
    with pytest.raises(ValueError):
        bracket(3, 4)
    with pytest.raises(ValueError):
        bracket(3, -1)


def test_build_h_examples():
    h2 = build_H(2)
    assert h2.entries == ((Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(0)))
    h1 = build_H(1)
    assert h1.entries == ((Fraction(0),),)
    h4 = build_H(4)
    assert h4.entries[0] == (Fraction(0), Fraction(1, 3), Fraction(0), Fraction(2, 15))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RationalMatrix(((Fraction(0), Fraction(1)),))  # not square


def test_charpoly_examples():
    assert charpoly(build_H(2)) == Polynomial((Fraction(-1, 3), 0, 1))
    assert charpoly(build_H(1)) == Polynomial.x()
    assert charpoly(build_H(4)) == Polynomial((Fraction(1, 5), 0, -2, 0, 1))


def test_charpoly_by_direct_determinant_expansion():
    # independent oracle: cofactor expansion of det(xI - H) over Fractions
    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Polynomial.zero()
        for j in range(n):
            if not rows[0][j]:
                continue
            minor = [[row[col] for col in range(n) if col != j] for row in rows[1:]]
            total = total + (-1) ** j * (rows[0][j] * det(minor))
        return total

    # dense rational matrices too, with entries on and below the subdiagonal:
    # charpoly must not rely on the companion matrix's Hessenberg shape
    rng = random.Random(20240601)
    dense = [
        RationalMatrix(
            tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
                for _ in range(n)
            )
        )
        for n in range(1, 7)
    ]
    for h in [build_H(n) for n in range(1, 7)] + dense:
        n = h.n
        x_minus = [
            [
                Polynomial.x() - h.entries[i][j] if i == j else Polynomial((-h.entries[i][j],))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert det(x_minus) == charpoly(h)


def test_charpoly_is_monic_normalized_family():
    for n in range(1, 13):
        cp = charpoly(build_H(n))
        assert cp == build(SequenceKind.MONIC_PI, n, BuildMethod.MONIC_BERNOULLI)
        beta_n = build(SequenceKind.BETA, n, BuildMethod.RECURRENCE)
        assert cp == beta_n.scale(Fraction(1, n + 1))
        assert cp.leading_coefficient == 1


def test_trace_is_zero():
    for n in range(1, 13):
        h = build_H(n)
        assert sum(h.entries[i][i] for i in range(n)) == 0


def test_eigen_check_examples():
    assert eigen_check(1)
    assert eigen_check(2)
    assert eigen_check(8)


def test_eigen_check_compares_charpoly_with_the_monic_reference(monkeypatch):
    assert eigen_check(5)
    wrong = build(SequenceKind.MONIC_PI, 5, BuildMethod.RECURRENCE) + 1
    monkeypatch.setattr(hessenberg, "monic_reference", lambda n: wrong)
    assert not eigen_check(5)


def _reference_horner(poly, t):
    # E(t^2) + t O(t^2), p's even and odd halves by Horner in y = t^2, with
    # the mpf operators and every coefficient converted again at every point
    y = t * t
    even, odd = mpmath.mpf(0), mpmath.mpf(0)
    for c in reversed(poly.coefficients[0::2]):
        even = even * y + to_mpf(Fraction(c))
    for c in reversed(poly.coefficients[1::2]):
        odd = odd * y + to_mpf(Fraction(c))
    return even + t * odd


@pytest.mark.parametrize("precision", [1, 2, 3, 4, 53, 128])
def test_prepared_charpoly_matches_per_call_conversion(precision):
    # charpoly coefficients are Fractions, so each is rounded twice (mpf(num)/den)
    for n in range(1, 13):
        p = charpoly(build_H(n))
        dp = p.differentiate()
        with workprec(precision):
            p_mpf, dp_mpf = prepare(p), prepare(dp)
            for k in range(1, n + 1):
                node = cot_node(k, n + 1)
                value = _reference_horner(p, node)
                assert eval_poly(p_mpf, node)._mpf_ == value._mpf_
                residual = abs(value)
                slope = abs(_reference_horner(dp, node))
                ok = bool(residual <= 1e-9 * max(1, slope) and slope > 1e-9)
                expected = RootCheck(float(residual), float(slope), ok)
                assert certify_simple_root(p_mpf, node, derivative=dp_mpf) == expected
        if precision == node_precision(n):
            assert eigen_check(n) == roots(SequenceKind.BETA, n).all_certified


def test_matrix_json_round_trip():
    h2 = build_H(2)
    payload = json.loads(h2.json())
    assert payload == {"n": 2, "entries": [["0", "1/3"], ["1", "0"]]}
