"""The Turan rows of the identities suite: decided at one exact point, with
the polynomial products as the oracle."""
import random
from fractions import Fraction

import pytest

from arctanpoly import checks
from arctanpoly.families import BuildMethod, SequenceKind, build_sequence
from arctanpoly.poly import Polynomial

TOP = 40
SHELL = Polynomial((1, 0, 1))


def _members(top=TOP):
    # copies: the faults below must not reach the prefix cache
    betas = list(build_sequence(SequenceKind.BETA, top + 1))
    alphas = list(build_sequence(SequenceKind.ALPHA, top + 1, BuildMethod.RECURRENCE))
    return betas, alphas


def _product_verdict(members, n, m):
    return members[n] * members[n] - members[n - 1] * members[n + 1] == SHELL**m


def _assert_rows_match_products(betas, alphas):
    rows = checks._turan_rows(betas, alphas)
    assert len(rows) == len(betas) - 2
    for n, (beta_row, alpha_row) in enumerate(rows, start=1):
        assert (beta_row.check, beta_row.n) == ("turan[beta]", n)
        assert (alpha_row.check, alpha_row.n) == ("turan[alpha]", n)
        for row, members, m in ((beta_row, betas, n), (alpha_row, alphas, n - 1)):
            assert row.passed == _product_verdict(members, n, m), (row, m)
            if row.passed:
                assert row.detail == ""
            else:
                assert row.detail.startswith("first difference at x^")
    return rows


def _fault(p, kind, rng):
    coeffs = list(p.coefficients)
    d = len(coeffs) - 1
    if kind == "times-x":
        return Polynomial.x() * p
    if kind == "times-x2":
        return Polynomial((0, 0, 1)) * p
    if kind == "off-parity":
        k = d - 1 if d >= 1 else 1
        coeffs += [0] * (k + 1 - len(coeffs))
        coeffs[k] += 1
        return Polynomial(coeffs)
    k = d - 2 * rng.randrange(d // 2 + 1)  # a coefficient of the member's parity
    coeffs[k] += {"plus-one": 1, "minus-one": -1, "plus-2^400": 2**400}[kind]
    return Polynomial(coeffs)


FAULTS = ("plus-one", "minus-one", "off-parity", "times-x", "times-x2", "plus-2^400")


def test_turan_rows_pass_on_correct_members():
    for top in (0, 1, 2, 7, TOP):
        rows = _assert_rows_match_products(*_members(top))
        assert all(row.passed for pair in rows for row in pair)


def test_turan_rows_take_no_polynomial_product_when_they_pass(monkeypatch):
    betas, alphas = _members(60)

    def refuse(*args):
        raise AssertionError("a passing Turan row formed a polynomial product")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    rows = checks._turan_rows(betas, alphas)
    assert all(row.passed for pair in rows for row in pair)


@pytest.mark.parametrize("family", ["beta", "alpha"])
@pytest.mark.parametrize("kind", FAULTS)
def test_turan_rows_match_the_products_under_one_faulty_member(family, kind):
    rng = random.Random(f"{family}-{kind}")
    betas, alphas = _members()
    members = betas if family == "beta" else alphas
    failing = 0
    for k in range(TOP + 2):
        good = members[k]
        members[k] = _fault(good, kind, rng)
        rows = _assert_rows_match_products(betas, alphas)
        failing += sum(not row.passed for pair in rows for row in pair)
        members[k] = good
    assert failing  # every fault kind breaks some row


def test_a_member_times_x_fails_the_rows_it_sits_in():
    # x beta_0 = x and x alpha_0 = x have the half form (1,) of beta_0 and
    # alpha_0; only the parity of their degree tells them apart
    betas, alphas = _members(10)
    betas[0] = alphas[0] = Polynomial.x()
    betas[7] = Polynomial.x() * betas[7]
    rows = _assert_rows_match_products(betas, alphas)
    failing = [(row.check, row.n) for pair in rows for row in pair if not row.passed]
    assert failing == [
        ("turan[beta]", 1),
        ("turan[alpha]", 1),
        ("turan[beta]", 6),
        ("turan[beta]", 7),
        ("turan[beta]", 8),
    ]


def test_a_failing_row_names_its_first_differing_coefficient():
    betas, alphas = _members(10)
    coeffs = list(betas[7].coefficients)
    coeffs[3] += 1
    betas[7] = Polynomial(coeffs)
    row = checks._turan_rows(betas, alphas)[6][0]
    left = betas[7] * betas[7] - betas[6] * betas[8]
    right = SHELL**7
    k = next(k for k in range(20) if left.coefficient(k) != right.coefficient(k))
    assert (row.n, row.passed) == (7, False)
    assert row.detail == (
        f"first difference at x^{k}: beta_7^2 - beta_6 beta_8 gives {left.coefficient(k)}, "
        f"(1+x^2)^7 gives {right.coefficient(k)}"
    )


def test_half_form_and_packing():
    rng = random.Random(7)
    assert checks._half_form(Polynomial.zero()) == ((), 0)
    for p in _members(12)[0] + _members(12)[1]:
        half, e = checks._half_form(p)
        assert p == Polynomial([0] * e + [c for h in half for c in (h, 0)])
    assert checks._half_form(Polynomial((1, 1))) is None
    assert checks._half_form(Polynomial((1, 0, 1, 1))) is None
    assert checks._half_form(Polynomial((Fraction(1, 2), 0, 1))) is None
    assert checks._half_form(Polynomial((0, 1, 0, 2))) == ((1, 2), 1)
    for _ in range(50):
        half = [rng.randint(-(2**70), 2**70) for _ in range(rng.randrange(12))]
        s = rng.randrange(1, 200)
        assert checks._pack(half, s) == sum(h << (s * k) for k, h in enumerate(half))


def _bound(halves, max_n):
    present = [half for half, _ in halves]
    bits = max(abs(c).bit_length() for half in present for c in half)
    length = max(len(half) for half in present)
    return max(2 * bits + length.bit_length() + 1, max_n)


@pytest.mark.parametrize("kind", [None, "plus-one", "times-x2", "plus-2^400"])
def test_the_point_exceeds_the_coefficient_bound(kind):
    rng = random.Random(kind)
    betas, alphas = _members()
    if kind is not None:
        betas[17] = _fault(betas[17], kind, rng)
        alphas[30] = _fault(alphas[30], kind, rng)
    halves = [checks._half_form(p) for p in betas + alphas]
    s = checks._turan_point(halves, TOP)
    assert s > _bound(halves, TOP)
    # every coefficient of every row's difference, in y = x^2, lies below 2^S
    for members, offset in ((betas, 0), (alphas, 1)):
        for n in range(1, TOP + 1):
            g = members[n] * members[n] - members[n - 1] * members[n + 1] - SHELL ** (n - offset)
            assert all(abs(c) < 2**s for c in g.coefficients)
