"""Exact scalar substrate: Bernoulli numbers, Gaussian integers, parsing."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctanpoly import exact
from arctanpoly.exact import (
    GaussianInt,
    bernoulli,
    bernoulli_table,
    format_rational,
    gaussian_pow,
    parse_rational,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=99)


def _bernoulli_oracle(count):
    # independent reimplementation of the defining recurrence
    values = [Fraction(1)]
    for m in range(1, count):
        acc = sum(comb(m + 1, k) * values[k] for k in range(m))
        values.append(Fraction(-acc, m + 1))
    return values


def test_bernoulli_base_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(6) == Fraction(1, 42)


def test_bernoulli_odd_vanishing():
    for k in range(1, 15):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_defining_recurrence():
    for n in range(1, 40):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_matches_fresh_regeneration():
    assert list(bernoulli_table(30)) == _bernoulli_oracle(31)


@pytest.mark.parametrize("filled_to", [0, 10])
def test_bernoulli_matches_the_defining_recurrence_to_300(monkeypatch, filled_to):
    # the zigzag-triangle route, filled from scratch at once, or extended
    # from a cache (and its triangle row) already filled to 10
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1)])
    monkeypatch.setattr(exact, "_zigzag_row", [1])
    bernoulli(filled_to)
    table = bernoulli_table(300)
    assert list(table) == _bernoulli_oracle(301)
    assert all(type(v) is Fraction for v in table)


def test_bernoulli_convention_at_one():
    # the defining recurrence pins B_1 = -1/2; nothing downstream consumes it
    assert bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def _gaussian_pow_oracle(base, n):
    acc = GaussianInt(1, 0)
    for _ in range(n):
        acc = acc * base
    return acc


def test_gaussian_pow_examples():
    assert gaussian_pow(GaussianInt(1, 1), 4) == GaussianInt(-4, 0)
    assert gaussian_pow(GaussianInt(0, 1), 2) == GaussianInt(-1, 0)
    assert gaussian_pow(GaussianInt(2, 1), 0) == GaussianInt(1, 0)


@given(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=0, max_value=12),
)
def test_gaussian_pow_matches_repeated_multiplication(a, b, n):
    base = GaussianInt(a, b)
    assert gaussian_pow(base, n) == _gaussian_pow_oracle(base, n)


def test_gaussian_pow_rejects_negative():
    with pytest.raises(ValueError):
        gaussian_pow(GaussianInt(1, 1), -1)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_parse_rational_accepts_canonical_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(" 10/4 ") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "x", "1/-2", ""])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_rational_canonical_shapes():
    assert format_rational(Fraction(6)) == "6"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(2, -4)) == "-1/2"


def test_concurrent_cache_extension_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    expected = _bernoulli_oracle(121)[120]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: bernoulli(120), range(16)))
    assert all(value == expected for value in results)


def test_parse_rational_bounds_literal_digits():
    from arctanpoly.exact import MAX_LITERAL_DIGITS

    assert parse_rational("7" * MAX_LITERAL_DIGITS) == int("7" * MAX_LITERAL_DIGITS)
    with pytest.raises(ValueError, match="digits"):
        parse_rational("7" * (MAX_LITERAL_DIGITS + 1))
    with pytest.raises(ValueError, match="digits"):
        parse_rational("1/" + "3" * 5000)
