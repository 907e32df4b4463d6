"""Derivative values, numeric cross-checks, root certificates, ODEs."""
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctanpoly import calculus, families
from arctanpoly.calculus import (
    MAX_RESULT_BITS,
    PoleError,
    arctan_nth_derivative,
    artanh_nth_derivative,
    chebyshev_derivative_form,
    finite_difference_derivative,
    ode_residual,
    roots,
    sign_changes_between_roots,
)
from arctanpoly.families import BuildMethod, SequenceKind, build, build_sequence
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
from arctanpoly.poly import Polynomial


def test_arctan_derivative_examples():
    assert arctan_nth_derivative(1, Fraction(0)) == 1
    assert arctan_nth_derivative(3, Fraction(0)) == -2
    assert arctan_nth_derivative(2, Fraction(1)) == Fraction(-1, 2)


def test_arctan_derivative_matches_taylor_coefficients():
    # arctan x = sum (-1)^k x^(2k+1)/(2k+1), so the n-th derivative at 0 is
    # n! * [x^n]: zero for even n, (-1)^k n!/(2k+1) for n = 2k+1
    from math import factorial

    for k in range(8):
        n = 2 * k + 1
        assert arctan_nth_derivative(n, Fraction(0)) == (-1) ** k * factorial(n) // n
        if n + 1 <= 15:
            assert arctan_nth_derivative(n + 1, Fraction(0)) == 0


# The paper's route: d^n/dx^n arctan(x) = P_{n-1}(x) / (1+x^2)^n, with the
# member P_{n-1} built as a polynomial and evaluated.  The library takes one
# Gaussian-integer power instead, so these compare two computations.
P_ORACLE_POINTS = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(-5, 6),
    Fraction(3),
    Fraction(-7, 2),
    Fraction(10**6 + 3, 7),
]


def _p_route(p_member, n, x):
    return Fraction(p_member.evaluate(x)) / (1 + x * x) ** n


@pytest.mark.parametrize(
    "method",
    [BuildMethod.EXPLICIT, BuildMethod.DERIVATIVE_RECURRENCE, BuildMethod.COMPLEX_POWER],
)
def test_arctan_derivative_matches_the_p_route(method):
    for n in range(1, 81):
        if method is BuildMethod.COMPLEX_POWER:
            # P_m = (-1)^m m! beta_m, with beta_m = Im((x+i)^(m+1))
            beta = build(SequenceKind.BETA, n - 1, method)
            p_member = (-1) ** (n - 1) * factorial(n - 1) * beta
        else:
            p_member = build(SequenceKind.P, n - 1, method)
        for x in P_ORACLE_POINTS:
            got = arctan_nth_derivative(n, x)
            assert type(got) is Fraction
            assert got == _p_route(p_member, n, x), (n, x)


@pytest.mark.parametrize("n", [500, 1000, 3000])
def test_arctan_derivative_matches_the_p_route_at_large_n(n):
    p_member = build(SequenceKind.P, n - 1, BuildMethod.EXPLICIT)
    for x in P_ORACLE_POINTS:
        got = arctan_nth_derivative(n, x)
        assert type(got) is Fraction
        assert got == _p_route(p_member, n, x), x


def test_derivatives_build_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a derivative built or evaluated a polynomial")

    monkeypatch.setattr(calculus.families, "build", refuse)
    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    assert arctan_nth_derivative(3, Fraction(0)) == -2
    assert arctan_nth_derivative(2, Fraction(1)) == Fraction(-1, 2)
    assert artanh_nth_derivative(2, Fraction(1, 2)) == Fraction(16, 9)


def _result_bound(n, x):
    b = max(x.numerator.bit_length(), x.denominator.bit_length(), 1)
    return n * (n.bit_length() + 4 * b + 2)


def test_result_bound_holds():
    points = P_ORACLE_POINTS + [Fraction(1), Fraction(-1), Fraction(-(2**40 - 1), 2**40 - 3)]
    for n in list(range(1, 41)) + [100, 777]:
        for x in points:
            values = [arctan_nth_derivative(n, x)]
            if abs(x) != 1:
                values.append(artanh_nth_derivative(n, x))
            for v in values:
                assert v.numerator.bit_length() + v.denominator.bit_length() <= _result_bound(n, x)


def test_result_size_cap_boundary():
    # -5/6 has b = 3, so the bound is n * (bitlen(n) + 14); n = 18078 is the
    # last order under the cap.  Only the check runs at the boundary: the
    # values themselves are never computed there.
    x = Fraction(-5, 6)
    assert _result_bound(18078, x) <= MAX_RESULT_BITS < _result_bound(18079, x)
    calculus._check_result_size(18078, x)
    for derivative in (arctan_nth_derivative, artanh_nth_derivative):
        with pytest.raises(ValueError, match="MAX_RESULT_BITS"):
            derivative(18079, x)
    # a long literal is refused at a small order
    wide = Fraction(10**1300 + 1, 3)
    assert _result_bound(99, wide) > MAX_RESULT_BITS
    with pytest.raises(ValueError, match="MAX_RESULT_BITS"):
        arctan_nth_derivative(99, wide)


def test_artanh_derivative_examples():
    assert artanh_nth_derivative(1, Fraction(0)) == 1
    assert artanh_nth_derivative(2, Fraction(1, 2)) == Fraction(16, 9)
    assert artanh_nth_derivative(3, Fraction(0)) == 2


def test_artanh_pole_errors():
    with pytest.raises(PoleError):
        artanh_nth_derivative(2, Fraction(1))
    with pytest.raises(PoleError):
        artanh_nth_derivative(5, Fraction(-1))


def _artanh_derivative_oracle(n, x):
    # repeated symbolic differentiation of artanh' = 1/(1-x^2): maintain
    # numerator N with value N/(1-x^2)^m, where
    # (N/(1-x^2)^m)' = (N'(1-x^2) + 2m x N)/(1-x^2)^(m+1)
    numerator = Polynomial.one()
    m = 1
    shell = Polynomial((1, 0, -1))
    for _ in range(n - 1):
        numerator = numerator.differentiate() * shell + (2 * m) * (Polynomial.x() * numerator)
        m += 1
    return Fraction(numerator.evaluate(x)) / shell.evaluate(x) ** m


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(-2, 5), Fraction(3)])
def test_artanh_matches_symbolic_differentiation(x):
    for n in range(1, 11):
        assert artanh_nth_derivative(n, x) == _artanh_derivative_oracle(n, x)


def test_chebyshev_form_examples():
    assert abs(chebyshev_derivative_form(1, Fraction(0)) - 1) < 1e-30
    assert abs(chebyshev_derivative_form(2, Fraction(1)) + 0.5) < 1e-30
    with workprec(128):
        got = chebyshev_derivative_form(4, Fraction(2))
        assert abs(got - to_mpf(Fraction(-144, 625))) < 1e-12


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
def test_chebyshev_form_agrees_with_exact(x):
    with workprec(128):
        for n in range(1, 31):
            exact = to_mpf(arctan_nth_derivative(n, x))
            float_form = chebyshev_derivative_form(n, x)
            assert abs(float_form - exact) <= mpmath.mpf("1e-12") * max(1, abs(exact))


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
def test_finite_difference_oracle(x):
    for n in range(1, 6):
        exact = float(arctan_nth_derivative(n, x))
        estimate = float(finite_difference_derivative(n, x))
        assert abs(estimate - exact) <= 1e-4 * max(1.0, abs(exact))


def test_roots_examples():
    rs = roots(SequenceKind.BETA, 2)
    assert rs.all_certified
    values = [float(r.value) for r in rs.roots]
    assert values[0] == pytest.approx(3**-0.5)
    assert values[1] == pytest.approx(-(3**-0.5))

    rs = roots(SequenceKind.ALPHA, 2)
    assert [float(r.value) for r in rs.roots] == [pytest.approx(1), pytest.approx(-1)]

    rs = roots(SequenceKind.BETA, 1)
    assert float(rs.roots[0].value) == pytest.approx(0, abs=1e-30)


def test_roots_metadata():
    rs = roots(SequenceKind.ALPHA, 5)
    assert [r.closed_form for r in rs.roots] == [
        "cot(1*pi/10)",
        "cot(3*pi/10)",
        "cot(5*pi/10)",
        "cot(7*pi/10)",
        "cot(9*pi/10)",
    ]
    values = [r.value for r in rs.roots]
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_roots_certify_up_to_50(kind):
    for n in (1, 2, 7, 20, 35, 50):
        assert roots(kind, n).all_certified


@pytest.mark.parametrize("n", [215, 216, 219, 220, 230, 400, 600, 1000])
@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_roots_certify_where_128_bits_fall_short(kind, n):
    # at a fixed 128 bits Horner's rounding error outgrows the tolerance from n = 215
    assert node_precision(n) > 128
    assert roots(kind, n).all_certified


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_odd_degree_middle_node_is_an_exact_certified_zero(kind):
    # beta_n and alpha_n of odd n are odd polynomials, and their middle node
    # cot(pi/2) is 0 exactly, not the rounding error of pi/2
    for n in range(1, 302, 2):
        p = build(kind, n, BuildMethod.RECURRENCE)
        k, m = ((n + 1) // 2, n + 1) if kind is SequenceKind.BETA else (n, 2 * n)
        with workprec(node_precision(n)):
            node = cot_node(k, m)
            check = certify_simple_root(prepare(p), node, prepare(p.differentiate()))
        assert node._mpf_ == mpmath.libmp.fzero, n
        assert check.certified and check.residual == 0, n
    for n in (1, 3, 5, 161, 301):
        middle = roots(kind, n).roots[(n - 1) // 2]
        assert middle.value._mpf_ == mpmath.libmp.fzero, n
        assert middle.certified, n


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_mirrored_root_checks_equal_the_direct_certificate(kind):
    # roots calls cot_node and certifies only the records with 2k <= n+1, and
    # gives record k > (n+1)/2 the negated value and the check of its mirror
    # n+1-k; each must be the node at its own index, with that node's check
    for n in list(range(1, 61)) + [215, 216, 400]:
        rs = roots(kind, n)
        p = build(kind, n, BuildMethod.RECURRENCE)
        with workprec(node_precision(n)):
            if kind is SequenceKind.BETA:
                nodes = [cot_node(k, n + 1) for k in range(1, n + 1)]
            else:
                nodes = [cot_node(2 * k - 1, 2 * n) for k in range(1, n + 1)]
            p_mpf, dp_mpf = prepare(p), prepare(p.differentiate())
            direct = [certify_simple_root(p_mpf, t, dp_mpf) for t in nodes]
        assert [r.value._mpf_ for r in rs.roots] == [t._mpf_ for t in nodes], n
        assert [r.check for r in rs.roots] == direct, n


def test_roots_degree_cap_refuses_before_building(monkeypatch):
    # MAX_ROOT_DEGREE itself runs in the README example; only the refused
    # degree just past it is asked for here
    assert calculus.MAX_ROOT_DEGREE == 1000
    monkeypatch.setattr(families, "_prefix_cache", {})
    for kind in (SequenceKind.BETA, SequenceKind.ALPHA):
        with pytest.raises(ValueError, match="MAX_ROOT_DEGREE"):
            roots(kind, 1001)
    assert families._prefix_cache == {}


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


def _reference_check(poly, t, tolerance=1e-9):
    residual = abs(_reference_horner(poly, t))
    slope = abs(_reference_horner(poly.differentiate(), t))
    ok = bool(residual <= tolerance * max(1, slope) and slope > tolerance)
    return RootCheck(float(residual), float(slope), ok)


@pytest.mark.parametrize("precision", [1, 53, 128])
@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_prepared_roots_match_per_call_conversion(kind, precision):
    # prepared polynomials give the per-call certificate at every precision,
    # and roots gives it at node_precision(n), which is 128 bits for every n here
    for n in list(range(1, 61)) + [120]:
        p = build(kind, n, BuildMethod.RECURRENCE)
        with workprec(precision):
            if kind is SequenceKind.BETA:
                nodes = [cot_node(k, n + 1) for k in range(1, n + 1)]
            else:
                nodes = [cot_node(2 * k - 1, 2 * n) for k in range(1, n + 1)]
            expected = [_reference_check(p, node) for node in nodes]
            p_mpf, dp_mpf = prepare(p), prepare(p.differentiate())
            assert [certify_simple_root(p_mpf, node, dp_mpf) for node in nodes] == expected, n
        if precision == node_precision(n):
            rs = roots(kind, n)
            assert [r.value._mpf_ for r in rs.roots] == [node._mpf_ for node in nodes]
            assert [r.check for r in rs.roots] == expected, n


def test_eval_poly_prepared_and_exact_agree_bit_for_bit():
    p = build(SequenceKind.BETA, 30)
    with workprec(53):
        t = cot_node(3, 31)
        expected = _reference_horner(p, t)._mpf_
        assert eval_poly(p, t)._mpf_ == expected
        assert eval_poly(prepare(p), t)._mpf_ == expected


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_prepared_parity_members_keep_one_half(kind):
    # eval_poly's cost: a member or its derivative of degree d runs one
    # Horner in t^2 over d//2 + 1 entries, none of them a skipped zero
    members = build_sequence(kind, 150, BuildMethod.RECURRENCE)
    with workprec(128):
        for n in range(1, 151):
            for p in (members[n], members[n].differentiate()):
                prepared = prepare(p)
                halves = (prepared.even, prepared.odd)
                assert sorted(len(half) for half in halves) == [0, p.degree // 2 + 1], n
                assert (prepared.odd if p.degree % 2 else prepared.even), n
                assert None not in prepared.even + prepared.odd, n
        dense = prepare(Polynomial((1, 2, 3)))
    assert dense.even == ((3, 0), (1, 0)) and dense.odd == ((1, 1),)


def _mpf_chain(coeffs, t):
    # E(t^2) + t O(t^2) on raw mpf tuples with mpmath's own rounded
    # operations, the bits eval_poly must give; ``coeffs`` runs from x^0 up,
    # converted once, as prepare does, with None for a zero
    prec = mpmath.mp.prec
    libmp = mpmath.libmp
    y = libmp.mpf_mul(t, t, prec, libmp.round_nearest)
    halves = []
    for half in (coeffs[0::2], coeffs[1::2]):
        acc = libmp.fzero
        for c in reversed(half):
            acc = libmp.mpf_mul(acc, y, prec, libmp.round_nearest)
            if c is not None:
                acc = libmp.mpf_add(acc, c, prec, libmp.round_nearest)
        halves.append(acc)
    odd = libmp.mpf_mul(t, halves[1], prec, libmp.round_nearest)
    return libmp.mpf_add(halves[0], odd, prec, libmp.round_nearest)


@pytest.mark.parametrize("precision", [1, 2, 3, 4, 53, 128])
@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_eval_poly_matches_mpf_operations_on_every_root_set(kind, precision):
    members = build_sequence(kind, 150, BuildMethod.RECURRENCE)
    with workprec(precision):
        for n in range(1, 151):
            if kind is SequenceKind.BETA:
                nodes = {cot_node(k, n + 1)._mpf_ for k in range(1, n + 1)}
            else:
                nodes = {cot_node(2 * k - 1, 2 * n)._mpf_ for k in range(1, n + 1)}
            for p in (members[n], members[n].differentiate()):
                prepared = prepare(p)
                coeffs = [to_mpf(c)._mpf_ if c else None for c in p.coefficients]
                for node in nodes:
                    got = eval_poly(prepared, mpmath.mp.make_mpf(node))._mpf_
                    assert got == _mpf_chain(coeffs, node), (n, node)


coefficients = st.one_of(
    st.just(0),
    st.integers(-(10**30), 10**30),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)),
)


@given(
    st.lists(coefficients, max_size=12).map(Polynomial),
    st.integers(1, 400),
    st.integers(-(2**16), 2**16),
    st.integers(-400, 400),
)
def test_eval_poly_matches_reference_horner(p, precision, mantissa, exponent):
    with workprec(precision):
        t = mpmath.mpf((mantissa, exponent))
        assert eval_poly(p, t)._mpf_ == _reference_horner(p, t)._mpf_


@given(
    st.lists(st.integers(-9, 9), max_size=6).map(Polynomial),
    st.integers(1, 3),
    st.integers(-9, 9),
    st.integers(-3, 3),
)
def test_eval_poly_matches_reference_horner_near_ties(p, precision, mantissa, exponent):
    # small integers at 1 to 3 bits land on exact halfway cases often
    with workprec(precision):
        t = mpmath.mpf((mantissa, exponent))
        assert eval_poly(p, t)._mpf_ == _reference_horner(p, t)._mpf_


@pytest.mark.parametrize(
    "precision, coeffs, x, expected",
    [
        (2, (1, 1), 4, 4),  # the sum 5 is halfway between 4 and 6; 4 is even
        (2, (-1, -1), 4, -4),
        (2, (3, 1), 4, 8),  # the sum 7 is halfway between 6 and 8; 8 is even
        (3, (0, 3), 3, 8),  # the product 9 is halfway between 8 and 10
        (3, (0, 5), 3, 16),  # the product 15 is halfway between 14 and 16
    ],
)
def test_eval_poly_rounds_ties_to_even(precision, coeffs, x, expected):
    p = Polynomial(coeffs)
    with workprec(precision):
        t = mpmath.mpf(x)
        assert eval_poly(p, t) == expected
        assert eval_poly(p, t)._mpf_ == _reference_horner(p, t)._mpf_


def test_eval_poly_rejects_a_precision_change():
    p = build(SequenceKind.ALPHA, 5)
    with workprec(53):
        prepared = prepare(p)
    with workprec(128):
        with pytest.raises(ValueError):
            eval_poly(prepared, mpmath.mpf(1))


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_sign_changes_bracket_all_roots(kind):
    for n in range(1, 21):
        assert sign_changes_between_roots(kind, n)


def test_ode_residual_examples():
    assert ode_residual(SequenceKind.BETA, 3) == Polynomial.zero()
    assert ode_residual(SequenceKind.BETA, 0) == Polynomial.zero()
    assert ode_residual(SequenceKind.ALPHA, 4) == Polynomial.zero()


def test_ode_residuals_vanish():
    for n in range(60):
        assert not ode_residual(SequenceKind.BETA, n)
        assert not ode_residual(SequenceKind.ALPHA, n)


def _ode_by_products(kind, n, p):
    # the ODE written with polynomial products, as the docstring states it
    m = n if kind is SequenceKind.BETA else n - 1
    dp = p.differentiate()
    return Polynomial((1, 0, 1)) * dp.differentiate() - (2 * m) * (Polynomial.x() * dp) + (m * (m + 1)) * p


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_ode_residual_equals_the_product_form_on_perturbed_members(kind, monkeypatch):
    # one perturbed coefficient, on either parity, must leave the same
    # residual in the one-pass coefficients as in the products
    for n in range(80):
        p = build(kind, n, BuildMethod.RECURRENCE)
        assert ode_residual(kind, n) == _ode_by_products(kind, n, p) == Polynomial.zero(), n
        for j in sorted({0, n // 3, n - 1, n} - {-1}):
            coeffs = list(p.coefficients)
            coeffs[j] += 1 + j
            bent = Polynomial(coeffs)
            monkeypatch.setattr(families, "build", lambda *args, bent=bent: bent)
            residual = ode_residual(kind, n)
            monkeypatch.undo()
            assert residual == _ode_by_products(kind, n, bent), (n, j)
            # only a perturbed 1 or x can still solve an ODE with m <= 1
            assert residual or j <= 1, (n, j)


def test_derivative_identity_examples():
    # d/dx beta_n = (n+1) beta_{n-1};  d/dx alpha_n = n alpha_{n-1}
    betas = build_sequence(SequenceKind.BETA, 59, BuildMethod.RECURRENCE)
    alphas = build_sequence(SequenceKind.ALPHA, 59, BuildMethod.RECURRENCE)
    for n in range(1, 60):
        assert betas[n].differentiate() == (n + 1) * betas[n - 1]
        assert alphas[n].differentiate() == n * alphas[n - 1]


def test_order_validation():
    with pytest.raises(ValueError):
        arctan_nth_derivative(0, Fraction(1))
    with pytest.raises(ValueError):
        roots(SequenceKind.BETA, 0)
