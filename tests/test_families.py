"""Family builders, cross-method agreement, and generating functions."""
from fractions import Fraction
from math import comb, factorial

import pytest

import arctanpoly.families as fam
from arctanpoly.exact import GaussianInt, bernoulli, gaussian_pow
from arctanpoly.families import (
    SUPPORTED_METHODS,
    BuildMethod,
    SequenceKind,
    UnsupportedPairError,
    build,
    build_sequence,
    cross_validate,
    verify_egf,
    verify_ogf,
)
from arctanpoly.poly import Polynomial, _spread

BETA_TABLE = [
    Polynomial((1,)),
    Polynomial((0, 2)),
    Polynomial((-1, 0, 3)),
    Polynomial((0, -4, 0, 4)),
    Polynomial((1, 0, -10, 0, 5)),
    Polynomial((0, 6, 0, -20, 0, 6)),
]

ALPHA_TABLE = [
    Polynomial((1,)),
    Polynomial((0, 1)),
    Polynomial((-1, 0, 1)),
    Polynomial((0, -3, 0, 1)),
    Polynomial((1, 0, -6, 0, 1)),
    Polynomial((0, 5, 0, -10, 0, 1)),
]


def test_first_six_members_match_reference_tables():
    for n in range(6):
        assert build(SequenceKind.BETA, n) == BETA_TABLE[n]
        assert build(SequenceKind.ALPHA, n) == ALPHA_TABLE[n]


def test_build_examples():
    assert build(SequenceKind.BETA, 2, BuildMethod.RECURRENCE) == Polynomial((-1, 0, 3))
    assert build(SequenceKind.BETA, 5, BuildMethod.EXPLICIT) == Polynomial((0, 6, 0, -20, 0, 6))
    assert build(SequenceKind.ALPHA, 4, BuildMethod.COMPLEX_POWER) == Polynomial((1, 0, -6, 0, 1))
    # P_2 = 2! * beta_2(-x)
    assert build(SequenceKind.P, 2, BuildMethod.DERIVATIVE_RECURRENCE) == Polynomial((-2, 0, 6))
    # pi_3 = beta_3 / 4
    assert build(SequenceKind.MONIC_PI, 3, BuildMethod.MONIC_BERNOULLI) == Polynomial((0, -1, 0, 1))
    assert build(SequenceKind.ALPHA, 2, BuildMethod.MONIC_BERNOULLI) == Polynomial((-1, 0, 1))


@pytest.mark.parametrize(
    "method", [m for m in BuildMethod if m in SUPPORTED_METHODS[SequenceKind.BETA]]
)
def test_beta_zero_is_one_for_every_supported_method(method):
    assert build(SequenceKind.BETA, 0, method) == Polynomial.one()


def test_supported_methods_are_the_routes_that_compute_something_different():
    # beta by derivative recurrence is P's recurrence divided by
    # (-1)^(n+1) (n+1)!, and P by complex power is beta's complex power times
    # (-1)^n n!, so neither is a route of its own
    assert SUPPORTED_METHODS == {
        SequenceKind.BETA: {
            BuildMethod.RECURRENCE,
            BuildMethod.EXPLICIT,
            BuildMethod.COMPLEX_POWER,
            BuildMethod.HYPERGEOMETRIC,
        },
        SequenceKind.ALPHA: {
            BuildMethod.RECURRENCE,
            BuildMethod.EXPLICIT,
            BuildMethod.COMPLEX_POWER,
            BuildMethod.MONIC_BERNOULLI,
            BuildMethod.HYPERGEOMETRIC,
        },
        SequenceKind.P: {BuildMethod.EXPLICIT, BuildMethod.DERIVATIVE_RECURRENCE},
        SequenceKind.MONIC_PI: {BuildMethod.RECURRENCE, BuildMethod.MONIC_BERNOULLI},
    }


def test_alpha_default_reads_the_beta_prefix_and_caches_no_alpha_prefix(monkeypatch):
    from arctanpoly.connections import tan_multiple

    assert fam.DEFAULT_METHOD[SequenceKind.ALPHA] is BuildMethod.RECURRENCE
    monkeypatch.setattr(fam, "_prefix_cache", {})
    beta_key = (SequenceKind.BETA, BuildMethod.RECURRENCE)
    n = 60
    build(SequenceKind.BETA, n)
    alpha = build(SequenceKind.ALPHA, n)
    ratio = tan_multiple(n)
    assert list(fam._prefix_cache) == [beta_key]
    assert len(fam._prefix_cache[beta_key][0]) == n + 1  # read, not grown
    assert alpha == ratio.denominator == build(SequenceKind.ALPHA, n, BuildMethod.EXPLICIT)


def test_alpha_recurrence_route_matches_the_hypergeometric_sums_past_the_cross_rows():
    # verify's cross rows stop at --max-n 150
    recurrence = build_sequence(SequenceKind.ALPHA, 400, BuildMethod.RECURRENCE)
    assert recurrence == build_sequence(SequenceKind.ALPHA, 400, BuildMethod.HYPERGEOMETRIC)
    for n, p in enumerate(recurrence):
        assert p.degree == n and p.leading_coefficient == 1
        assert all(type(c) is int for c in p.coefficients)
    assert build(SequenceKind.ALPHA, 400, BuildMethod.RECURRENCE) == recurrence[400]


def test_the_three_term_recurrence_is_stepped_once():
    # alpha's own stepping would be beta's step from other seeds, and the
    # step is linear with coefficients free of n, so its members would be
    # the differences alpha's recurrence route reads off beta's prefix
    stepped = [key for key, (generator, *_) in fam._ROUTES.items() if generator is fam._three_term]
    assert stepped == [(SequenceKind.BETA, BuildMethod.RECURRENCE)]
    assert fam._MEMBERS[(SequenceKind.ALPHA, BuildMethod.RECURRENCE)] is fam._alpha_interchange


def test_cross_validate_reports_a_perturbed_interchange_member(monkeypatch):
    from arctanpoly.cli import main

    def perturbed(n):
        raw = fam._alpha_interchange(n)
        if n == 7:
            raw[3] += 1
        return raw

    monkeypatch.setitem(fam._MEMBERS, (SequenceKind.ALPHA, BuildMethod.RECURRENCE), perturbed)
    report = cross_validate(SequenceKind.ALPHA, 10)
    # alpha_7 = x^7 - 21x^5 + 35x^3 - 7x; the reference route is the faulty
    # one, so every other route's row at n = 7 fails
    others = [m for m in BuildMethod if m in SUPPORTED_METHODS[SequenceKind.ALPHA]][1:]
    detail = "first difference at x^3: recurrence gives 36, {} gives 35"
    assert [row for row in report.rows if not row[3]] == [
        (7, BuildMethod.RECURRENCE, m, False, detail.format(m.value)) for m in others
    ]
    assert main(["verify", "--suite", "cross", "--max-n", "10"]) == 1


def test_pi_default_reads_the_beta_prefix_and_caches_no_pi_prefix(monkeypatch):
    from arctanpoly import hessenberg

    assert fam.DEFAULT_METHOD[SequenceKind.MONIC_PI] is BuildMethod.RECURRENCE
    monkeypatch.setattr(fam, "_prefix_cache", {})
    beta_key = (SequenceKind.BETA, BuildMethod.RECURRENCE)
    n = 60
    beta = build(SequenceKind.BETA, n)
    pi = build(SequenceKind.MONIC_PI, n)
    pis = build_sequence(SequenceKind.MONIC_PI, n)
    reference = hessenberg.monic_reference(n)
    assert list(fam._prefix_cache) == [beta_key]
    assert len(fam._prefix_cache[beta_key][0]) == n + 1  # read, not grown
    assert pi == pis[n] == reference == beta.scale(Fraction(1, n + 1))


def test_cross_validate_reports_a_perturbed_pi_quotient_member(monkeypatch):
    from arctanpoly.cli import main

    def perturbed(n):
        raw = fam._pi_quotient(n)
        if n == 7:
            raw[3] += 1
        return raw

    monkeypatch.setitem(fam._MEMBERS, (SequenceKind.MONIC_PI, BuildMethod.RECURRENCE), perturbed)
    report = cross_validate(SequenceKind.MONIC_PI, 10)
    # pi_7 = beta_7/8 = x^7 - 7x^5 + 7x^3 - x
    assert report.failure == (
        7,
        BuildMethod.RECURRENCE,
        BuildMethod.MONIC_BERNOULLI,
        False,
        "first difference at x^3: recurrence gives 8, monic-bernoulli gives 7",
    )
    assert main(["verify", "--suite", "hessenberg", "--max-n", "10"]) == 1


def test_a_beta_recurrence_fault_reaches_the_pi_cross_row(monkeypatch):
    from arctanpoly.checks import suite_cross, suite_hessenberg

    def perturbed():
        for n, p in enumerate(fam._three_term([1], [2])):
            yield p + Polynomial((0, 0, 0, 1)) if n == 7 else p

    monkeypatch.setattr(fam, "_prefix_cache", {})
    monkeypatch.setitem(fam._ROUTES, (SequenceKind.BETA, BuildMethod.RECURRENCE), (perturbed,))
    report = cross_validate(SequenceKind.MONIC_PI, 10)
    # beta_7 = 8x^7 - 56x^5 + 56x^3 - 8x, so the quotient's x^3 is 57/8
    assert report.failure == (
        7,
        BuildMethod.RECURRENCE,
        BuildMethod.MONIC_BERNOULLI,
        False,
        "first difference at x^3: recurrence gives 57/8, monic-bernoulli gives 7",
    )
    failed = {row.check for row in suite_cross(10) if not row.passed and row.n == 7}
    assert {"beta[recurrence==explicit]", "pi[recurrence==monic-bernoulli]"} <= failed
    failed = [(row.check, row.n) for row in suite_hessenberg(10) if not row.passed]
    assert failed == [("charpoly-is-monic-family", 7)]


def test_unsupported_pairs_raise():
    with pytest.raises(UnsupportedPairError):
        build(SequenceKind.BETA, 3, BuildMethod.MONIC_BERNOULLI)
    with pytest.raises(UnsupportedPairError):
        build(SequenceKind.BETA, 3, BuildMethod.DERIVATIVE_RECURRENCE)
    with pytest.raises(UnsupportedPairError):
        build(SequenceKind.P, 3, BuildMethod.COMPLEX_POWER)
    with pytest.raises(UnsupportedPairError):
        build(SequenceKind.ALPHA, 3, BuildMethod.DERIVATIVE_RECURRENCE)
    with pytest.raises(UnsupportedPairError):
        build(SequenceKind.P, 3, BuildMethod.HYPERGEOMETRIC)
    with pytest.raises(UnsupportedPairError):
        build(SequenceKind.MONIC_PI, 3, BuildMethod.EXPLICIT)


def test_pi_default_route_builds_past_the_monic_bernoulli_cap():
    # the default is the quadratic recurrence, which has no degree cap
    n = fam.MAX_MONIC_BERNOULLI_DEGREE + 1
    assert fam.DEFAULT_METHOD[SequenceKind.MONIC_PI] is BuildMethod.RECURRENCE
    pi_n = build(SequenceKind.MONIC_PI, n)
    assert pi_n == build(SequenceKind.MONIC_PI, n, BuildMethod.RECURRENCE)
    beta_n = build(SequenceKind.BETA, n, BuildMethod.HYPERGEOMETRIC)
    assert pi_n == beta_n.scale(Fraction(1, n + 1))


@pytest.mark.parametrize(
    "kind, method",
    [
        (SequenceKind.MONIC_PI, BuildMethod.MONIC_BERNOULLI),
        (SequenceKind.ALPHA, BuildMethod.MONIC_BERNOULLI),
    ],
)
def test_monic_bernoulli_routes_refuse_past_the_cap_before_stepping(monkeypatch, kind, method):
    # verify --max-n 150 must fit under the cap; only the refused n just past
    # it is asked for, and the refusal comes before the prefix cache is touched
    cap = fam.MAX_MONIC_BERNOULLI_DEGREE
    assert cap == 400 and cap >= 150
    monkeypatch.setattr(fam, "_prefix_cache", {})
    with pytest.raises(ValueError, match="MAX_MONIC_BERNOULLI_DEGREE.*recurrence"):
        build(kind, cap + 1, method)
    with pytest.raises(ValueError, match="MAX_MONIC_BERNOULLI_DEGREE.*recurrence"):
        build_sequence(kind, cap + 1, method)
    assert fam._prefix_cache == {}


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        build(SequenceKind.BETA, -1)


def test_cross_validation_all_methods_agree():
    for kind in (SequenceKind.BETA, SequenceKind.ALPHA, SequenceKind.P, SequenceKind.MONIC_PI):
        report = cross_validate(kind, 30)
        assert report.passed, report.summary()


def test_cross_validation_compares_each_route_with_the_first():
    for kind in SequenceKind:
        first, *others = [m for m in BuildMethod if m in SUPPORTED_METHODS[kind]]
        report = cross_validate(kind, 6)
        for n in range(7):
            pairs = [(ma, mb) for m, ma, mb, *_ in report.rows if m == n]
            assert pairs == [(first, mb) for mb in others]


def test_cross_validation_trivial_size():
    report = cross_validate(SequenceKind.P, 0)
    assert report.passed
    assert build(SequenceKind.P, 0, BuildMethod.DERIVATIVE_RECURRENCE) == Polynomial.one()


def test_single_builds_match_sequence_builds():
    for kind in SequenceKind:
        for method in SUPPORTED_METHODS[kind]:
            seq = build_sequence(kind, 150, method)
            for n in (0, 1, 2, 7, 12, 17, 150):
                single = build(kind, n, method)
                assert single == seq[n], (kind, method, n)
                assert [type(c) for c in single.coefficients] == [
                    type(c) for c in seq[n].coefficients
                ], (kind, method, n)


def test_no_stepped_route_is_an_alias_of_another():
    # a route equal to another (same generator and arguments) computes the
    # same thing, and its cross-check rows would compare it with itself
    for kind in SequenceKind:
        routes = [
            route
            for table in (fam._POWER_ROUTES, fam._ROUTES)
            for (k, _), route in table.items()
            if k is kind
        ]
        for i, a in enumerate(routes):
            assert all(a != b for b in routes[i + 1 :]), kind


def test_no_two_stepped_routes_rescale_one_stepping():
    # two routes that step the same generator from the same seeds differ at
    # most by how they scale the members they hand out, so they are one
    # route: the rescaled family belongs in _MEMBERS, as a reader of the
    # other's members
    routes = [*fam._POWER_ROUTES.items(), *fam._ROUTES.items()]
    for i, ((ka, ma), (gen_a, *_)) in enumerate(routes):
        for (kb, mb), (gen_b, *_) in routes[i + 1 :]:
            if gen_a is gen_b:
                a, b = build_sequence(ka, 10, ma), build_sequence(kb, 10, mb)
                assert any(
                    p.scale(q.leading_coefficient) != q.scale(p.leading_coefficient)
                    for p, q in zip(a, b)
                ), ((ka, ma), (kb, mb))


def test_member_readers_hand_out_canonical_trimmed_lists():
    # the Polynomial._raw contract: what Polynomial(raw) would store, with
    # the same coefficient types and a nonzero leading entry
    for key, member in fam._MEMBERS.items():
        for n in range(41):
            raw = member(n)
            canonical = Polynomial(raw).coefficients
            assert tuple(raw) == canonical and raw[-1] != 0, (key, n)
            assert [type(c) for c in raw] == [type(c) for c in canonical], (key, n)


def test_each_supported_pair_is_in_exactly_one_table():
    tables = (fam._MEMBERS, fam._POWER_ROUTES, fam._ROUTES)
    for kind in SequenceKind:
        for method in SUPPORTED_METHODS[kind]:
            assert sum((kind, method) in table for table in tables) == 1, (kind, method)
    assert sum(map(len, tables)) == sum(map(len, SUPPORTED_METHODS.values()))


@pytest.mark.parametrize(
    "kind, method",
    [
        (SequenceKind.BETA, BuildMethod.HYPERGEOMETRIC),
        (SequenceKind.ALPHA, BuildMethod.HYPERGEOMETRIC),
    ],
)
def test_single_complex_power_matches_a_binomial_route_at_large_n(kind, method):
    # build and build_sequence share the stepping generator, so the check
    # above compares complex power with itself; this one reads another route
    assert build(kind, 1200, BuildMethod.COMPLEX_POWER) == build(kind, 1200, method)


def _raise(*args):
    raise AssertionError("this kernel must not run")


@pytest.mark.parametrize(
    "disabled, method",
    [("_signed_row", BuildMethod.EXPLICIT), ("_binomial_row", BuildMethod.HYPERGEOMETRIC)],
)
@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_binomial_routes_share_no_kernel(monkeypatch, disabled, method, kind):
    # The explicit and hypergeometric rows of the cross suite are evidence
    # only if each route still builds with the other's kernel switched off.
    expected = build_sequence(kind, 40, BuildMethod.RECURRENCE)
    monkeypatch.setattr(fam, disabled, _raise)
    assert build_sequence(kind, 40, method) == expected
    assert build(kind, 41, method) == build(kind, 41, BuildMethod.RECURRENCE)


def test_cross_validation_names_the_first_differing_coefficient(monkeypatch):
    from arctanpoly.checks import suite_cross

    def wrong_beta(n):
        raw = fam._binomial_row(n, n + 1, 1)
        if n == 3:
            raw[1] = 5  # beta_3 = 4x^3 - 4x
        return raw

    monkeypatch.setitem(fam._MEMBERS, (SequenceKind.BETA, BuildMethod.EXPLICIT), wrong_beta)
    report = cross_validate(SequenceKind.BETA, 5)
    assert not report.passed
    expected = "first difference at x^1: recurrence gives -4, explicit gives 5"
    assert report.failure == (3, BuildMethod.RECURRENCE, BuildMethod.EXPLICIT, False, expected)
    assert report.summary().endswith(expected)
    failed = [row for row in suite_cross(5) if not row.passed]
    assert [(row.check, row.n, row.detail) for row in failed] == [
        ("beta[recurrence==explicit]", 3, expected)
    ]


def test_cross_validation_names_a_wrong_route_that_is_not_first(monkeypatch):
    def wrong_alpha(n):
        raw = fam._signed_row(n, n, 0)
        if n == 4:
            raw[0] += 1  # alpha_4 = x^4 - 6x^2 + 1
        return raw

    key = (SequenceKind.ALPHA, BuildMethod.HYPERGEOMETRIC)
    monkeypatch.setitem(fam._MEMBERS, key, wrong_alpha)
    report = cross_validate(SequenceKind.ALPHA, 6)
    expected = "first difference at x^0: recurrence gives 1, hypergeometric gives 2"
    failure = (4, BuildMethod.RECURRENCE, BuildMethod.HYPERGEOMETRIC, False, expected)
    assert report.failure == failure
    assert "between recurrence and hypergeometric" in report.summary()


def test_values_match_gaussian_integer_powers():
    # beta_n(a) = Im((a+i)^(n+1)) and alpha_n(a) = Re((a+i)^n) for integers a
    for a in (-3, -1, 0, 2, 5):
        base = GaussianInt(a, 1)
        for n in range(25):
            beta_n = build(SequenceKind.BETA, n)
            alpha_n = build(SequenceKind.ALPHA, n)
            assert beta_n.evaluate(a) == gaussian_pow(base, n + 1).im
            assert alpha_n.evaluate(a) == gaussian_pow(base, n).re


def test_leading_coefficients_and_degrees():
    for n in range(40):
        assert build(SequenceKind.BETA, n).leading_coefficient == n + 1
        assert build(SequenceKind.ALPHA, n).leading_coefficient == 1
        assert build(SequenceKind.MONIC_PI, n).leading_coefficient == 1
        p_n = build(SequenceKind.P, n)
        assert p_n.leading_coefficient == (-1) ** n * factorial(n + 1)
        assert p_n.degree == n


def test_parity_symmetry():
    for n in range(40):
        for kind in (SequenceKind.BETA, SequenceKind.ALPHA):
            p = build(kind, n)
            flipped = Polynomial([(-1) ** k * c for k, c in enumerate(p.coefficients)])
            assert flipped == (-1) ** n * p


def test_p_is_factorial_times_reflected_beta():
    for n in range(30):
        beta = build(SequenceKind.BETA, n)
        reflected = Polynomial([(-1) ** k * c for k, c in enumerate(beta.coefficients)])
        p_n = build(SequenceKind.P, n, BuildMethod.DERIVATIVE_RECURRENCE)
        assert p_n == factorial(n) * reflected


def test_interchange_identities():
    # alpha by its explicit sums: the default alpha is beta_n - x beta_{n-1}
    x = Polynomial.x()
    shell = Polynomial((1, 0, 1))
    for n in range(1, 40):
        alpha_n = build(SequenceKind.ALPHA, n, BuildMethod.EXPLICIT)
        beta_n = build(SequenceKind.BETA, n)
        beta_prev = build(SequenceKind.BETA, n - 1)
        alpha_prev = build(SequenceKind.ALPHA, n - 1, BuildMethod.EXPLICIT)
        assert alpha_n == beta_n - x * beta_prev
        assert beta_n == x * shell * alpha_prev - Polynomial((-1, 0, 1)) * alpha_n


def test_turan_identities():
    shell = Polynomial((1, 0, 1))
    for n in range(1, 30):
        beta = [build(SequenceKind.BETA, k) for k in (n - 1, n, n + 1)]
        alpha = [build(SequenceKind.ALPHA, k) for k in (n - 1, n, n + 1)]
        assert beta[1] * beta[1] - beta[0] * beta[2] == shell**n
        assert alpha[1] * alpha[1] - alpha[0] * alpha[2] == shell ** (n - 1)


def test_alternating_zero_coefficients():
    for n in range(40):
        beta = build(SequenceKind.BETA, n)
        for k in range(n + 1):
            if (n - k) % 2:
                assert beta.coefficient(k) == 0


def _values(kind, x, count):
    return [build(kind, n).evaluate(x) for n in range(count)]


def test_ogf_examples():
    assert verify_ogf(SequenceKind.BETA, Fraction(1), 5)
    assert _values(SequenceKind.BETA, Fraction(1), 5) == [1, 2, 2, 0, -4]
    assert verify_ogf(SequenceKind.ALPHA, Fraction(0), 4)
    assert _values(SequenceKind.ALPHA, Fraction(0), 4) == [1, 0, -1, 0]
    assert verify_ogf(SequenceKind.BETA, Fraction(0), 4)
    assert _values(SequenceKind.BETA, Fraction(0), 4) == [1, 0, -1, 0]
    assert verify_ogf(SequenceKind.ALPHA, Fraction(2), 1)


def test_ogf_reads_the_explicit_members(monkeypatch):
    key = (SequenceKind.BETA, BuildMethod.EXPLICIT)
    explicit = fam._MEMBERS[key]
    # beta_7 with a wrong x^1 coefficient (1 in place of -8)
    monkeypatch.setitem(
        fam._MEMBERS, key, lambda n: [0, 1] + explicit(n)[2:] if n == 7 else explicit(n)
    )
    assert not verify_ogf(SequenceKind.BETA, Fraction(1, 2), 10)
    assert verify_ogf(SequenceKind.BETA, Fraction(1, 2), 7)


def test_egf_reads_the_recurrence_prefix(monkeypatch):
    key = (SequenceKind.BETA, BuildMethod.RECURRENCE)
    monkeypatch.setattr(fam, "_prefix_cache", {})  # the shared cache is restored afterwards
    build_sequence(SequenceKind.BETA, 10, BuildMethod.RECURRENCE)
    members = fam._prefix_cache[key][0]
    members[7] = members[7] + 1
    assert not verify_egf(SequenceKind.BETA, Fraction(1, 2), 10)
    assert verify_egf(SequenceKind.BETA, Fraction(1, 2), 7)


def test_generating_functions_refuse_other_families():
    for check in (verify_ogf, verify_egf):
        with pytest.raises(ValueError, match="beta and alpha"):
            check(SequenceKind.P, Fraction(1), 5)


def test_egf_examples():
    assert verify_egf(SequenceKind.BETA, Fraction(0), 6)
    assert verify_egf(SequenceKind.ALPHA, Fraction(0), 6)
    assert verify_egf(SequenceKind.BETA, Fraction(1), 5)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)])
@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_generating_functions_at_reference_points(kind, x):
    assert verify_ogf(kind, x, 40)
    assert verify_egf(kind, x, 40)


def test_bernoulli_index_one_never_consumed(monkeypatch):
    # the Bernoulli-weighted recurrences only ever need |B_m| for m >= 2,
    # so the sign convention at index 1 cannot leak into any result
    import arctanpoly.families as fam
    import arctanpoly.hessenberg as hes
    from arctanpoly.exact import bernoulli as real_bernoulli

    requested = []

    def spy(n):
        requested.append(n)
        return real_bernoulli(n)

    monkeypatch.setattr(fam, "bernoulli", spy)
    monkeypatch.setattr(fam, "_prefix_cache", {})  # force the routes to run
    build_sequence(SequenceKind.MONIC_PI, 15, BuildMethod.MONIC_BERNOULLI)
    build_sequence(SequenceKind.ALPHA, 15, BuildMethod.MONIC_BERNOULLI)
    hes.build_H(10)
    assert requested and 1 not in requested
    assert all(m % 2 == 0 or m >= 3 for m in requested)


def _fraction_monic_bernoulli(n_max, coeff):
    # the monic recurrence p_{n+1} = x p_n - sum_j coeff(n, j) p_{n-j}, over Fractions
    seq = [[Fraction(1)]]
    for n in range(n_max):
        nxt = [Fraction(0)] + list(seq[n])
        for j in range(1, n + 1):
            c = coeff(n, j)
            for i, v in enumerate(seq[n - j]):
                nxt[i] -= c * v
        seq.append(nxt)
    return [Polynomial(raw) for raw in seq]


def _pi_bracket(n, j):
    return Fraction(2 ** (j + 1), j + 1) * comb(n, j) * abs(bernoulli(j + 1))


def _alpha_bracket(n, j):
    p = 2 ** (j + 1)
    return Fraction(p * (p - 1), j + 1) * comb(n, j) * abs(bernoulli(j + 1))


@pytest.mark.parametrize(
    "kind, coeff", [(SequenceKind.MONIC_PI, _pi_bracket), (SequenceKind.ALPHA, _alpha_bracket)]
)
def test_fraction_free_bernoulli_matches_fraction_loop(kind, coeff):
    expected = _fraction_monic_bernoulli(80, coeff)
    got = build_sequence(kind, 80, BuildMethod.MONIC_BERNOULLI)
    assert got == expected
    for a, b in zip(got, expected):
        assert [type(c) for c in a.coefficients] == [type(c) for c in b.coefficients]


@pytest.mark.parametrize("kind, method", list(fam._ROUTES))
def test_prefix_cache_only_appends(monkeypatch, kind, method):
    monkeypatch.setattr(fam, "_prefix_cache", {})
    cold = build_sequence(kind, 45, method)
    monkeypatch.setattr(fam, "_prefix_cache", {})
    previous = []
    for n in (0, 1, 3, 4, 9, 10, 17, 30, 31, 45):
        current = build_sequence(kind, n, method)
        assert current == cold[: n + 1]
        assert all(a is b for a, b in zip(previous, current))
        previous = current
    assert build(kind, 45, method) is previous[45]


def test_prefix_cache_survives_a_failed_step(monkeypatch):
    kind, method = SequenceKind.MONIC_PI, BuildMethod.MONIC_BERNOULLI
    monkeypatch.setattr(fam, "_prefix_cache", {})
    cold = build_sequence(kind, 20, method)
    monkeypatch.setattr(fam, "_prefix_cache", {})
    build_sequence(kind, 5, method)
    real_bernoulli = fam.bernoulli
    failed = []

    def interrupt_once(m):
        if m >= 11 and not failed:
            failed.append(m)
            raise KeyboardInterrupt
        return real_bernoulli(m)

    monkeypatch.setattr(fam, "bernoulli", interrupt_once)
    with pytest.raises(KeyboardInterrupt):
        build_sequence(kind, 20, method)
    assert failed
    monkeypatch.setattr(fam, "bernoulli", real_bernoulli)
    again = build_sequence(kind, 20, method)
    assert len(again) == 21
    assert again == cold


@pytest.mark.parametrize(
    "kind, method",
    [
        (SequenceKind.BETA, BuildMethod.RECURRENCE),
        (SequenceKind.MONIC_PI, BuildMethod.MONIC_BERNOULLI),
        (SequenceKind.P, BuildMethod.DERIVATIVE_RECURRENCE),
    ],
)
def test_concurrent_prefix_growth_is_consistent(monkeypatch, kind, method):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(fam, "_prefix_cache", {})
    expected = build_sequence(kind, 60, method)
    monkeypatch.setattr(fam, "_prefix_cache", {})
    sizes = [7, 60, 0, 33, 12, 59, 21, 48, 2, 40, 60, 15, 27, 5, 54, 38]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside a step too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(build_sequence, kind, n, method) for n in sizes]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    final = build_sequence(kind, 60, method)
    assert final == expected
    for n, got in zip(sizes, results):
        assert len(got) == n + 1
        assert all(a is b for a, b in zip(got, final))


# Reference implementations: one math.comb call per coefficient, and the
# three-term step as an index loop.

def _comb_beta(n):
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * comb(n + 1, 2 * k + 1)
    return out


def _comb_alpha(n):
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * comb(n, 2 * k)
    return out


def _comb_p(n):
    fac = factorial(n)
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** (n + k) * fac * comb(n + 1, 2 * k + 1)
    return out


@pytest.mark.parametrize(
    "builder, oracle",
    [
        pytest.param(
            fam._MEMBERS[(SequenceKind.BETA, BuildMethod.HYPERGEOMETRIC)],
            _comb_beta,
            id="beta-hypergeometric",
        ),
        pytest.param(
            fam._MEMBERS[(SequenceKind.ALPHA, BuildMethod.HYPERGEOMETRIC)],
            _comb_alpha,
            id="alpha-hypergeometric",
        ),
        (fam._p_explicit, _comb_p),
    ],
)
def test_ratio_explicit_builders_match_comb_loops(builder, oracle):
    for n in range(401):
        got = builder(n)
        assert got == oracle(n), n
        assert all(type(c) is int for c in got), n


def _loop_three_term_step(cur, prev):
    out = [0] * (len(cur) + 1)
    for i, c in enumerate(cur):
        out[i + 1] += 2 * c
    for i, c in enumerate(prev):
        out[i] -= c
        out[i + 2] -= c
    return out


@pytest.mark.parametrize(
    "kind, seed", [(SequenceKind.BETA, ([1], [0, 2])), (SequenceKind.ALPHA, ([1], [0, 1]))]
)
def test_three_term_step_matches_loop(kind, seed):
    # the step runs on half forms; spread out, each member equals the full
    # list the index loop gives
    prev, cur = seed
    half_prev, half_cur = prev[::-2], cur[::-2]
    for n in range(2, 301):
        half = fam._three_term_step(half_cur, half_prev)
        full = _loop_three_term_step(cur, prev)
        assert len(half) == n // 2 + 1
        assert all(type(c) is int for c in half)
        assert _spread(half, n) == full, n
        prev, cur = cur, full
        half_prev, half_cur = half_cur, half
    assert Polynomial(_spread(half_cur, 300)) == build(kind, 300)


def test_pi_recurrence_is_beta_over_n_plus_one():
    pis = build_sequence(SequenceKind.MONIC_PI, 300, BuildMethod.RECURRENCE)
    betas = build_sequence(SequenceKind.BETA, 300, BuildMethod.RECURRENCE)
    for n, (p, b) in enumerate(zip(pis, betas)):
        assert p == Polynomial([Fraction(c, n + 1) for c in b.coefficients]), n


def test_spread_round_trips():
    for n in range(40):
        half = list(range(1, n // 2 + 2))
        full = _spread(half, n)
        assert len(full) == n + 1
        assert full[n::-2] == half
        assert not any(full[i] for i in range(n + 1) if (n - i) % 2)


def test_bracket_matches_the_three_factor_product():
    for n in range(201):
        assert fam.bracket(n, 0) == 0
        for j in range(1, n + 1):
            expected = Fraction(2 ** (j + 1), j + 1) * comb(n, j) * abs(bernoulli(j + 1))
            got = fam.bracket(n, j)
            assert got == expected and type(got) is Fraction, (n, j)


def test_weight_rows_are_the_reduced_brackets():
    # step n of pi's Bernoulli route weighs p_(n-j) by bracket(n, j), alpha's
    # by (2^(j+1) - 1) bracket(n, j), for the odd j <= n; comparing the pairs
    # with the Fractions also checks that each pair is reduced
    for n in range(201):
        odd = range(1, n + 1, 2)
        pi_rows, alpha_rows = fam._pi_weights(n), fam._alpha_weights(n)
        assert len(pi_rows) == len(alpha_rows) == len(odd), n
        for j, pi_row, alpha_row in zip(odd, pi_rows, alpha_rows):
            b = fam.bracket(n, j)
            a = (2 ** (j + 1) - 1) * b
            assert pi_row == (b.numerator, b.denominator), (n, j)
            assert alpha_row == (a.numerator, a.denominator), (n, j)
            assert all(type(v) is int for v in (*pi_row, *alpha_row)), (n, j)


@pytest.mark.parametrize(
    "kind, weights",
    [(SequenceKind.MONIC_PI, fam._pi_weights), (SequenceKind.ALPHA, fam._alpha_weights)],
)
def test_a_wrong_weight_fails_its_familys_bernoulli_rows(monkeypatch, kind, weights):
    from arctanpoly.checks import run_suite

    def nudged(n):
        rows = weights(n)
        if n == 9:
            num, den = rows[1]  # j = 3
            rows[1] = (num + 1, den)
        return rows

    key = (kind, BuildMethod.MONIC_BERNOULLI)
    monkeypatch.setitem(fam._ROUTES, key, (fam._monic_bernoulli, nudged))
    monkeypatch.setattr(fam, "_prefix_cache", {})
    failing = [(row.check, row.n) for row in run_suite("cross", 20) if not row.passed]
    # step 9 builds member 10, and every later member reads it
    assert failing == [(f"{kind.value}[recurrence==monic-bernoulli]", n) for n in range(10, 21)]


@pytest.mark.parametrize(
    "kind, method",
    [
        (SequenceKind.BETA, BuildMethod.RECURRENCE),
        (SequenceKind.ALPHA, BuildMethod.RECURRENCE),
    ],
)
def test_integer_three_term_routes_hand_out_canonical_ints(monkeypatch, kind, method):
    monkeypatch.setattr(fam, "_prefix_cache", {})
    oracle = _comb_beta if kind is SequenceKind.BETA else _comb_alpha
    for n, p in enumerate(build_sequence(kind, 120, method)):
        assert p.coefficients == tuple(oracle(n))
        assert all(type(c) is int for c in p.coefficients)
