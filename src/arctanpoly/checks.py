"""Named verification suites over every identity the library materializes.

Each suite yields deterministic (check, n, passed, detail) rows; the CLI
maps any failure to a nonzero exit code.  Caps follow the module
contracts: exact Hessenberg work stops at 12, matching enumeration at 14,
root certification at 50.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import calculus, connections, hessenberg, series
from .chebyshev import alpha_from_chebyshev, beta_from_chebyshev
from .exact import GaussianInt, gaussian_pow
from .families import (
    MAX_MONIC_BERNOULLI_DEGREE,
    BuildMethod,
    SequenceKind,
    _first_difference,
    build_sequence,
    cross_validate,
)
from .highprec import sqrt, to_mpf, workprec
from .poly import Polynomial

SUITE_NAMES = ("identities", "cross", "connections", "hessenberg", "series")
HESSENBERG_CAP = 12
ENUMERATION_CAP = 14
ROOT_CAP = 50
RANDOM_SEED = 987654321


@dataclass(frozen=True)
class CheckRow:
    suite: str
    check: str
    n: int | None
    passed: bool
    detail: str = ""


def _row(suite, check, n, passed, detail=""):
    return CheckRow(suite, check, n, bool(passed), detail)


def _half_form(p: Polynomial):
    """(half, e) with p = x^e H(x^2): e = deg p mod 2, and half lists the
    coefficients of H ascending in y = x^2.

    None when p has a nonzero coefficient off its degree's parity or a
    non-integer one; the point check of ``_turan_rows`` does not apply then.
    """
    coeffs = p.coefficients
    if not coeffs:
        return (), 0
    e = (len(coeffs) - 1) % 2
    if any(coeffs[1 - e :: 2]) or not {int}.issuperset(map(type, coeffs)):
        return None
    return coeffs[e::2], e


def _pack(half, s: int) -> int:
    """H(2^s) = sum_k half[k] 2^(s k), by Horner from the top coefficient."""
    acc = 0
    for h in reversed(half):
        acc = (acc << s) + h
    return acc


def _turan_point(halves, max_n: int) -> int:
    """The exponent S of the point y = 2^S at which the Turan rows are decided.

    Row n asks whether G(y) = 0, where each member is x^e H(x^2), e its
    degree mod 2, m = n for beta and n-1 for alpha, and

        G(y) = y^e_n H_n^2 - y^((e_(n-1) + e_(n+1))/2) H_(n-1) H_(n+1) - (1+y)^m.

    Let B be the largest bit length of a half-form coefficient and L the
    longest half form.  A coefficient of either product is a sum of at most
    L terms, each below 2^(2B) in magnitude, so the two products together
    stay below 2L 2^(2B) <= 2^(2B + bitlen(L) + 1), and C(m, k) <= 2^max_n.
    So every |g_k| < 2^(2B + bitlen(L) + 1) + 2^max_n <= 2^S for

        S = max(2B + bitlen(L) + 1, max_n) + 1.

    Lemma: if every |g_k| < 2^S and G(2^S) = 0, then G = 0.  Otherwise let
    g_j be the lowest nonzero coefficient: G(2^S) = 2^(S j) (g_j + 2^S c)
    for an integer c, so 2^S would divide g_j, and 0 < |g_j| < 2^S.
    """
    present = [half for half, _ in filter(None, halves)]
    bits = max((max(map(abs, half), default=0).bit_length() for half in present), default=0)
    length = max(map(len, present), default=0)
    return max(2 * bits + length.bit_length() + 1, max_n) + 1


def _turan_rows(betas: list, alphas: list) -> list[tuple[CheckRow, CheckRow]]:
    """The turan[beta] and turan[alpha] rows, (beta_n^2 - beta_(n-1) beta_(n+1)
    = (1+x^2)^n and alpha_n^2 - alpha_(n-1) alpha_(n+1) = (1+x^2)^(n-1)), for
    n = 1 .. len(betas) - 2, listed by n - 1.

    Each row is decided by one integer comparison at y = 2^S of
    ``_turan_point``, whose lemma makes a pass there a proof.  The exponents
    come from each member's own degree: when e_(n-1) + e_(n+1) is odd and both
    factors are nonzero, their product is x times an even polynomial, which
    no even polynomial equals.  A row that does not pass at the point, or
    whose members have no half form, is decided by the polynomial products,
    which also name its first differing coefficient.
    """
    max_n = len(betas) - 2
    families = (("beta", betas, 0), ("alpha", alphas, 1))
    halves = [[_half_form(p) for p in members] for _, members, _ in families]
    s = _turan_point([h for column in halves for h in column], max_n)
    columns = []
    for (name, members, offset), column in zip(families, halves):
        packs = [None if h is None else (_pack(h[0], s), h[1]) for h in column]
        shell = (1 + (1 << s)) ** (1 - offset)  # (1+y)^m at y = 2^S, m = n - offset
        rows = []
        for n in range(1, max_n + 1):
            passed = _turan_at_point(packs[n - 1], packs[n], packs[n + 1], shell, s)
            detail = ""
            if not passed:
                passed, detail = _turan_by_products(name, members, n, n - offset)
            rows.append(_row("identities", f"turan[{name}]", n, passed, detail))
            shell += shell << s
        columns.append(rows)
    return list(zip(*columns))


def _turan_at_point(before, member, after, shell: int, s: int) -> bool:
    if before is None or member is None or after is None:
        return False
    (h_before, e_before), (h, e), (h_after, e_after) = before, member, after
    if (e_before + e_after) % 2 and h_before and h_after:
        return False
    return (h * h << s * e) - (h_before * h_after << s * ((e_before + e_after) // 2)) == shell


def _turan_by_products(name: str, members: list, n: int, m: int) -> tuple[bool, str]:
    left = members[n] * members[n] - members[n - 1] * members[n + 1]
    right = Polynomial((1, 0, 1)) ** m
    if left == right:
        return True, ""
    label = f"{name}_{n}^2 - {name}_{n - 1} {name}_{n + 1}"
    return False, _first_difference(label, left, f"(1+x^2)^{m}", right)


def suite_identities(max_n: int) -> list[CheckRow]:
    rows = []
    betas = build_sequence(SequenceKind.BETA, max_n + 1)
    # alpha by its explicit sums: the recurrence route builds alpha from these
    # betas by the interchange relation, on which interchange[beta-from-alpha]
    # would restate beta's recurrence and could not fail
    alphas = build_sequence(SequenceKind.ALPHA, max_n + 1, BuildMethod.EXPLICIT)
    x_one_plus_sq = Polynomial.x() * Polynomial((1, 0, 1))
    sq_minus_one = Polynomial((-1, 0, 1))
    turan = _turan_rows(betas, alphas)

    for n in range(max_n + 1):
        beta_n, alpha_n = betas[n], alphas[n]
        lead_ok = (
            beta_n.leading_coefficient == n + 1
            and alpha_n.leading_coefficient == 1
            and beta_n.degree == n
            and alpha_n.degree == n
        )
        rows.append(_row("identities", "degree-and-leading", n, lead_ok))

        rows.append(
            _row("identities", "ode[beta]", n, not calculus.ode_residual(SequenceKind.BETA, n))
        )
        rows.append(
            _row("identities", "ode[alpha]", n, not calculus.ode_residual(SequenceKind.ALPHA, n))
        )

        if n >= 1:
            rows.append(
                _row(
                    "identities",
                    "derivative[beta]",
                    n,
                    beta_n.differentiate() == (n + 1) * betas[n - 1],
                )
            )
            rows.append(
                _row(
                    "identities",
                    "derivative[alpha]",
                    n,
                    alpha_n.differentiate() == n * alphas[n - 1],
                )
            )
            rows.append(
                _row(
                    "identities",
                    "interchange[beta-from-alpha]",
                    n,
                    beta_n == x_one_plus_sq * alphas[n - 1] - sq_minus_one * alpha_n,
                )
            )
            rows.extend(turan[n - 1])

        rows.append(
            _row("identities", "chebyshev-bridge[beta]", n, beta_from_chebyshev(n) == beta_n)
        )
        rows.append(
            _row("identities", "chebyshev-bridge[alpha]", n, alpha_from_chebyshev(n) == alpha_n)
        )

    for kind in (SequenceKind.BETA, SequenceKind.ALPHA):
        for n in range(1, min(max_n, ROOT_CAP) + 1):
            rs = calculus.roots(kind, n)
            rows.append(_row("identities", f"roots[{kind.value}]", n, rs.all_certified))
    return rows


def suite_cross(max_n: int) -> list[CheckRow]:
    rows = []
    for kind in SequenceKind:
        for n, ma, mb, equal, detail in cross_validate(kind, max_n).rows:
            rows.append(_row("cross", f"{kind.value}[{ma.value}=={mb.value}]", n, equal, detail))
    return rows


def suite_hessenberg(max_n: int) -> list[CheckRow]:
    rows = []
    spot = {(1, 1): Fraction(1, 3), (3, 3): Fraction(2, 15), (5, 5): Fraction(16, 63)}
    for (n, j), expected in spot.items():
        if n <= max_n:
            rows.append(
                _row("hessenberg", f"bracket({n},{j})", n, hessenberg.bracket(n, j) == expected)
            )
    for n in range(1, min(max_n, HESSENBERG_CAP) + 1):
        cp = hessenberg.charpoly(hessenberg.build_H(n))
        rows.append(
            _row("hessenberg", "charpoly-is-monic-family", n, cp == hessenberg.monic_reference(n))
        )
    return rows


def suite_series(max_n: int) -> list[CheckRow]:
    rows = []
    for kind, term_cap in ((series.SeriesKind.EULER, 45), (series.SeriesKind.BETA_EXPANSION, 90)):
        value, used = series.pi_approx(kind, 1e-10)
        ok = abs(value - 3.14159265358979323846) < 1e-10 and used <= term_cap
        rows.append(
            _row("series", f"pi[{kind.value}]", None, ok, f"{float(value):.12f} in {used} terms")
        )
    for x in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
        for kind in series.SeriesKind:
            report = series.partial_sum(kind, x, 80)
            rows.append(
                _row(
                    "series",
                    f"converges[{kind.value}](x={x})",
                    None,
                    report.final_error < 1e-10,
                    f"final error {report.final_error:.3e}",
                )
            )
            errors = [row.abs_error for row in report.rows]
            if kind is series.SeriesKind.EULER:
                # positive terms at x > 0: the measured error itself decays
                ok = all(errors[n + 1] <= errors[n] for n in range(5, len(errors) - 1))
                rows.append(_row("series", f"monotone-error[{kind.value}](x={x})", None, ok))
            else:
                # sign blocks make the pointwise error oscillate; what decays
                # monotonically is the proven envelope q^(n+2)/(sqrt(1+x^2)(1-q))
                with workprec(256):
                    q = abs(to_mpf(x)) / sqrt(1 + to_mpf(x) ** 2)
                    envelope_ok = all(
                        errors[n]
                        <= q ** (n + 2) / (sqrt(1 + to_mpf(x) ** 2) * (1 - q))
                        for n in range(len(errors))
                    )
                rows.append(
                    _row("series", f"error-envelope[{kind.value}](x={x})", None, envelope_ok)
                )
    return rows


def _tan_multiple_matches(ratio, n: int, x: Fraction) -> bool:
    """Exact tan(n arctan x) = B/A with (q + ip)^n = A + iB for x = p/q.

    Cross-multiplied, so a pole of the ratio must be a zero of A and back.
    """
    power = gaussian_pow(GaussianInt(x.denominator, x.numerator), n)
    num, den = ratio.numerator.evaluate(x), ratio.denominator.evaluate(x)
    return num * power.re == power.im * den and (den == 0) == (power.re == 0)


def suite_connections(max_n: int) -> list[CheckRow]:
    rows = []
    x = Polynomial.x()
    # both routes are ring expressions in h, so agreement at h = x is the
    # identity in Q[h]; any other h is a substitution into it
    method = connections.FibonacciMethod
    sequences = (("fibonacci", connections.fibonacci_poly), ("lucas", connections.lucas_poly))
    for n in range(1, min(max_n, 12) + 1):
        for name, fn in sequences:
            ok = fn(n, x, method.RECURRENCE_ORACLE) == fn(n, x, method.CLOSED_FORM)
            rows.append(_row("connections", f"{name}-methods[h=x]", n, ok))
    fib_numbers = [
        connections.fibonacci_poly(n, x).evaluate(Fraction(1)) for n in range(1, 7)
    ]
    rows.append(
        _row("connections", "fibonacci-numbers", None, fib_numbers == [1, 1, 2, 3, 5, 8])
    )
    lucas_numbers = [connections.lucas_poly(n, x).evaluate(Fraction(1)) for n in range(1, 6)]
    rows.append(_row("connections", "lucas-numbers", None, lucas_numbers == [1, 3, 4, 7, 11]))

    cap = min(max_n, ENUMERATION_CAP)
    for family, start in ((connections.GraphFamily.PATH, 1), (connections.GraphFamily.CYCLE, 3)):
        for n in range(start, cap + 1):
            graph = connections.GraphKind(family, n)
            built = [
                connections.matching_poly(graph, method)
                for method in connections.MatchingMethod
            ]
            ok = built[0] == built[1] == built[2]
            rows.append(_row("connections", f"matching[{family.value}]", n, ok))

    rng = random.Random(RANDOM_SEED)
    points = [Fraction(rng.randint(-999, 999), 1000) for _ in range(20)]
    for n in range(1, min(max_n, 30) + 1):
        ratio = connections.tan_multiple(n)
        wrong = next((pt for pt in points if not _tan_multiple_matches(ratio, n, pt)), None)
        detail = "" if wrong is None else f"differs from Im/Re((1+ix)^{n}) at x={wrong}"
        rows.append(_row("connections", "tan-multiple-spot", n, wrong is None, detail))

    betas = build_sequence(SequenceKind.BETA, min(max_n, 30))
    # alpha by its explicit sums, as in the identities suite: on alphas built
    # from these betas the row below is beta's recurrence and could not fail
    alphas = build_sequence(SequenceKind.ALPHA, min(max_n, 30), BuildMethod.EXPLICIT)
    one_plus_sq = Polynomial((1, 0, 1))
    # the odd-n form, beta_n - x beta_{n-1} == alpha_n, is how alpha's
    # recurrence route builds its members, which the cross suite compares
    for n in range(2, min(max_n, 30) + 1, 2):
        # x - (1+x^2) alpha_{n-1}/alpha_n  ==  -beta_{n-1}/alpha_n
        ok = x * alphas[n] - one_plus_sq * alphas[n - 1] == -betas[n - 1]
        rows.append(_row("connections", "tan-alternative-form", n, ok))
    return rows


def run_suite(name: str, max_n: int) -> list[CheckRow]:
    # both bounds before any suite runs: cross builds the monic-bernoulli
    # members up to max-n, and both it and identities grow as about max-n^3
    # (CPU in process on a shared 2-vCPU host: cross 0.11 s at max-n 200 and
    # 1.1 s at 400, identities 0.2 s and 2.0 s)
    if max_n < 0:
        raise ValueError(f"max-n must be non-negative, got {max_n}")
    if max_n > MAX_MONIC_BERNOULLI_DEGREE:
        raise ValueError(
            f"max-n must be at most MAX_MONIC_BERNOULLI_DEGREE = "
            f"{MAX_MONIC_BERNOULLI_DEGREE}, got {max_n}"
        )
    if name == "all":
        rows = []
        for suite in SUITE_NAMES:
            rows.extend(run_suite(suite, max_n))
        return rows
    if name == "identities":
        return suite_identities(max_n)
    if name == "cross":
        return suite_cross(max_n)
    if name == "connections":
        return suite_connections(max_n)
    if name == "hessenberg":
        return suite_hessenberg(max_n)
    if name == "series":
        return suite_series(max_n)
    raise ValueError(f"unknown suite: {name}")
