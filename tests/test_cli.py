"""Command-line behavior: output shapes, exit codes, round trips."""
import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arctanpoly import checks, families, series
from arctanpoly.cli import _decimal, main
from arctanpoly.exact import format_rational
from arctanpoly.families import BuildMethod, SequenceKind
from arctanpoly.highprec import mpf_to_fraction, nstr, to_mpf, workprec
from arctanpoly.poly import Polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--kind", "beta", "--n", "5")
    assert code == 0
    assert out.strip() == "6x^5 - 20x^3 + 6x"


def test_poly_json_alpha_zero(capsys):
    code, out, _ = run_cli(capsys, "poly", "--kind", "alpha", "--n", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["1"]
    assert payload["kind"] == "alpha"


def test_poly_json_monic(capsys):
    code, out, _ = run_cli(capsys, "poly", "--kind", "pi", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["-1/3", "0", "1"]


def test_poly_json_round_trip(capsys):
    from arctanpoly.exact import parse_rational

    code, out, _ = run_cli(capsys, "poly", "--kind", "beta", "--n", "7", "--format", "json")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert [format_rational(parse_rational(c)) for c in coeffs] == coeffs


def test_poly_invalid_pair_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "poly", "--kind", "beta", "--n", "3", "--method", "monic-bernoulli"
    )
    assert code == 2
    assert "monic-bernoulli" in err and "beta" in err


@pytest.mark.parametrize("n", [0, 1, 9, 40])
def test_poly_alpha_interchange_prints_what_every_alpha_route_prints(capsys, n):
    printed = {}
    for method in sorted(m.value for m in families.SUPPORTED_METHODS[SequenceKind.ALPHA]):
        argv = ["poly", "--kind", "alpha", "--n", str(n), "--method", method, "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        printed[method] = json.loads(out)["coeffs"]
    # the recurrence route is the interchange on beta's recurrence members
    assert "recurrence" in printed
    assert all(coeffs == printed["recurrence"] for coeffs in printed.values())


@pytest.mark.parametrize("method", ["determinant", "matrix-power", "interchange"])
def test_poly_removed_method_is_a_usage_error(capsys, method):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--kind", "beta", "--n", "3", "--method", method])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, method", [("beta", "derivative-recurrence"), ("p", "complex-power")]
)
def test_poly_rescaling_route_is_an_unsupported_pair(capsys, kind, method):
    # each only rescaled another route of its family, so neither is built
    code, out, err = run_cli(capsys, "poly", "--kind", kind, "--n", "3", "--method", method)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: no {method} construction for kind {kind}"]


ONE_SHOT_ROUTE = {
    "beta": "hypergeometric",
    "alpha": "hypergeometric",
    "p": "explicit",
    "pi": "recurrence",
}


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ONE_SHOT_ROUTE for n in (0, 1, 2, 17, 80)]
    + [("beta", 1450), ("alpha", 1450)],
)
def test_poly_one_shot_route_matches_the_library_default(capsys, kind, n):
    member = families.build(SequenceKind(kind), n)
    code, out, _ = run_cli(capsys, "poly", "--kind", kind, "--n", str(n))
    assert code == 0
    assert out == member.pretty() + "\n"
    code, out, _ = run_cli(capsys, "poly", "--kind", kind, "--n", str(n), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": kind,
        "n": n,
        "method": ONE_SHOT_ROUTE[kind],
        "coeffs": member.coefficient_strings(),
    }


def test_poly_json_names_an_explicit_method(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--kind", "beta", "--n", "4", "--method", "recurrence", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["method"] == "recurrence"


def test_poly_one_shot_route_leaves_the_prefix_caches_alone(capsys, monkeypatch):
    # beta's recurrence prefix is the one that alpha's and pi's recurrence
    # routes read too
    key = (SequenceKind.BETA, BuildMethod.RECURRENCE)
    generator, *args = families._ROUTES[key]
    # an empty prefix, so an earlier test cannot have cached member 300
    monkeypatch.setitem(families._prefix_cache, key, ([], generator(*args)))
    code, out, _ = run_cli(capsys, "poly", "--kind", "beta", "--n", "300")
    assert code == 0 and out.startswith("301x^300 - ")
    code, out, _ = run_cli(capsys, "poly", "--kind", "alpha", "--n", "300")
    assert code == 0 and out.startswith("x^300 - ")
    assert len(families._prefix_cache[key][0]) == 0


def test_poly_method_help_names_each_default(capsys):
    with pytest.raises(SystemExit):
        main(["poly", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for kind, method in ONE_SHOT_ROUTE.items():
        assert f"{kind}: {method}" in help_text


def test_deriv_examples(capsys):
    code, out, _ = run_cli(capsys, "deriv", "--func", "arctan", "--n", "3", "--x", "0")
    assert code == 0
    assert out.strip() == "-2"
    code, out, _ = run_cli(capsys, "deriv", "--func", "arctan", "--n", "1", "--x", "0")
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "deriv", "--func", "artanh", "--n", "2", "--x", "1/2")
    assert out.strip() == "16/9"


@pytest.mark.parametrize(
    "command, option, value, first_line",
    [
        (["deriv", "--func", "arctan", "--n", "2"], "--x", "-1/3", "27/50"),
        (["connect", "--what", "fibonacci", "--n", "3"], "--h", "-1,2", "4x^2 - 4x + 2"),
        (
            ["series", "--kind", "beta", "--terms", "2"],
            "--x",
            "-5/2",
            "target arctan(-5/2) = -1.1902899496825317",
        ),
    ],
)
def test_negative_value_as_a_separate_argument(capsys, command, option, value, first_line):
    # "--x -1/3" reads as "--x=-1/3", though argparse's own negative-number
    # test accepts only -<int> and -<decimal>
    separate = run_cli(capsys, *command, option, value)
    assert separate == run_cli(capsys, *command, f"{option}={value}")
    code, out, err = separate
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line


def test_deriv_json(capsys):
    code, out, _ = run_cli(
        capsys, "deriv", "--func", "arctan", "--n", "2", "--x", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["exact"] == "-1/2"
    assert payload["decimal"].startswith("-0.5")


@pytest.mark.parametrize(
    "value, shown",
    [
        (Fraction(0), "0.0"),
        (Fraction(1), "1.0"),
        (Fraction(-1, 3), "-0.333333333333"),
        (Fraction(10**20, 7), "1.42857142857e+19"),
        (Fraction(1, 10**30), "1.0e-30"),
        (Fraction(123456789012345), "1.23456789012e+14"),
        (Fraction(200000000000, 3), "66666666666.7"),
        (Fraction(5, 2), "2.5"),
        (Fraction(3, 200), "0.015"),
        (Fraction(1, 8), "0.125"),
    ],
)
def test_decimal_keeps_its_notation(value, shown):
    assert _decimal(value) == shown


def _leading_exponent(v: Fraction) -> int:
    # e with 10^e <= |v| < 10^(e+1), for |v| >= 10^-60
    return len(str(abs(v.numerator) * 10**60 // v.denominator)) - 61


def _check_against_nstr(v: Fraction) -> bool:
    """Compare _decimal(v) with nstr of the 96-bit mpf of v, and say whether they differ.

    Where they differ, the new digits must be the correctly rounded ones and
    the old ones a double rounding: nstr rounds the 96-bit mpf, which its
    decimal conversion first cuts toward zero to 59 bits, so the 12-digit
    boundary between the two strings must lie between v and that
    intermediate.
    """
    ours = _decimal(v)
    with workprec(96):
        theirs = nstr(to_mpf(v), 12)
        intermediate = abs(mpf_to_fraction(to_mpf(v)))
    if ours == theirs:
        return False
    unit = Fraction(10) ** (_leading_exponent(v) - 11)
    ours_value, theirs_value = Fraction(ours), Fraction(theirs)
    assert (ours_value / unit).denominator == 1, (v, ours)
    assert abs(v - ours_value) <= unit / 2, (v, ours)  # correctly rounded
    assert abs(ours_value - theirs_value) == unit, (v, ours, theirs)  # a neighbour
    boundary = abs(ours_value + theirs_value) / 2
    cut = intermediate * (1 - Fraction(1, 2**58))
    assert min(abs(v), cut) <= boundary <= max(abs(v), intermediate), (v, ours, theirs)
    return True


def test_decimal_sweep_against_mpmath_nstr():
    bases = {Fraction(p, q) for p in range(-30, 31) for q in range(1, 31)}
    scales = (-40, -13, -12, -1, 0, 1, 11, 12, 13, 40)
    values = {b * Fraction(10) ** k for b in bases for k in scales}
    assert len(values) > 5000
    for v in values:
        _check_against_nstr(v)


@pytest.mark.parametrize(
    "value, ours, theirs",
    [
        # exact ties at the 13th digit round away from zero; nstr's
        # intermediate lands on the near side of the tie
        (Fraction(-9999999999995, 10**13), "-1.0", "-0.999999999999"),
        (Fraction(10**12 + 5, 10**12), "1.00000000001", "1.0"),
        # above a tie by less than the 96-bit rounding unit
        (Fraction(10**12 + 5, 10**12) + Fraction(1, 10**40), "1.00000000001", "1.0"),
    ],
)
def test_decimal_rounds_where_nstr_double_rounds(value, ours, theirs):
    assert _decimal(value) == ours
    with workprec(96):
        assert nstr(to_mpf(value), 12) == theirs
    assert _check_against_nstr(value)


def test_deriv_pole_exits_2(capsys):
    code, _, err = run_cli(capsys, "deriv", "--func", "artanh", "--n", "2", "--x", "1")
    assert code == 2
    assert "pole" in err.lower()


def test_deriv_result_size_cap_exits_2(capsys):
    # -5/6 at order 18078 is the last value under calculus.MAX_RESULT_BITS;
    # only the refused order just past it runs here
    for func in ("arctan", "artanh"):
        code, out, err = run_cli(capsys, "deriv", "--func", func, "--n", "18079", "--x", "-5/6")
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "MAX_RESULT_BITS" in lines[0]


def test_deriv_float_x_rejected(capsys):
    code, _, err = run_cli(capsys, "deriv", "--func", "arctan", "--n", "1", "--x", "0.5")
    assert code == 2


def test_verify_identities_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "8")
    assert code == 0
    assert "checks passed" in out


def test_verify_cross_trivial(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cross", "--max-n", "1")
    assert code == 0


def test_verify_hessenberg(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hessenberg", "--max-n", "8")
    assert code == 0


@pytest.mark.parametrize("max_n", [0, 1, 4, 12])
def test_verify_hessenberg_stays_within_max_n(capsys, max_n):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hessenberg", "--max-n", str(max_n), "--format", "json"
    )
    assert code == 0
    ns = [row["n"] for row in json.loads(out)]
    assert max(ns, default=0) == max_n
    if max_n == 0:
        assert ns == []
        _, text, _ = run_cli(capsys, "verify", "--suite", "hessenberg", "--max-n", "0")
        assert text == "0/0 checks passed\n"


@pytest.mark.parametrize("max_n", [0, 3, 12])
def test_verify_connections_fibonacci_rows_stay_within_max_n(capsys, max_n):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "connections", "--max-n", str(max_n), "--format", "json"
    )
    assert code == 0
    for family in ("fibonacci", "lucas"):
        name = f"{family}-methods[h=x]"
        ns = [row["n"] for row in json.loads(out) if row["check"] == name]
        assert ns == list(range(1, max_n + 1)), name


def test_verify_has_no_hessenberg_cap_option(capsys):
    # the exact charpoly rows stop at checks.HESSENBERG_CAP; even that value
    # is refused as an option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "hessenberg", "--max-n", "3", "--hessenberg-cap", "12"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: arctanpoly ")
    assert "error: unrecognized arguments: --hessenberg-cap 12" in captured.err


@pytest.mark.parametrize("suite, max_n", [("series", "-3"), ("cross", "-1")])
def test_verify_rejects_negative_max_n(capsys, suite, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert lines == [f"error: max-n must be non-negative, got {max_n}"]


def test_poly_monic_bernoulli_past_the_cap_exits_2(capsys, monkeypatch):
    # 400 is families.MAX_MONIC_BERNOULLI_DEGREE; nothing is stepped
    monkeypatch.setattr(families, "_prefix_cache", {})
    code, out, err = run_cli(
        capsys, "poly", "--kind", "alpha", "--method", "monic-bernoulli", "--n", "401"
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "MAX_MONIC_BERNOULLI_DEGREE = 400" in lines[0] and "recurrence" in lines[0]
    assert families._prefix_cache == {}


@pytest.mark.parametrize("suite", ("all",) + checks.SUITE_NAMES)
def test_verify_past_the_monic_bernoulli_cap_exits_2_before_any_suite(capsys, monkeypatch, suite):
    # one bound for every suite; only the refused value just past it is run
    monkeypatch.setattr(families, "_prefix_cache", {})
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "401")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: max-n must be at most MAX_MONIC_BERNOULLI_DEGREE = 400, got 401"
    ]
    assert families._prefix_cache == {}


def test_verify_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cross", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert all(row["passed"] for row in rows)
    assert {"suite", "check", "n", "passed", "detail"} <= set(rows[0])


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hessenberg", "--max-n", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "suite,check,n,passed,detail"


def test_verify_csv_rows_parse_into_five_fields(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hessenberg", "--max-n", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 5 for row in rows)
    assert ["hessenberg", "bracket(1,1)", "1", "pass", ""] in rows
    assert '"bracket(3,3)"' in out
    assert "hessenberg,charpoly-is-monic-family,1,pass,\n" in out  # no comma, no quotes


def test_verify_csv_failed_row_detail_parses_into_one_field(capsys, monkeypatch):
    detail = "first difference at x^1: recurrence gives -4, explicit gives 5"
    row = checks.CheckRow("cross", "beta[recurrence==explicit]", 3, False, detail)
    monkeypatch.setattr(checks, "run_suite", lambda *args: [row])
    code, out, _ = run_cli(capsys, "verify", "--suite", "cross", "--max-n", "5", "--format", "csv")
    assert code == 1
    assert list(csv.reader(io.StringIO(out))) == [
        ["suite", "check", "n", "passed", "detail"],
        ["cross", "beta[recurrence==explicit]", "3", "FAIL", detail],
    ]


def test_verify_rows_are_one_per_fact():
    # a (suite, check, n) key that repeats would be a row restating another
    keys = [(row.suite, row.check, row.n) for row in checks.run_suite("all", 20)]
    assert len(keys) == len(set(keys))
    # the README states the row count of verify --suite all --max-n 150
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`verify --suite all --max-n 150`\s+runs ([\d,]+) rows", readme)
    assert int(stated.group(1).replace(",", "")) == len(checks.run_suite("all", 150))


def test_suites_read_alpha_by_its_explicit_sums(monkeypatch):
    # alpha's recurrence route is the interchange on beta's recurrence
    # members; on those alphas, interchange[beta-from-alpha] and
    # tan-alternative-form restate beta's recurrence and could not fail
    methods = []
    real = checks.build_sequence

    def spy(kind, n_max, method=None):
        if kind is SequenceKind.ALPHA:
            methods.append(method)
        return real(kind, n_max, method)

    monkeypatch.setattr(checks, "build_sequence", spy)
    rows = checks.suite_identities(6) + checks.suite_connections(6)
    assert {"interchange[beta-from-alpha]", "tan-alternative-form"} <= {r.check for r in rows}
    assert methods == [BuildMethod.EXPLICIT, BuildMethod.EXPLICIT]


def test_a_fault_in_the_explicit_alpha_fails_the_rows_that_read_it(monkeypatch):
    key = (SequenceKind.ALPHA, BuildMethod.EXPLICIT)
    explicit = families._MEMBERS[key]

    def perturbed(n):
        raw = explicit(n)
        if n == 7:
            raw[3] += 1  # alpha_7 = x^7 - 21x^5 + 35x^3 - 7x
        return raw

    monkeypatch.setitem(families._MEMBERS, key, perturbed)
    rows = checks.suite_identities(10) + checks.suite_cross(10)
    failed = {row.check for row in rows if not row.passed and row.n == 7}
    assert {
        "derivative[alpha]",
        "turan[alpha]",
        "chebyshev-bridge[alpha]",
        "interchange[beta-from-alpha]",
        "alpha[recurrence==explicit]",
    } <= failed


def test_a_cross_fault_hides_no_later_row(monkeypatch):
    clean = [(row.suite, row.check, row.n) for row in checks.run_suite("all", 20)]

    def perturbed():
        for n, p in enumerate(families._three_term([1], [2])):
            yield p + Polynomial((0, 0, 0, 0, 0, 1)) if n == 7 else p

    monkeypatch.setattr(families, "_prefix_cache", {})
    monkeypatch.setitem(
        families._ROUTES, (SequenceKind.BETA, BuildMethod.RECURRENCE), (perturbed,)
    )
    rows = checks.run_suite("all", 20)
    assert [(row.suite, row.check, row.n) for row in rows] == clean
    failed = [row for row in rows if row.suite == "cross" and not row.passed]
    # beta's recurrence route is every beta, alpha and pi cross row's reference
    assert {(row.check, row.n) for row in failed} >= {
        ("beta[recurrence==explicit]", 7),
        ("beta[recurrence==hypergeometric]", 7),
        ("alpha[recurrence==explicit]", 8),
        ("pi[recurrence==monic-bernoulli]", 7),
    }
    assert all(row.detail.startswith("first difference at x^") for row in failed)


def test_verify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "series", "--max-n", "5")
    _, second, _ = run_cli(capsys, "verify", "--suite", "series", "--max-n", "5")
    assert first == second


def test_series_csv(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--kind", "euler", "--x", "1", "--terms", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,term,partial_sum,abs_error"
    assert lines[1].startswith("0,1/2,1/2,")


@pytest.mark.parametrize(
    "kind, x, terms", [("euler", "1/3", 1), ("beta", "7", 1), ("beta", "-5/2", 40)]
)
def test_series_streamed_output_is_the_whole_document(capsys, kind, x, terms):
    # csv and json are written row by row; the bytes must be those of the
    # table joined at once and of one json.dumps of the whole report
    series_kind = series.SeriesKind.EULER if kind == "euler" else series.SeriesKind.BETA_EXPANSION
    report = series.partial_sum(series_kind, Fraction(x), terms)
    rows = [(format_rational(r.term), format_rational(r.partial_sum), r) for r in report.rows]
    csv_text = "\n".join(
        ["n,term,partial_sum,abs_error"]
        + [f"{r.n},{term},{total},{r.abs_error!r}" for term, total, r in rows]
    )
    json_text = json.dumps(
        {
            "kind": series_kind.value,
            "x": format_rational(report.x),
            "target": report.target,
            "slow_convergence": report.slow_convergence,
            "rows": [
                {"n": r.n, "term": term, "partial_sum": total, "abs_error": r.abs_error}
                for term, total, r in rows
            ],
        }
    )
    argv = ("series", "--kind", kind, f"--x={x}", "--terms", str(terms), "--format")
    assert run_cli(capsys, *argv, "csv") == (0, csv_text + "\n", "")
    assert run_cli(capsys, *argv, "json") == (0, json_text + "\n", "")


def test_series_refuses_terms_past_the_cap(capsys):
    code, out, err = run_cli(
        capsys, "series", "--kind", "beta", "--x", "1", "--terms", "100000000"
    )
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: terms must be at most {series.MAX_TERMS}, got 100000000"
    ]


def test_series_refuses_a_sum_past_the_size_cap(capsys):
    # 1369 terms at this x is the last table under series.MAX_SUM_BITS; only
    # the refused count just past it runs here
    code, out, err = run_cli(
        capsys, "series", "--kind", "euler", "--x", "1000000007/3", "--terms", "1370"
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "MAX_SUM_BITS" in lines[0]


def test_pi_command(capsys):
    code, out, _ = run_cli(capsys, "pi", "--method", "euler", "--tol", "1e-10")
    assert code == 0
    assert out.startswith("3.1415926535")
    assert "terms" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_pi_rejects_non_finite_or_zero_tolerance(capsys, tol):
    code, out, err = run_cli(capsys, "pi", "--method", "beta", "--tol", tol)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_pi_names_a_tolerance_literal_that_underflows(capsys):
    code, out, err = run_cli(capsys, "pi", "--method", "euler", "--tol", "1e-400")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: --tol 1e-400 underflows to 0"]


def test_roots_command(capsys):
    code, out, _ = run_cli(capsys, "roots", "--kind", "beta", "--n", "2")
    assert code == 0
    assert "cot(1*pi/3)" in out
    assert "0.577350269" in out
    assert "certified" in out


@pytest.mark.parametrize("kind", ["beta", "alpha"])
def test_roots_above_the_degree_cap_exits_2(capsys, monkeypatch, kind):
    # 1000 is calculus.MAX_ROOT_DEGREE; the refusal comes before any member is built
    monkeypatch.setattr(families, "_prefix_cache", {})
    code, out, err = run_cli(capsys, "roots", "--kind", kind, "--n", "1001")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "MAX_ROOT_DEGREE" in lines[0]
    assert families._prefix_cache == {}


@pytest.mark.parametrize(
    "kind, line",
    [
        ("beta", "k=2: cot(2*pi/4) = 0.0 [certified]"),
        ("alpha", "k=2: cot(3*pi/6) = 0.0 [certified]"),
    ],
)
def test_roots_prints_the_odd_middle_node_as_exact_zero(capsys, kind, line):
    code, out, _ = run_cli(capsys, "roots", "--kind", kind, "--n", "3")
    assert code == 0
    assert out.splitlines()[1] == line


def test_connect_matching(capsys):
    code, out, _ = run_cli(capsys, "connect", "--what", "matching-path", "--n", "3")
    assert code == 0
    assert out.strip() == "x^3 - 2x"


def test_connect_tan(capsys):
    code, out, _ = run_cli(capsys, "connect", "--what", "tan", "--n", "1")
    assert code == 0
    assert out.strip() == "(x) / (1)  [odd n]"


def test_connect_tan_rejects_a_method(capsys):
    code, out, err = run_cli(capsys, "connect", "--what", "tan", "--n", "3", "--method", "bogus")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "what, methods",
    [
        ("matching-path", "enumeration, closed-form, chebyshev-transform"),
        ("matching-cycle", "enumeration, closed-form, chebyshev-transform"),
        ("fibonacci", "recurrence, closed-form"),
        ("lucas", "recurrence, closed-form"),
    ],
)
def test_connect_bad_method_names_the_valid_ones(capsys, what, methods):
    code, out, err = run_cli(capsys, "connect", "--what", what, "--n", "3", "--method", "bogus")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: --method for --what {what} must be one of {methods}, got 'bogus'"
    ]


def test_connect_fibonacci_with_argument(capsys):
    code, out, _ = run_cli(capsys, "connect", "--what", "fibonacci", "--n", "4", "--h", "0,1")
    assert code == 0
    assert out.strip() == "x^3 + 2x"


@pytest.mark.parametrize("what, line", [("fibonacci", "x^3 + 2x"), ("lucas", "x^4 + 4x^2 + 2")])
def test_connect_h_defaults_to_x(capsys, what, line):
    assert run_cli(capsys, "connect", "--what", what, "--n", "4") == (0, line + "\n", "")


@pytest.mark.parametrize(
    "what, n", [("tan", "3"), ("matching-path", "3"), ("matching-cycle", "4")]
)
def test_connect_refuses_h_where_it_does_not_apply(capsys, what, n):
    code, out, err = run_cli(capsys, "connect", "--what", what, "--n", n, "--h", "1,2")
    assert (code, out) == (2, "")
    expected = f"error: --h applies only to --what fibonacci and lucas, not {what}"
    assert err.splitlines() == [expected]


def test_connect_enumeration_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "connect", "--what", "matching-path", "--n", "17")
    assert code == 2
    assert "capped" in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "arctanpoly.cli", "poly", "--kind", "beta", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "3x^2 - 1"


def test_closed_output_pipe_exits_141_quietly():
    # the output (about 110 kB) is larger than a pipe buffer, so the writer
    # is still printing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "arctanpoly.cli", "verify", "--suite", "cross", "--max-n", "120",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head == b'[{"suite":'
    assert code == 141
    assert err == b""


@pytest.mark.parametrize("precision", ["1", "0", "-5"])
def test_roots_has_no_precision_option(capsys, precision):
    # the working precision follows from n (highprec.node_precision)
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--kind", "beta", "--n", "3", "--precision", precision])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: arctanpoly ")
    assert f"error: unrecognized arguments: --precision {precision}" in captured.err


@contextlib.contextmanager
def _int_str_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit"
)


@needs_int_str_limit
def test_poly_prints_members_beyond_the_int_string_limit(capsys):
    from math import factorial

    with _int_str_limit(4300):
        code, out, _ = run_cli(capsys, "poly", "--kind", "p", "--n", "1500", "--format", "json")
        assert sys.get_int_max_str_digits() == 4300  # restored for the caller
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == 1501 and max(map(len, coeffs)) > 4300
    with _int_str_limit(0):
        assert coeffs[-1] == str(factorial(1500) * 1501)  # (-1)^n n! (n+1), n even


@needs_int_str_limit
def test_deriv_prints_values_beyond_the_int_string_limit(capsys):
    from arctanpoly.calculus import arctan_nth_derivative

    with _int_str_limit(4300):
        code, out, err = run_cli(capsys, "deriv", "--func", "arctan", "--n", "3000", "--x", "5/6")
        assert sys.get_int_max_str_digits() == 4300
    assert code == 0 and err == ""
    num, den = out.strip().split("/")
    assert len(num) > 4300
    with _int_str_limit(0):
        assert Fraction(int(num), int(den)) == arctan_nth_derivative(3000, Fraction(5, 6))


def test_oversized_rational_literal_exits_2(capsys):
    code, out, err = run_cli(capsys, "deriv", "--func", "arctan", "--n", "3", "--x", "1" * 5000)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# SHA-256 of whole printed outputs: the verify rows, two root sets and both
# Bernoulli routes.  A change meant only to make the library faster must
# print these bytes.
PINNED_OUTPUTS = {
    ("verify", "--suite", "all", "--max-n", "150", "--format", "csv"): (
        "ff92bdf0a889705dfd9a5435e7316579820c9291ecda9f67cc1a9fae38e741f3"
    ),
    ("roots", "--kind", "beta", "--n", "120"): (
        "920a0e7395a3d945d3d1765108629d08dcdd1dbe87ab38183e03a84e97333011"
    ),
    ("roots", "--kind", "alpha", "--n", "57"): (
        "18ec6a90b3b14db8f73d41ad5b36101495ff79d8707a8917c00f4a2bddcbb9c6"
    ),
    ("poly", "--kind", "alpha", "--n", "150", "--method", "monic-bernoulli", "--format", "json"): (
        "eb63cfedfa08306d8417046bcfaf0637f1386b5f056301f2408eb070fb5290aa"
    ),
    ("poly", "--kind", "pi", "--n", "150", "--method", "monic-bernoulli", "--format", "json"): (
        "4dd3b83a8db9df67b1fe972a392192462b6a779631d89e2d052a23fc17fc91d4"
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=" ".join)
def test_printed_output_is_byte_identical_to_its_pinned_digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_OUTPUTS[argv]
