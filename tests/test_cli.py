"""Command-line behavior: output shapes, exit codes, round trips."""
import contextlib
import csv
import io
import json
import subprocess
import sys

import pytest

from arctanpoly import checks
from arctanpoly.cli import main
from arctanpoly.highprec import MAX_PRECISION


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
    from arctanpoly.exact import format_rational, parse_rational

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


def test_poly_determinant_method_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--kind", "beta", "--n", "3", "--method", "determinant"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_deriv_examples(capsys):
    code, out, _ = run_cli(capsys, "deriv", "--func", "arctan", "--n", "3", "--x", "0")
    assert code == 0
    assert out.strip() == "-2"
    code, out, _ = run_cli(capsys, "deriv", "--func", "arctan", "--n", "1", "--x", "0")
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "deriv", "--func", "artanh", "--n", "2", "--x", "1/2")
    assert out.strip() == "16/9"


def test_deriv_json(capsys):
    code, out, _ = run_cli(
        capsys, "deriv", "--func", "arctan", "--n", "2", "--x", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["exact"] == "-1/2"
    assert payload["decimal"].startswith("-0.5")


def test_deriv_pole_exits_2(capsys):
    code, _, err = run_cli(capsys, "deriv", "--func", "artanh", "--n", "2", "--x", "1")
    assert code == 2
    assert "pole" in err.lower()


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
        for h in ("x", "2x", "x^2 + 1"):
            name = f"{family}-methods[h={h}]"
            ns = [row["n"] for row in json.loads(out) if row["check"] == name]
            assert ns == list(range(1, max_n + 1)), name


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_rejects_hessenberg_cap_below_one(capsys, cap):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "hessenberg", "--max-n", "5", "--hessenberg-cap", cap
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "hessenberg cap" in lines[0]


@pytest.mark.parametrize("suite, max_n", [("series", "-3"), ("cross", "-1")])
def test_verify_rejects_negative_max_n(capsys, suite, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", max_n)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert lines == [f"error: max-n must be non-negative, got {max_n}"]


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
    assert "hessenberg,trace-zero,1,pass,\n" in out  # no comma, no quotes


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


def test_connect_fibonacci_with_argument(capsys):
    code, out, _ = run_cli(capsys, "connect", "--what", "fibonacci", "--n", "4", "--h", "0,1")
    assert code == 0
    assert out.strip() == "x^3 + 2x"


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
    # the output (about 200 kB) is larger than a pipe buffer, so the writer
    # is still printing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "arctanpoly.cli", "verify", "--suite", "cross", "--max-n", "60",
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


@pytest.mark.parametrize("precision", ["0", "-5"])
def test_roots_rejects_precision_below_one_bit(capsys, precision):
    code, out, err = run_cli(
        capsys, "roots", "--kind", "beta", "--n", "3", "--precision", precision
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_roots_precision_cap_boundary(capsys):
    top = str(MAX_PRECISION)
    code, out, err = run_cli(capsys, "roots", "--kind", "alpha", "--n", "1", "--precision", top)
    assert code == 0 and err == ""
    assert out.startswith("k=1: cot(1*pi/2) = ") and out.endswith(" [certified]\n")
    over = str(MAX_PRECISION + 1)
    code, out, err = run_cli(capsys, "roots", "--kind", "beta", "--n", "3", "--precision", over)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: precision must be at most {top} bits, got {over}"]


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
    from fractions import Fraction

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
