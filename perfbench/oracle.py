"""Independent oracle for every output the benchmark checks.

Nothing here calls arctanpoly.  Family members come from their binomial
sums (``math.comb``), derivatives from closed forms, root nodes and pi from
mpmath at 60 digits.  The checkers compare values, not layout: they pull the
numbers out of an output and accept any format that carries the right ones.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from math import comb, factorial

import mpmath

ORACLE_DPS = 60
_SUMMARY = re.compile(r"(\d+)\s*/\s*(\d+) checks passed")
_DECIMAL = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+")


# ---------------------------------------------------------------------------
# exact reference values
# ---------------------------------------------------------------------------

def beta_coeffs(n: int) -> list[int]:
    """beta_n = Im((x+i)^(n+1)), ascending coefficients."""
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * comb(n + 1, 2 * k + 1)
    return out


def alpha_coeffs(n: int) -> list[int]:
    """alpha_n = Re((x+i)^n), ascending coefficients."""
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * comb(n, 2 * k)
    return out


def p_coeffs(n: int) -> list[int]:
    """P_n = (-1)^n n! Im((x+i)^(n+1)), ascending coefficients."""
    sign_fac = (-1) ** n * factorial(n)
    return [sign_fac * c for c in beta_coeffs(n)]


def pi_coeffs(n: int) -> list[Fraction]:
    """pi_n = beta_n / (n+1), ascending coefficients."""
    return [Fraction(c, n + 1) for c in beta_coeffs(n)]


FAMILY = {"beta": beta_coeffs, "alpha": alpha_coeffs, "p": p_coeffs, "pi": pi_coeffs}


def evaluate(coeffs: list, x: Fraction) -> Fraction:
    """Exact value at x = p/q, summed over integers with one division."""
    p, q = x.numerator, x.denominator
    d = len(coeffs) - 1
    num = 0
    for j, c in enumerate(coeffs):
        if c:
            num += c * p**j * q ** (d - j)
    return Fraction(num) / q**d


def arctan_derivative(n: int, x: Fraction) -> Fraction:
    """n-th derivative of arctan at x: P_{n-1}(x) / (1+x^2)^n."""
    return evaluate(p_coeffs(n - 1), x) / (1 + x * x) ** n


def artanh_derivative(n: int, x: Fraction) -> Fraction:
    """n-th derivative of artanh at x, from 1/(1-x^2) = (1/(1-x) + 1/(1+x))/2:
    (n-1)!/2 * (1/(1-x)^n + (-1)^(n-1)/(1+x)^n)."""
    return Fraction(factorial(n - 1), 2) * (
        1 / (1 - x) ** n + (-1) ** (n - 1) / (1 + x) ** n
    )


def root_nodes(kind: str, n: int) -> list:
    """Zeros of beta_n (cot(k pi/(n+1))) or alpha_n (cot((2k-1) pi/(2n)))."""
    with mpmath.workdps(ORACLE_DPS):
        if kind == "beta":
            return [mpmath.cot(mpmath.pi * k / (n + 1)) for k in range(1, n + 1)]
        return [mpmath.cot(mpmath.pi * (2 * k - 1) / (2 * n)) for k in range(1, n + 1)]


def series_terms(kind: str, x: Fraction, terms: int) -> list[Fraction]:
    """First terms of the classical ('euler') or beta-driven arctan series.

    euler: 4^n (n!)^2/(2n+1)! x^(2n+1) / (1+x^2)^(n+1)
    beta:  beta_n(x) x^(n+1) / ((n+1) (1+x^2)^(n+1))
    """
    out = []
    shell = 1 + x * x
    for n in range(terms):
        if kind == "euler":
            factor = Fraction(4**n * factorial(n) ** 2, factorial(2 * n + 1))
            out.append(factor * x ** (2 * n + 1) / shell ** (n + 1))
        else:
            out.append(evaluate(beta_coeffs(n), x) * x ** (n + 1) / ((n + 1) * shell ** (n + 1)))
    return out


def tan_parts(n: int) -> tuple[list[int], list[int]]:
    """tan(n arctan x) = N/D, with N and D the imaginary and real parts of
    (1+ix)^n, as ascending coefficients (N, D)."""
    num = [0] * (n + 1)
    den = [0] * (n + 1)
    for j in range(n + 1):
        c = comb(n, j) * (-1) ** (j // 2)
        if j % 2:
            num[j] = c
        else:
            den[j] = c
    return num, den


def coefficient_text(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def digest(coeffs) -> str:
    """Hash of exact ascending coefficients, trailing zeros dropped."""
    items = [coefficient_text(c) for c in coeffs]
    while items and items[-1] == "0":
        items.pop()
    return hashlib.sha256(",".join(items).encode()).hexdigest()


# ---------------------------------------------------------------------------
# parsing and tolerant comparisons
# ---------------------------------------------------------------------------

def parse_pretty(text: str) -> list[Fraction]:
    """Ascending coefficients of a polynomial printed as "6x^5 - 20x^3 + 6x"."""
    body = text.strip().replace(" ", "")
    if body == "0":
        return []
    coeffs: dict[int, Fraction] = {}
    for sign, mag, xpart, power in re.findall(r"([+-]?)(\d+(?:/\d+)?)?(x(?:\^(\d+))?)?", body):
        if not mag and not xpart:
            continue
        value = Fraction(mag) if mag else Fraction(1)
        degree = (int(power) if power else 1) if xpart else 0
        coeffs[degree] = coeffs.get(degree, 0) + (-value if sign == "-" else value)
    out = [Fraction(0)] * (max(coeffs) + 1)
    for degree, value in coeffs.items():
        out[degree] = value
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return out


def _trimmed(coeffs: list) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def matches_printed(text: str, expected) -> bool:
    """True iff the decimal ``text`` is ``expected`` rounded to the digits
    printed: within half a unit in the last place, plus a relative 1e-30
    for the finite precision the value was computed at."""
    value = mpmath.mpf(text)
    if abs(expected) < mpmath.mpf("1e-20"):  # a node at 0 prints as rounding noise
        return abs(value) < mpmath.mpf("1e-20")
    mantissa = re.split(r"[eE]", text)[0].lstrip("+-").replace(".", "").lstrip("0")
    digits = max(len(mantissa), 1)
    exponent = int(mpmath.floor(mpmath.log10(abs(value))))
    half_ulp = mpmath.mpf(10) ** (exponent - digits + 1) / 2
    return abs(value - expected) <= half_ulp + abs(expected) * mpmath.mpf("1e-30")


# ---------------------------------------------------------------------------
# checkers: (ok, reason)
# ---------------------------------------------------------------------------

def _options(argv: list[str]) -> dict[str, str]:
    """Options of an argv written as ``--name=value`` tokens."""
    return dict(token[2:].split("=", 1) for token in argv[1:])


def check_cli(argv: list[str], returncode: int, stdout: str) -> tuple[bool, str]:
    """Check one CLI invocation's exit code and printed values."""
    if returncode != 0:
        return False, f"exit code {returncode}"
    try:
        return _CHECKERS[argv[0]](_options(argv), stdout)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
        return False, f"unparsable output: {exc!r}"


def _check_poly(opt, out):
    coeffs = [Fraction(c) for c in json.loads(out)["coeffs"]]
    expected = FAMILY[opt["kind"]](int(opt["n"]))
    if coeffs != _trimmed(expected):
        return False, "coefficients differ"
    return True, ""


def _check_deriv(opt, out):
    n, x = int(opt["n"]), Fraction(opt["x"])
    expected = arctan_derivative(n, x) if opt["func"] == "arctan" else artanh_derivative(n, x)
    if Fraction(out.strip()) != expected:
        return False, "derivative value differs"
    return True, ""


def _check_roots(opt, out):
    n = int(opt["n"])
    printed = []
    for line in out.splitlines():
        tail = line.rsplit("=", 1)[-1] if "=" in line else ""
        found = _DECIMAL.findall(tail)
        if found:
            printed.append(found[0])
    if len(printed) != n:
        return False, f"{len(printed)} nodes printed for n={n}"
    expected = root_nodes(opt["kind"], n)
    with mpmath.workdps(ORACLE_DPS):
        values = sorted(printed, key=mpmath.mpf, reverse=True)
        for text, node in zip(values, expected):
            if not matches_printed(text, node):
                return False, f"node {text} != {mpmath.nstr(node, 25)}"
    return True, ""


def _check_pi(opt, out):
    text = _DECIMAL.findall(out)[0]
    decimals = len(text.split(".")[1]) if "." in text else 0
    with mpmath.workdps(ORACLE_DPS + 60):
        error = abs(mpmath.mpf(text) - mpmath.pi)
        if error > mpmath.mpf(10) ** -decimals / 2 + mpmath.mpf(opt["tol"]):
            return False, f"pi printed as {text}"
    return True, ""


def _check_series(opt, out):
    rows = list(csv.DictReader(io.StringIO(out)))
    terms = int(opt["terms"])
    if len(rows) != terms:
        return False, f"{len(rows)} rows for {terms} terms"
    expected = series_terms(opt["kind"], Fraction(opt["x"]), terms)
    total = Fraction(0)
    for row, term in zip(rows, expected):
        total += term
        if Fraction(row["term"]) != term or Fraction(row["partial_sum"]) != total:
            return False, f"row n={row['n']} differs"
    return True, ""


def _check_connect(opt, out):
    n = int(opt["n"])
    match = re.match(r"\s*\((.*)\)\s*/\s*\((.*)\)", out)
    if not match:
        return False, "no ratio printed"
    num, den = parse_pretty(match.group(1)), parse_pretty(match.group(2))
    want_num, want_den = tan_parts(n)
    if not den or _trimmed(_poly_mul(num, want_den)) != _trimmed(_poly_mul(den, want_num)):
        return False, "ratio differs from tan(n arctan x)"
    return True, ""


def _check_verify(opt, out):
    summary = _SUMMARY.search(out)
    if not summary:
        return False, "no summary line"
    passed, total = int(summary.group(1)), int(summary.group(2))
    if passed != total or total == 0:
        return False, f"{passed}/{total} checks passed"
    return True, ""


_CHECKERS = {
    "poly": _check_poly,
    "deriv": _check_deriv,
    "roots": _check_roots,
    "pi": _check_pi,
    "series": _check_series,
    "connect": _check_connect,
    "verify": _check_verify,
}


def verify_rows(stdout: str) -> int:
    """The N of an "N/N checks passed" summary, or 0."""
    summary = _SUMMARY.search(stdout)
    return int(summary.group(2)) if summary else 0


def check_session_step(step: dict, record: dict) -> tuple[bool, str]:
    """Check one session step's reported values against the oracle."""
    if "error" in record:
        return False, record["error"]
    n, x = step["n"], Fraction(step["x"])
    if record["beta"] != digest(beta_coeffs(n)) or record["alpha"] != digest(alpha_coeffs(n)):
        return False, f"family member differs at n={n}"
    if Fraction(record["deriv"]) != arctan_derivative(n, x):
        return False, f"arctan derivative differs at n={n}"
    alpha_n, beta_prev = alpha_coeffs(n), beta_coeffs(n - 1)
    if n % 2 == 0:
        want = ["even", digest([-c for c in beta_prev]), digest(alpha_n)]
    else:
        want = ["odd", digest(alpha_n), digest(beta_prev)]
    if record["tan"] != want:
        return False, f"tan multiple differs at n={n}"
    if step["roots"]:
        if not record["certified"]:
            return False, f"roots not certified at n={step['roots']}"
        expected = root_nodes("beta", step["roots"])
        if len(record["roots"]) != len(expected):
            return False, "wrong number of roots"
        with mpmath.workdps(ORACLE_DPS):
            for text, node in zip(record["roots"], expected):
                if not matches_printed(text, node):
                    return False, f"root {text} differs"
    return True, ""
