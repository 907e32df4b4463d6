"""Command-line surface: builders, derivative evaluation, verification suites,
series tables, pi approximation, root listings and the classical bridges.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
141 (128 + SIGPIPE) when the reader closes the output pipe early.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import calculus, checks, connections, families, series
from .exact import format_rational, parse_rational
from .families import BuildMethod, SequenceKind
from .highprec import nstr
from .poly import Polynomial

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


def _decimal(value, digits: int = 12) -> str:
    """An exact rational to ``digits`` significant digits, correctly rounded
    (ties away from zero), in the notation of mpmath's ``nstr``.

    Pure integer arithmetic, so no float and no mpmath: fixed notation when
    the leading digit's decimal exponent e satisfies
    min(-(digits // 3), -5) < e < digits, scientific otherwise, trailing
    zeros stripped down to one digit after the point.
    """
    v = Fraction(value)
    if not v:
        return "0.0"
    sign = "-" if v < 0 else ""
    num, den = abs(v.numerator), v.denominator

    def floor_scaled(k):  # floor(num/den * 10^k)
        return num * 10 ** max(k, 0) // (den * 10 ** max(-k, 0))

    # e with 10^e <= num/den < 10^(e+1): a bit-length estimate, then exact steps
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while floor_scaled(-e) < 1:
        e -= 1
    while floor_scaled(-e) >= 10:
        e += 1
    # round half up on one more digit than kept
    mantissa = (floor_scaled(digits - e) + 5) // 10
    if mantissa == 10**digits:
        mantissa //= 10
        e += 1
    text = str(mantissa)
    if min(-(digits // 3), -5) < e < digits:
        whole, frac = (text[: e + 1], text[e + 1 :]) if e >= 0 else ("0", "0" * (-e - 1) + text)
        return f"{sign}{whole}.{frac.rstrip('0') or '0'}"
    exponent = f"e+{e}" if e >= 0 else f"e{e}"
    return f"{sign}{text[0]}.{text[1:].rstrip('0') or '0'}{exponent}"


def _parse_poly_arg(text: str) -> Polynomial:
    try:
        return Polynomial([parse_rational(c) for c in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad coefficient list {text!r}: {exc}") from exc


def _cmd_poly(args) -> int:
    kind = SequenceKind(args.kind)
    # one process builds one member, so take the fastest exact route rather
    # than the library's cached recurrence, whose prefix nothing reads again
    method = BuildMethod(args.method) if args.method else families.SINGLE_MEMBER_METHOD[kind]
    p = families.build(kind, args.n, method)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": kind.value,
                    "n": args.n,
                    "method": method.value,
                    "coeffs": p.coefficient_strings(),
                }
            )
        )
    else:
        print(p.pretty())
    return EXIT_OK


def _cmd_deriv(args) -> int:
    x = parse_rational(args.x)
    if args.func == "arctan":
        value = calculus.arctan_nth_derivative(args.n, x)
    else:
        value = calculus.artanh_nth_derivative(args.n, x)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "func": args.func,
                    "n": args.n,
                    "x": format_rational(x),
                    "exact": format_rational(value),
                    "decimal": _decimal(value),
                }
            )
        )
    else:
        print(format_rational(value))
    return EXIT_OK


def _cmd_verify(args) -> int:
    rows = checks.run_suite(args.suite, args.max_n)
    failures = [r for r in rows if not r.passed]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "suite": r.suite,
                        "check": r.check,
                        "n": r.n,
                        "passed": r.passed,
                        "detail": r.detail,
                    }
                    for r in rows
                ]
            )
        )
    elif args.format == "csv":
        import csv  # only this format needs it; keep it off every other command's start

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("suite", "check", "n", "passed", "detail"))
        for r in rows:
            n_text = "" if r.n is None else str(r.n)
            writer.writerow((r.suite, r.check, n_text, "pass" if r.passed else "FAIL", r.detail))
    else:
        groups: dict[tuple[str, str], list[checks.CheckRow]] = {}
        for r in rows:
            groups.setdefault((r.suite, r.check), []).append(r)
        for (suite, check), members in groups.items():
            ns = [m.n for m in members if m.n is not None]
            span = f" n={min(ns)}..{max(ns)}" if ns else ""
            ok = all(m.passed for m in members)
            status = "ok" if ok else "FAIL"
            print(f"[{suite}] {check}{span}: {status}")
        for r in failures:
            where = "" if r.n is None else f" at n={r.n}"
            print(f"FAILED: [{r.suite}] {r.check}{where} {r.detail}")
        print(f"{len(rows) - len(failures)}/{len(rows)} checks passed")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _cmd_series(args) -> int:
    kind = series.SeriesKind.EULER if args.kind == "euler" else series.SeriesKind.BETA_EXPANSION
    report = series.partial_sum(kind, parse_rational(args.x), args.terms)
    if args.format == "csv":
        sys.stdout.writelines(report.csv_lines())
    elif args.format == "json":
        # the bytes of one json.dumps of the whole report, written a row at a
        # time: the head up to the rows' opening bracket, then each row
        head = json.dumps(
            {
                "kind": kind.value,
                "x": format_rational(report.x),
                "target": report.target,
                "slow_convergence": report.slow_convergence,
                "rows": [],
            }
        )
        sys.stdout.write(head[: -len("]}")])
        for r in report.rows:
            row = {
                "n": r.n,
                "term": format_rational(r.term),
                "partial_sum": format_rational(r.partial_sum),
                "abs_error": r.abs_error,
            }
            sys.stdout.write((", " if r.n else "") + json.dumps(row))
        sys.stdout.write("]}\n")
    else:
        if report.slow_convergence:
            print("warning: |x| > 4, expect slow convergence")
        print(f"target arctan({format_rational(report.x)}) = {report.target!r}")
        for r in report.rows:
            print(
                f"n={r.n:<4d} partial_sum={format_rational(r.partial_sum)} "
                f"abs_error={r.abs_error:.3e}"
            )
    return EXIT_OK


def _cmd_pi(args) -> int:
    kind = series.SeriesKind.EULER if args.method == "euler" else series.SeriesKind.BETA_EXPANSION
    tol = float(args.tol)
    if tol == 0 and any(d in args.tol.lower().partition("e")[0] for d in "123456789"):
        raise ValueError(f"--tol {args.tol} underflows to 0")
    value, terms = series.pi_approx(kind, tol)
    print(f"{float(value):.10f} ({terms} terms)")
    return EXIT_OK


def _cmd_roots(args) -> int:
    kind = SequenceKind(args.kind)
    rs = calculus.roots(kind, args.n)
    for record in rs.roots:
        mark = "certified" if record.certified else "NOT CERTIFIED"
        print(f"k={record.index}: {record.closed_form} = {nstr(record.value, 20)} [{mark}]")
    return EXIT_OK if rs.all_certified else EXIT_VERIFY_FAILED


def _cmd_connect(args) -> int:
    fibonacci = args.what in ("fibonacci", "lucas")
    if args.h is not None and not fibonacci:
        raise ValueError(f"--h applies only to --what fibonacci and lucas, not {args.what}")
    if args.what == "tan":
        if args.method is not None:
            raise ValueError("--method does not apply to --what tan, which has one construction")
        ratio = connections.tan_multiple(args.n)
        print(f"({ratio.numerator.pretty()}) / ({ratio.denominator.pretty()})  [{ratio.parity} n]")
        return EXIT_OK
    methods = connections.FibonacciMethod if fibonacci else connections.MatchingMethod
    valid = [m.value for m in methods]
    if args.method and args.method not in valid:
        raise ValueError(
            f"--method for --what {args.what} must be one of {', '.join(valid)}, "
            f"got {args.method!r}"
        )
    if fibonacci:
        h = Polynomial.x() if args.h is None else _parse_poly_arg(args.h)
        fn = connections.fibonacci_poly if args.what == "fibonacci" else connections.lucas_poly
        print(fn(args.n, h, methods(args.method or "recurrence")).pretty())
        return EXIT_OK
    family = (
        connections.GraphFamily.PATH if args.what == "matching-path" else connections.GraphFamily.CYCLE
    )
    graph = connections.GraphKind(family, args.n)
    print(connections.matching_poly(graph, methods(args.method or "enumeration")).pretty())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arctanpoly",
        description="Exact polynomial families from the derivatives of arctan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="build one family member")
    p_poly.add_argument("--kind", required=True, choices=[k.value for k in SequenceKind])
    p_poly.add_argument("--n", required=True, type=int)
    p_poly.add_argument(
        "--method",
        choices=[m.value for m in BuildMethod],
        help="construction to use; by default "
        + ", ".join(f"{k.value}: {m.value}" for k, m in families.SINGLE_MEMBER_METHOD.items()),
    )
    p_poly.add_argument("--format", default="text", choices=["text", "json"])
    p_poly.set_defaults(handler=_cmd_poly)

    p_deriv = sub.add_parser("deriv", help="evaluate a high-order derivative exactly")
    p_deriv.add_argument("--func", required=True, choices=["arctan", "artanh"])
    p_deriv.add_argument("--n", required=True, type=int)
    p_deriv.add_argument("--x", required=True)
    p_deriv.add_argument("--format", default="text", choices=["text", "json"])
    p_deriv.set_defaults(handler=_cmd_deriv)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite", default="all", choices=("all",) + checks.SUITE_NAMES
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=50)
    p_verify.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_verify.set_defaults(handler=_cmd_verify)

    p_series = sub.add_parser("series", help="partial sums of an arctan series")
    p_series.add_argument("--kind", required=True, choices=["euler", "beta"])
    p_series.add_argument("--x", required=True)
    p_series.add_argument("--terms", required=True, type=int)
    p_series.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p_series.set_defaults(handler=_cmd_series)

    p_pi = sub.add_parser("pi", help="approximate pi from a series at x = 1")
    p_pi.add_argument("--method", required=True, choices=["euler", "beta"])
    # parsed by the handler, so an underflowing literal is named as given
    p_pi.add_argument("--tol", required=True)
    p_pi.set_defaults(handler=_cmd_pi)

    p_roots = sub.add_parser("roots", help="closed-form zeros with certificates")
    p_roots.add_argument("--kind", required=True, choices=["beta", "alpha"])
    p_roots.add_argument("--n", required=True, type=int)
    p_roots.set_defaults(handler=_cmd_roots)

    p_connect = sub.add_parser("connect", help="classical polynomial bridges")
    p_connect.add_argument(
        "--what",
        required=True,
        choices=["tan", "fibonacci", "lucas", "matching-path", "matching-cycle"],
    )
    p_connect.add_argument("--n", required=True, type=int)
    p_connect.add_argument(
        "--h", help="argument polynomial of fibonacci and lucas, ascending coefficients; default x"
    )
    p_connect.add_argument("--method", help="construction to use (delegate-specific)")
    p_connect.set_defaults(handler=_cmd_connect)

    # argparse takes a token for a negative number only in the forms -<int>
    # and -<decimal>, and reads -1/3 or -1,2 as an unknown option; no option
    # here starts with a minus and a digit, so every such token is a value
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact results can run past CPython's 4300-digit int/str conversion
    # limit; lift it while a command runs (input literals stay bounded by
    # parse_rational) and restore it for callers running the CLI in-process.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the interpreter's
        # final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
