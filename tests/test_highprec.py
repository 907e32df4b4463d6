"""The float gateway: only ``highprec`` names mpmath, and it loads mpmath on
first use, so commands that never meet an irrational never import it."""
import ast
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from arctanpoly import highprec
from arctanpoly.calculus import roots
from arctanpoly.chebyshev import trig_spot_check
from arctanpoly.families import SequenceKind, build
from arctanpoly.highprec import ROOT_TOLERANCE, eval_poly, node_precision, workprec
from arctanpoly.poly import Polynomial

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "arctanpoly"

# Runs in a fresh interpreter: imports the package and the CLI, then runs
# each command in turn and records whether mpmath was loaded after it.
_PROBE = """
import contextlib, io, json, sys
import arctanpoly, arctanpoly.cli
seen = [["import", "mpmath" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = arctanpoly.cli.main(argv)
    assert code == 0, (argv, code)
    seen.append([" ".join(argv), "mpmath" in sys.modules])
print(json.dumps(seen))
"""


def _run_fresh(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _mpmath_loaded_after(commands):
    return [tuple(step) for step in json.loads(_run_fresh(_PROBE, json.dumps(commands)))]


def test_exact_commands_never_load_mpmath_and_roots_does():
    exact = [
        ["poly", "--kind", "beta", "--n", "7", "--format", "json"],
        ["poly", "--kind", "p", "--n", "6"],
        ["deriv", "--func", "arctan", "--n", "9", "--x", "2/3"],
        ["deriv", "--func", "artanh", "--n", "4", "--x", "1/2"],
        ["deriv", "--func", "arctan", "--n", "9", "--x", "2/3", "--format", "json"],
        ["connect", "--what", "tan", "--n", "6"],
        ["pi", "--method", "euler", "--tol", "1e-30"],
        ["pi", "--method", "beta", "--tol", "1e-100"],
    ]
    seen = _mpmath_loaded_after(exact + [["roots", "--kind", "beta", "--n", "4"]])
    assert seen[:-1] == [("import", False)] + [(" ".join(argv), False) for argv in exact]
    assert seen[-1] == ("roots --kind beta --n 4", True)


def test_package_import_does_not_load_json():
    # only RationalMatrix.json() and the CLI's JSON output need the module
    loaded = _run_fresh("import sys, arctanpoly; print('json' in sys.modules)")
    assert loaded.strip() == "False"


def test_only_highprec_imports_mpmath():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "highprec.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_node_precision_is_the_default_up_to_160():
    assert [node_precision(n) for n in range(1, 161)] == [128] * 160
    assert node_precision(161) == 129


def test_node_precision_bounds_horner_error_below_half_the_tolerance():
    # node_precision's docstring: gamma_(2n+1) 2^((n+1)/2) (1 + 4n^2/pi^2) / n
    # <= ROOT_TOLERANCE / 2, squared to clear the root of 2 and checked in
    # integers with pi^2 > 9.8696 and ROOT_TOLERANCE / 2 >= 1 / (2 * 10^9)
    assert Fraction(ROOT_TOLERANCE) >= Fraction(1, 10**9)
    for n in range(1, 2001):
        m, scale = 2 * n + 1, 2**node_precision(n)
        lhs = m * m * 2 ** (n + 1) * (98696 + 40000 * n * n) ** 2 * (2 * 10**9) ** 2
        assert lhs <= (scale - m) ** 2 * (98696 * n) ** 2, n


def test_roots_and_trig_spot_check_share_one_rule(monkeypatch):
    # no slope at a node of beta_3 exceeds 10^6, so under that tolerance the
    # slope clause fails every certificate, in both callers
    assert roots(SequenceKind.BETA, 3).all_certified and trig_spot_check(3, 1)
    monkeypatch.setattr(highprec, "ROOT_TOLERANCE", 1e6)
    assert not any(r.certified for r in roots(SequenceKind.BETA, 3).roots)
    assert not trig_spot_check(3, 1)


@pytest.mark.parametrize("point, shown", [("inf", "+inf"), ("-inf", "-inf"), ("nan", "nan")])
def test_eval_poly_rejects_a_non_finite_point(point, shown):
    # mpmath stores these with a zero mantissa, which must not read as 0
    with pytest.raises(ValueError, match=re.escape(f"non-finite point {shown}")):
        eval_poly(build(SequenceKind.BETA, 4), mpmath.mpf(point))


def test_eval_poly_at_zero_is_the_constant_coefficient():
    zero = mpmath.mpf(0)
    assert eval_poly(build(SequenceKind.BETA, 4), zero) == 1
    assert eval_poly(build(SequenceKind.BETA, 5), zero)._mpf_ == mpmath.libmp.fzero
    with workprec(10):
        third = eval_poly(Polynomial((Fraction(1, 3), 7, 5)), zero)
        assert third._mpf_ == (mpmath.mpf(1) / 3)._mpf_


def _refuse(*args):
    raise AssertionError("mpf_mul called inside eval_poly")


def test_roots_make_no_mpf_mul_call_inside_eval_poly(monkeypatch):
    # the integer Horner loop replaced a chain of libmp calls; keep it out
    real_eval_poly = highprec.eval_poly
    calls = []

    def guarded(poly, t):
        with monkeypatch.context() as patch:
            for owner in (mpmath.libmp, mpmath.libmp.libmpf, mpmath.ctx_mp_python):
                patch.setattr(owner, "mpf_mul", _refuse)
            calls.append(t)
            return real_eval_poly(poly, t)

    monkeypatch.setattr(highprec, "eval_poly", guarded)
    rs = roots(SequenceKind.BETA, 12)
    assert rs.all_certified
    # only the six nonnegative nodes are certified, each on p and then p'
    assert len(calls) == 12
    lower = [r.value._mpf_ for r in rs.roots[:6]]
    assert [t._mpf_ for t in calls[::2]] == [t._mpf_ for t in calls[1::2]] == lower
    assert all(t >= 0 for t in calls)


@pytest.mark.parametrize("precision", [128, "node"])
def test_upper_cot_nodes_are_exact_negations_of_their_mirrors(precision):
    for m in range(2, 402):
        with workprec(node_precision(m - 1) if precision == "node" else precision):
            nodes = [highprec.cot_node(k, m) for k in range(1, m)]
            assert [node._mpf_ for node in reversed(nodes)] == [(-node)._mpf_ for node in nodes], m


def _parity_polynomial(rng, degree):
    # integer coefficients on x^(degree-2k) only, as beta_n, alpha_n and their derivatives
    coeffs = [0] * (degree + 1)
    for k in range(degree, -1, -2):
        coeffs[k] = rng.choice([0, rng.randint(-9, 9), rng.randint(-(10**40), 10**40)])
    coeffs[degree] = coeffs[degree] or 1
    return Polynomial(coeffs)


def test_eval_poly_is_odd_or_even_with_its_parity_polynomial():
    # the lemma behind the mirrored root certificates: Horner with rounding
    # to nearest, ties to even, keeps p(-t) = (-1)^deg p(t) bit for bit;
    # the low precisions round on exact ties often
    rng = random.Random(19)
    polys = [_parity_polynomial(rng, rng.randint(0, 40)) for _ in range(12)]
    for precision in range(1, 129):
        with workprec(precision):
            points = [mpmath.mpf((rng.randint(1, 2**12), rng.randint(-12, 4))) for _ in range(4)]
            points += [mpmath.mpf(rng.randint(1, 9)), highprec.cot_node(rng.randint(1, 20), 41)]
            for p in polys:
                sign = -1 if p.degree % 2 else 1
                for t in points:
                    assert eval_poly(p, -t)._mpf_ == (sign * eval_poly(p, t))._mpf_, (precision, t)


# The root test, the cot nodes and the root sets run on raw libmp values;
# these tests compare them with the same computations through mpf operators.


@pytest.mark.parametrize("precision", [128, 200, 600])
def test_cot_node_is_mpmaths_cot_bit_for_bit(precision):
    # the upper nodes are mirrors and the middle one is an exact zero; every
    # other node is the closed form through mpmath's own operators
    with workprec(precision):
        for m in range(3, 401):
            for k in range(1, (m + 1) // 2):
                expected = mpmath.cot(mpmath.pi * k / m)
                assert highprec.cot_node(k, m)._mpf_ == expected._mpf_, (k, m)


def _mpf_certifies(residual, slope):
    return bool(residual <= ROOT_TOLERANCE * max(1, slope) and slope > ROOT_TOLERANCE)


@pytest.mark.parametrize("precision", [53, 128, 600])
def test_certifies_is_the_mpf_expression(precision):
    with workprec(precision):
        one = mpmath.mpf(1)
        slopes = [
            mpmath.mpf(0),
            mpmath.mpf(ROOT_TOLERANCE),
            mpmath.mpf(ROOT_TOLERANCE) * (1 + mpmath.eps),
            one / 3,
            one,
            one + mpmath.eps,
            mpmath.mpf(7) / 3,
            mpmath.mpf(3) * mpmath.mpf(2) ** 2000,  # past the range of a double
        ]
        seen = set()
        for slope in slopes:
            bound = mpmath.mpf(ROOT_TOLERANCE * max(1, slope))  # a float when slope <= 1
            residuals = [mpmath.mpf(0), bound * (1 - mpmath.eps), bound, bound * (1 + mpmath.eps)]
            for residual in residuals + [bound * 2**20, bound / 2**20]:
                expected = _mpf_certifies(residual, slope)
                seen.add(expected)
                assert highprec.certifies(residual, slope) is expected, (residual, slope)
                # the signed values give the test on their absolute values
                assert highprec.certifies(-residual, -slope) is expected, (residual, slope)
        assert seen == {True, False}


def _mpf_root_set(kind, n):
    """The records of roots(kind, n) through mpf operators: each node by
    mpmath.cot and its certificate by abs, float and the mpf expression."""
    p = build(kind, n)
    records = []
    with workprec(node_precision(n)):
        p_mpf, dp_mpf = highprec.prepare(p), highprec.prepare(p.differentiate())
        for k in range(1, n + 1):
            num, den = (k, n + 1) if kind is SequenceKind.BETA else (2 * k - 1, 2 * n)
            if 2 * k > n + 1:
                value, check = -records[n - k][1], records[n - k][2]
            else:
                value = mpmath.mpf(0) if 2 * num == den else mpmath.cot(mpmath.pi * num / den)
                residual = abs(eval_poly(p_mpf, value))
                slope = abs(eval_poly(dp_mpf, value))
                check = (float(residual), float(slope), _mpf_certifies(residual, slope))
            records.append((k, value, check))
    return [(k, value._mpf_, check) for k, value, check in records]


@pytest.mark.parametrize("kind", [SequenceKind.BETA, SequenceKind.ALPHA])
def test_root_sets_are_those_of_the_mpf_operators(kind):
    for n in [*range(1, 131), 400, 1000]:
        got = [
            (r.index, r.value._mpf_, (r.check.residual, r.check.slope, r.check.certified))
            for r in roots(kind, n).roots
        ]
        assert got == _mpf_root_set(kind, n), n
