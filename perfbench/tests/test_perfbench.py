"""Self-tests of the benchmark: oracle, traced layers, seeded generators.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

LAYERS = json.loads((BENCH / "layers.json").read_text())


def cli_stdout(argv: list[str]) -> tuple[int, str]:
    from arctanpoly import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def replace_once(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def bump_digit(text: str, position: int) -> str:
    """Change the digit at ``position`` (counted from the end) of ``text``."""
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = digits[-position]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


# ---------------------------------------------------------------------------
# the oracle accepts real outputs and rejects perturbed ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--kind=beta", "--n=31", "--format=json"],
        ["poly", "--kind=alpha", "--n=24", "--format=json"],
        ["poly", "--kind=p", "--n=17", "--format=json"],
        ["poly", "--kind=pi", "--n=12", "--format=json"],
    ],
)
def test_poly_oracle_rejects_one_changed_coefficient(argv):
    code, out = cli_stdout(argv)
    assert oracle.check_cli(argv, code, out) == (True, "")
    doc = json.loads(out)
    doc["coeffs"][-3] = str(Fraction(doc["coeffs"][-3]) + 1)
    assert not oracle.check_cli(argv, code, json.dumps(doc))[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["deriv", "--func=arctan", "--n=9", "--x=-3/4"],
        ["deriv", "--func=artanh", "--n=8", "--x=5/3"],
    ],
)
def test_deriv_oracle_rejects_changed_digit(argv):
    code, out = cli_stdout(argv)
    assert oracle.check_cli(argv, code, out) == (True, "")
    assert not oracle.check_cli(argv, code, bump_digit(out, 1))[0]


@pytest.mark.parametrize("kind", ["beta", "alpha"])
def test_roots_oracle_rejects_one_wrong_root_digit(kind):
    argv = ["roots", f"--kind={kind}", "--n=9"]
    code, out = cli_stdout(argv)
    assert oracle.check_cli(argv, code, out) == (True, "")
    lines = out.splitlines()
    lines[2] = lines[2].replace("[", "").rstrip()
    lines[2] = bump_digit(lines[2], 2)
    assert not oracle.check_cli(argv, code, "\n".join(lines))[0]
    assert not oracle.check_cli(argv, code, "\n".join(out.splitlines()[:-1]))[0]


def test_pi_oracle_rejects_wrong_digit():
    argv = ["pi", "--method=beta", "--tol=1e-40"]
    code, out = cli_stdout(argv)
    assert oracle.check_cli(argv, code, out) == (True, "")
    value = out.split()[0]
    assert not oracle.check_cli(argv, code, replace_once(out, value, bump_digit(value, 2)))[0]


def test_series_oracle_rejects_changed_partial_sum():
    argv = ["series", "--kind=beta", "--x=-1/2", "--terms=12", "--format=csv"]
    code, out = cli_stdout(argv)
    assert oracle.check_cli(argv, code, out) == (True, "")
    lines = out.splitlines()
    n, term, partial, error = lines[6].split(",")
    lines[6] = ",".join([n, term, str(Fraction(partial) + Fraction(1, 10**30)), error])
    assert not oracle.check_cli(argv, code, "\n".join(lines) + "\n")[0]
    assert not oracle.check_cli(argv, code, "\n".join(lines[:-1]) + "\n")[0]


@pytest.mark.parametrize("n", [6, 7])
def test_connect_oracle_rejects_changed_coefficient(n):
    argv = ["connect", "--what=tan", f"--n={n}"]
    code, out = cli_stdout(argv)
    assert oracle.check_cli(argv, code, out) == (True, "")
    assert not oracle.check_cli(argv, code, replace_once(out, "x^2", "x^4"))[0]
    assert not oracle.check_cli(argv, code, bump_digit(out.split("/")[0], 1) + "/" + out.split("/", 1)[1])[0]


def test_verify_oracle_needs_every_check_passed():
    argv = workloads.VERIFY_ARGV
    assert oracle.check_cli(argv, 0, "[cross] x: ok\n12/12 checks passed\n")[0]
    assert not oracle.check_cli(argv, 0, "11/12 checks passed\n")[0]
    assert not oracle.check_cli(argv, 1, "12/12 checks passed\n")[0]
    assert not oracle.check_cli(argv, 0, "[cross] x: ok\n")[0]


def test_session_oracle_rejects_perturbed_step():
    import arctanpoly as ap

    step = {"n": 14, "x": "-5/3", "roots": 14}
    beta = ap.build(ap.SequenceKind.BETA, 14)
    alpha = ap.build(ap.SequenceKind.ALPHA, 14)
    tan = ap.tan_multiple(14)
    rs = ap.roots(ap.SequenceKind.BETA, 14)
    import mpmath

    with mpmath.workprec(128):
        nodes = [mpmath.nstr(r.value, 20) for r in rs.roots]
    record = {
        "beta": oracle.digest(beta.coefficients),
        "alpha": oracle.digest(alpha.coefficients),
        "deriv": str(ap.arctan_nth_derivative(14, Fraction(-5, 3))),
        "tan": [tan.parity, oracle.digest(tan.numerator.coefficients), oracle.digest(tan.denominator.coefficients)],
        "roots": nodes,
        "certified": True,
    }
    assert oracle.check_session_step(step, record) == (True, "")
    changed = list(beta.coefficients)
    changed[2] += 1
    assert not oracle.check_session_step(step, {**record, "beta": oracle.digest(changed)})[0]
    assert not oracle.check_session_step(step, {**record, "deriv": bump_digit(record["deriv"], 1)})[0]
    assert not oracle.check_session_step(
        step, {**record, "roots": nodes[:3] + [bump_digit(nodes[3], 2)] + nodes[4:]}
    )[0]
    assert not oracle.check_session_step(step, {"n": 14, "error": "boom"})[0]


def test_pretty_parser_reads_library_layout():
    from arctanpoly import Polynomial

    for coeffs in ([0, 6, 0, -20, 0, 6], [1], [Fraction(-1, 3), 0, 1], [-1, 1], [0, -1]):
        assert oracle.parse_pretty(Polynomial(coeffs).pretty()) == [Fraction(c) for c in coeffs]


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def take_cli(seed: int, count: int = 40) -> list[list[str]]:
    stream = workloads.cli_ops(seed)
    return [next(stream) for _ in range(count)]


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert take_cli(5) == take_cli(5)
    assert take_cli(5) != take_cli(6)
    assert workloads.session_steps(5, 0) == workloads.session_steps(5, 0)
    assert workloads.session_steps(5, 0) != workloads.session_steps(6, 0)
    assert workloads.session_steps(5, 0) != workloads.session_steps(5, 1)
    assert workloads.trace_ops("cli", 5) == workloads.trace_ops("cli", 5)
    # verify runs the CI command, whatever the seed
    assert workloads.trace_ops("verify", 5) == workloads.trace_ops("verify", 6)


def test_every_cli_cycle_has_the_same_mix_and_a_top_stratum_member():
    ops = take_cli(11, workloads.CLI_CYCLE_LEN * 5)
    for start in range(0, len(ops), workloads.CLI_CYCLE_LEN):
        cycle = ops[start : start + workloads.CLI_CYCLE_LEN]
        assert sorted(a[0] for a in cycle) == sorted(a[0] for a in ops[: workloads.CLI_CYCLE_LEN])
        assert max(int(workloads.option(a, "n")) for a in cycle if a[0] == "poly") >= 1400


# ---------------------------------------------------------------------------
# traced layers
# ---------------------------------------------------------------------------

SMALL_OPS = {
    "verify": [["verify", "--suite=all", "--max-n=20"]],
    "cli": workloads.trace_ops("cli", 3)[: workloads.CLI_CYCLE_LEN],
    "session": [workloads.session_steps(3, 0)[:9]],
}


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    results = {}
    for workload, ops in SMALL_OPS.items():
        runs = []
        for attempt in range(2):
            spans = tmp_path_factory.mktemp(f"{workload}{attempt}")
            metrics, outcome, extra = run.measure_traced(workload, ops, spans)
            assert outcome.failed == 0, outcome.reasons
            assert extra["missing_wrappers"] == []
            runs.append(metrics)
        results[workload] = runs
    return results


def test_benchmark_declares_exactly_the_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYERS["metrics"])
    assert set(LAYERS["exact_counts"]) <= set(LAYERS["metrics"])


def test_every_layer_metric_is_nonzero_where_the_map_says(traced_twice):
    for metric, entry in LAYERS["metrics"].items():
        for workload in entry["nonzero_on"]:
            assert traced_twice[workload][0][metric] > 0, (metric, workload)


def test_exact_counts_repeat_across_traced_runs(traced_twice):
    for workload, (first, second) in traced_twice.items():
        for metric in LAYERS["exact_counts"]:
            assert first[metric] == second[metric], (workload, metric)


def test_wrappers_reach_direct_imports():
    code = (
        "import sys, arctanpoly, arctanpoly.cli, arctanpoly.checks, tracer\n"
        "t = tracer.install()\n"
        "from arctanpoly import checks, calculus, chebyshev\n"
        "chebyshev = sys.modules['arctanpoly.chebyshev']\n"
        "assert checks.build_sequence.__wrapped__ is not None\n"
        "assert checks.to_mpf.__wrapped__ is not None\n"
        "assert calculus.certify_simple_root.__wrapped__ is not None\n"
        "assert chebyshev.eval_poly.__wrapped__ is not None\n"
        "assert arctanpoly.Polynomial.__radd__.__wrapped__ is not None\n"
        "assert not t.missing, t.missing\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH,
        env=run.child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload=cli", "--seed=1", "--seconds=1", "--trace=0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# yardstick normalization
# ---------------------------------------------------------------------------

def test_yardstick_slices_run_between_ops_and_leave_the_op_time_alone():
    ops = [["poly", "--kind=beta", "--n=5", "--format=json"]] * 3
    _, plain = run.run_ops("cli", ops, None)
    _, yarded = run.run_ops("cli", ops, None, yard=True)
    assert plain.yard_s == [] and plain.failed == 0
    assert yarded.yard_s and all(s > 0 for s in yarded.yard_s) and yarded.failed == 0
    # the loop's wall time excludes the slices, so it stays near the ops' own
    assert yarded.wall_s < sum(child.wall_s for child in yarded.children) + sum(yarded.yard_s) / 2
    # session children run their slices themselves, between steps
    _, session = run.run_ops("session", [workloads.session_steps(3, 0)[:6]], None, yard=True)
    assert session.yard_s and session.failed == 0


def test_end_to_end_metrics_are_the_raw_ones_over_the_slowdown():
    metrics, outcome, extra = run.end_to_end("cli", 2, 1.0)
    slowdown = extra["yardstick"]["slowdown"]
    assert slowdown == pytest.approx(statistics.fmean(outcome.yard_s) / yardstick.REF_SLICE_S)
    raw = extra["raw"]
    assert metrics["norm_latency_p50_s"] == pytest.approx(raw["latency_p50_s"] / slowdown)
    assert metrics["norm_latency_tail_s"] == pytest.approx(raw["latency_tail_s"] / slowdown)
    assert metrics["norm_ops_per_s"] == pytest.approx(raw["ops_per_s"] * slowdown)
    assert set(metrics) == set(run.metric_units("end_to_end"))
