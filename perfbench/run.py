"""Benchmark of arctanpoly: three closed-loop workloads with one client each.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify,cli,session,all} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload for S seconds and reports the end-to-end
metrics, with times normalized to a reference machine speed that
``yardstick.py`` measures during the run.  ``--trace 1`` replays a fixed,
seeded op list untraced and traced and reports the per-layer metrics and
the tracing overhead.
Every op's output is checked against ``oracle.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and a
``record`` line with the environment and op mix.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath
import mpmath.libmp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

WORKLOADS = ("verify", "cli", "session")
# Fixed per workload so that a faster commit, which fits more ops into a
# run, is still compared at the same percentile.  A verify run fits too few
# ops for ten beyond any percentile; its p75 is the third slowest of about
# eight, which one slow moment of a shared machine moves less than the max.
TAIL_PERCENTILE = {"verify": 75, "cli": 75, "session": 90}
SETUP_IMPORTS = 7
OP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def metric_units(section: str) -> dict[str, str]:
    """Units of the metrics one section of BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], timeout: float = OP_TIMEOUT_S) -> Child:
    """Run one process to its end; wall time from spawn to reap and its peak
    resident memory from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks: dict[str, bytes] = {}

    def drain(name, stream):
        chunks[name] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for reader in readers:
        reader.start()
    reaped = threading.Event()

    def kill_on_timeout():
        if not reaped.is_set():
            proc.kill()

    timer = threading.Timer(timeout, kill_on_timeout)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        reaped.set()
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        proc.returncode,
        chunks["out"].decode(errors="replace"),
        chunks["err"].decode(errors="replace"),
        wall,
        usage.ru_maxrss / 1024,
    )


def preflight() -> None:
    """Fail unless the library sources of this checkout import cleanly."""
    if not (SRC / "arctanpoly" / "__init__.py").is_file():
        raise BenchError(f"no arctanpoly sources under {SRC}")
    probe = run_child(
        [sys.executable, "-c", "import arctanpoly, arctanpoly.cli; print(arctanpoly.__file__)"]
    )
    if probe.returncode != 0:
        raise BenchError(f"import arctanpoly failed: {probe.stderr.strip()}")
    if Path(probe.stdout.strip()).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"arctanpoly imported from {probe.stdout.strip()}, not from {SRC}")


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter to ``import arctanpoly``
    returning, once per import (both clocks are the system monotonic clock)."""
    samples = []
    for _ in range(SETUP_IMPORTS):
        spawn_t = time.monotonic()
        child = run_child(
            [sys.executable, "-c", "import time, arctanpoly; print(time.monotonic())"]
        )
        if child.returncode != 0:
            raise BenchError(f"import arctanpoly failed: {child.stderr.strip()}")
        samples.append(float(child.stdout) - spawn_t)
    return samples


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# op execution
# ---------------------------------------------------------------------------

def cli_argv(op: list[str]) -> list[str]:
    return [sys.executable, "-m", "arctanpoly.cli", *op]


def traced_cli_argv(op: list[str], spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "launch_cli.py"), repr(time.monotonic()), str(spans), *op]


def session_argv(steps: list[dict], spans: Path | None, yard: bool) -> list[str]:
    spec = {
        "spawn_t": time.monotonic(),
        "steps": steps,
        "spans": str(spans) if spans else None,
        "yard": yard,
    }
    return [sys.executable, str(HERE / "session_child.py"), json.dumps(spec)]


@dataclass
class Outcome:
    """Checked result of one run of ops."""

    latencies: list[float]
    attempted: int
    failed: int
    reasons: list[str]
    wall_s: float
    peak_rss_mb: float
    children: list[Child]
    yard_s: list[float]


def check_cli_children(ops: list[list[str]], children: list[Child]):
    """(wall times of correct ops, attempted, failed, reasons)."""
    latencies, failed, reasons = [], 0, []
    for op, child in zip(ops, children):
        ok, why = oracle.check_cli(op, child.returncode, child.stdout)
        if ok:
            latencies.append(child.wall_s)
        else:
            failed += 1
            reasons.append(f"{' '.join(op)}: {why} {child.stderr.strip()[-200:]}")
    return latencies, len(ops), failed, reasons


def check_session_children(sessions: list[list[dict]], children: list[Child]):
    """(per-step latencies, attempted, failed, reasons) of finished sessions."""
    latencies, attempted, failed, reasons = [], 0, 0, []
    for steps, child in zip(sessions, children):
        attempted += len(steps)
        try:
            report = json.loads(child.stdout.strip().splitlines()[-1])
            records = report["steps"]
        except (IndexError, ValueError, KeyError):
            failed += len(steps)
            reasons.append(f"session exit {child.returncode}: {child.stderr.strip()[-300:]}")
            continue
        if child.returncode != 0 or len(records) != len(steps):
            failed += len(steps)
            reasons.append(f"session exit {child.returncode}, {len(records)}/{len(steps)} steps")
            continue
        for step, record in zip(steps, records):
            ok, why = oracle.check_session_step(step, record)
            if ok:
                latencies.append(record["latency_s"])
            else:
                failed += 1
                reasons.append(f"step n={step['n']}: {why}")
    return latencies, attempted, failed, reasons


def run_ops(
    workload: str, ops, deadline: float | None, spans_dir: Path | None = None, yard: bool = False
) -> tuple[list, Outcome]:
    """Run ops one after another (closed loop, one client) until ``ops`` is
    exhausted or, when ``deadline`` is set, until it has passed; outputs are
    checked once the loop is over, outside the timed region.  With ``yard``,
    yardstick slices run between ops, about ``yardstick.SHARE`` of the op
    time; ``session`` children run them between their steps, so that they
    meet the same conditions as the steps.  The returned wall time is the
    op time alone."""
    done, children, yard_s = [], [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        spans = spans_dir / f"op{index:04d}.json" if spans_dir else None
        if workload == "session":
            argv = session_argv(op, spans, yard)
        elif spans is not None:
            argv = traced_cli_argv(op, spans)
        else:
            argv = cli_argv(op)
        children.append(run_child(argv))
        done.append(op)
        if yard and workload != "session":
            yardstick.interleave(yard_s, time.perf_counter() - start - sum(yard_s))
    if yard and workload == "session":
        for child in children:
            with contextlib.suppress(IndexError, ValueError, KeyError):
                yard_s.extend(json.loads(child.stdout.strip().splitlines()[-1])["yard_s"])
    wall = time.perf_counter() - start - sum(yard_s)
    check = check_session_children if workload == "session" else check_cli_children
    latencies, attempted, failed, reasons = check(done, children)
    peak = max((child.rss_mb for child in children), default=0.0)
    return done, Outcome(latencies, attempted, failed, reasons, wall, peak, children, yard_s)


def op_stream(workload: str, seed: int):
    if workload == "verify":
        return workloads.verify_ops(seed)
    if workload == "cli":
        return workloads.cli_ops(seed)
    return (workloads.session_steps(seed, index) for index in itertools.count())


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float):
    setup = measure_setup()
    yardstick.slice_s()  # warm-up, not counted
    deadline = time.perf_counter() + seconds
    done, outcome = run_ops(workload, op_stream(workload, seed), deadline, yard=True)
    if not outcome.latencies:
        raise BenchError(f"no op of {workload} finished correctly: {outcome.reasons[:3]}")
    tail, beyond = percentile(outcome.latencies, TAIL_PERCENTILE[workload])
    correct_ops = outcome.attempted - outcome.failed
    raw = {
        "latency_p50_s": statistics.median(outcome.latencies),
        "latency_tail_s": tail,
        "ops_per_s": correct_ops / outcome.wall_s,
    }
    # > 1 while the machine runs slower than the reference speed
    slowdown = statistics.fmean(outcome.yard_s) / yardstick.REF_SLICE_S
    metrics = {
        "norm_latency_p50_s": raw["latency_p50_s"] / slowdown,
        "norm_latency_tail_s": raw["latency_tail_s"] / slowdown,
        "norm_ops_per_s": raw["ops_per_s"] * slowdown,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    extra = {
        "raw": raw,
        "yardstick": {
            "slices": len(outcome.yard_s),
            "mean_slice_s": statistics.fmean(outcome.yard_s),
            "slowdown": slowdown,
        },
        "failed_ratio": outcome.failed / outcome.attempted,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "tail_ops_beyond": beyond,
        "latency_samples": len(outcome.latencies),
        "run_wall_s": outcome.wall_s,
        "setup_samples_s": setup,
        "op_mix": workloads.mix_shares(workload, done),
    }
    if workload == "verify":
        extra["verify_rows"] = sorted({oracle.verify_rows(c.stdout) for c in outcome.children})
    return metrics, outcome, extra


def traced(workload: str, seed: int):
    spans_dir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    ops = workloads.trace_ops(workload, seed)
    metrics, outcome, extra = measure_traced(workload, ops, spans_dir)
    extra["spans_dir"] = str(spans_dir.relative_to(ROOT))
    extra["op_mix"] = workloads.mix_shares(workload, ops)
    return metrics, outcome, extra


def measure_traced(workload: str, ops: list, spans_dir: Path):
    """Per-layer metrics of ``ops`` from a traced pass that writes its spans
    under ``spans_dir``.  The op list runs four times, untraced, traced,
    traced, untraced, so that a machine drifting in speed during the run
    cancels out of the tracing overhead; the spans of the first traced pass
    give the layer metrics."""
    repeat_dir = spans_dir / "repeat"
    repeat_dir.mkdir(parents=True, exist_ok=True)
    passes = [
        run_ops(workload, ops, None)[1],
        run_ops(workload, ops, None, spans_dir)[1],
        run_ops(workload, ops, None, repeat_dir)[1],
        run_ops(workload, ops, None)[1],
    ]
    processes = []
    for index, child in enumerate(passes[1].children):
        path = spans_dir / f"op{index:04d}.json"
        if not path.is_file():
            raise BenchError(f"traced op {index} wrote no spans: {child.stderr.strip()[-300:]}")
        payload = tracer.load(path)
        payload["wall_s"] = child.wall_s
        payload["stdout_bytes"] = len(child.stdout.encode())
        processes.append(payload)
    metrics = tracer.summarize(processes)
    walls = [sum(child.wall_s for child in one.children) for one in passes]
    plain_wall, traced_wall = (walls[0] + walls[3]) / 2, (walls[1] + walls[2]) / 2
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    merged = Outcome(
        [latency for one in passes for latency in one.latencies],
        sum(one.attempted for one in passes),
        sum(one.failed for one in passes),
        [reason for one in passes for reason in one.reasons],
        sum(one.wall_s for one in passes),
        max(one.peak_rss_mb for one in passes),
        [child for one in passes for child in one.children],
        [],
    )
    extra = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "trace_overhead_ratio": traced_wall / plain_wall - 1,
        "missing_wrappers": sorted({m for p in processes for m in p["missing"]}),
    }
    return metrics, merged, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "arctanpoly").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        metrics, outcome, extra = traced(workload, seed)
    else:
        metrics, outcome, extra = end_to_end(workload, seed, seconds)
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")
    print(f"[{workload}] seed={seed} trace={int(trace)} ops={outcome.attempted} failed={outcome.failed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    for name, value in extra.get("raw", {}).items():
        print(f"  {'raw ' + name:32s} {value:>16.6g} (not normalized)")
    print(f"  {'failed_ratio':32s} {outcome.failed / outcome.attempted:>16.6g} ratio")
    for reason in outcome.reasons[:5]:
        print(f"  FAILED {reason}")
    record = {"workload": workload, "seconds": seconds, "trace": int(trace), **environment(seed), **extra}
    print("record " + json.dumps(record))
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        preflight()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
