"""One long-lived library session of the ``session`` workload.

Usage: python3 perfbench/session_child.py SPEC_JSON

SPEC_JSON holds ``spawn_t`` (the parent's ``time.monotonic()`` before it
started this process), ``steps`` (from ``workloads.session_steps``),
``spans`` (a path to trace into, or null for an untraced session) and
``yard`` (whether to run yardstick slices between steps).  Each step is
timed in-process; the values it produced are serialized after the timer
stops and printed, with the slice times, as one JSON object on the last
line.
"""
import json
import sys
import time

spec = json.loads(sys.argv[1])

import arctanpoly as ap  # noqa: E402

import_s = time.monotonic() - spec["spawn_t"]

import mpmath  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import yardstick  # noqa: E402

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

_tracer = tracer.install() if spec["spans"] else None
BETA, ALPHA = ap.SequenceKind.BETA, ap.SequenceKind.ALPHA
records = []
yard_s: list[float] = []
step_time = 0.0
if spec["yard"]:
    yardstick.slice_s()  # warm-up, not counted
for step in spec["steps"]:
    n, x = step["n"], ap.parse_rational(step["x"])
    try:
        start = time.perf_counter()
        beta = ap.build(BETA, n)
        alpha = ap.build(ALPHA, n)
        deriv = ap.arctan_nth_derivative(n, x)
        tan = ap.tan_multiple(n)
        rs = ap.roots(BETA, step["roots"]) if step["roots"] else None
        latency = time.perf_counter() - start
        step_time += latency
    except Exception as exc:  # a failed step is reported, and the session goes on
        records.append({"n": n, "error": repr(exc)})
        continue
    record = {
        "n": n,
        "latency_s": latency,
        "beta": oracle.digest(beta.coefficients),
        "alpha": oracle.digest(alpha.coefficients),
        "deriv": str(deriv),
        "tan": [tan.parity, oracle.digest(tan.numerator.coefficients), oracle.digest(tan.denominator.coefficients)],
    }
    if rs is not None:
        with mpmath.workprec(128):
            record["roots"] = [mpmath.nstr(r.value, 20) for r in rs.roots]
        record["certified"] = rs.all_certified
    records.append(record)
    if spec["yard"]:
        yardstick.interleave(yard_s, step_time)

if _tracer is not None:
    _tracer.dump(spec["spans"], import_s=import_s)
print(json.dumps({"import_s": import_s, "steps": records, "yard_s": yard_s}))
