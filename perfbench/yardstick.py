"""A fixed reference computation that measures the machine's current speed.

The benchmark's machines share their cores with other tenants, and the
speed of pure-Python arithmetic there drifts by a fifth or more over
minutes.  Every end-to-end run therefore interleaves short slices of this
computation with its ops (about ``SHARE`` of the op time) and divides its
time metrics by the run's slowdown, ``mean slice time / REF_SLICE_S``: a run
made while the machine is slow has slow slices too, and the drift cancels.
The slices never call arctanpoly, so no change to the library can move them.

The work is interpreter-bound rational and multiprecision arithmetic, as in
the library: integer polynomial products, Fraction sums, mpmath polynomial
evaluation and dict churn.
"""
from __future__ import annotations

import time
from fractions import Fraction

import mpmath

# Slice time on the machine the benchmark was tuned on (2 vCPUs of a shared
# Intel Xeon at 2.1 GHz, Python 3.11 with mpmath's pure-Python backend),
# taken near its fast end.  Normalized times are seconds on that machine.
REF_SLICE_S = 0.1
# Share of the op time spent on slices.
SHARE = 0.08

_A = [(-1) ** k * (3 ** (k % 97) + k) for k in range(120)]
_B = [(k * 7919) ** 5 for k in range(120)]


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _round() -> None:
    for _ in range(3):
        product = _polymul(_A, _B)
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction((-1) ** k, 2 * k + 1)
    with mpmath.workdps(100):
        x = mpmath.mpf(1) / 3
        for _ in range(8):
            value = mpmath.mpf(0)
            for c in product[:200]:
                value = value * x + c
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i % 977] = counts.get(i % 977, 0) + i


def slice_s() -> float:
    """Wall time of one slice of the reference computation."""
    start = time.perf_counter()
    for _ in range(4):
        _round()
    return time.perf_counter() - start


def interleave(slices: list[float], op_time: float) -> None:
    """Append slices until they take ``SHARE`` of ``op_time``."""
    while sum(slices) < SHARE * op_time:
        slices.append(slice_s())
