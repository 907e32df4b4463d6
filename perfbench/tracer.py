"""Span tracer that wraps arctanpoly's functions from outside the library.

A traced child process imports arctanpoly, calls ``install()`` and then runs
its work.  Every wrapped call records a span (id, parent id, name, start,
end) in memory and bumps its counter; ``Tracer.dump`` writes them out once
the process is done, and ``summarize`` turns the dumped files into the
per-layer metrics.  Nothing is added inside the library: the wrappers
replace every binding of each function, because several modules import
names directly (``checks`` holds its own ``build_sequence``,
``cross_validate`` and ``to_mpf``, ``calculus`` its own
``certify_simple_root`` and ``to_mpf``, ``chebyshev`` its own
``eval_poly``).

This module imports nothing heavy, so loading it adds little to a child.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Build methods whose results sit in the families prefix cache.  The set is
# the benchmark's own definition, so the growth count keeps its meaning when
# the library's cache policy changes.
CACHED_METHODS = frozenset(
    {"recurrence", "determinant", "monic-bernoulli", "derivative-recurrence"}
)

# (module, function, span name or None for a count-only wrapper, counter)
FUNCTIONS = [
    ("arctanpoly.highprec", "to_mpf", None, "highprec.to_mpf_calls"),
    ("arctanpoly.highprec", "eval_poly", "highprec.eval", "highprec.eval_calls"),
    ("arctanpoly.highprec", "certify_simple_root", "highprec.certify", "highprec.certify_calls"),
    ("arctanpoly.exact", "bernoulli", "exact.bernoulli", "exact.bernoulli_calls"),
    ("arctanpoly.families", "build", "families.build", "families.build_calls"),
    (
        "arctanpoly.families",
        "build_sequence",
        "families.build_sequence",
        "families.build_sequence_calls",
    ),
    ("arctanpoly.families", "cross_validate", "families.cross_validate", None),
    ("arctanpoly.calculus", "roots", "calculus.roots", "calculus.roots_calls"),
    ("arctanpoly.calculus", "arctan_nth_derivative", "calculus.deriv", None),
    ("arctanpoly.calculus", "artanh_nth_derivative", "calculus.deriv", None),
    ("arctanpoly.chebyshev", "beta_from_chebyshev", "chebyshev.bridge", None),
    ("arctanpoly.chebyshev", "alpha_from_chebyshev", "chebyshev.bridge", None),
    ("arctanpoly.hessenberg", "bracket", "hessenberg", None),
    ("arctanpoly.hessenberg", "build_H", "hessenberg", None),
    ("arctanpoly.hessenberg", "charpoly", "hessenberg", None),
    ("arctanpoly.hessenberg", "eigen_check", "hessenberg", None),
    ("arctanpoly.hessenberg", "monic_reference", "hessenberg", None),
    ("arctanpoly.series", "series_term", "series", None),
    ("arctanpoly.series", "partial_sum", "series", None),
    ("arctanpoly.series", "pi_approx", "series", None),
    ("arctanpoly.series", "compare_series", "series", None),
    ("arctanpoly.connections", "tan_multiple", "connections", None),
    ("arctanpoly.connections", "fibonacci_poly", "connections", None),
    ("arctanpoly.connections", "lucas_poly", "connections", None),
    ("arctanpoly.connections", "matching_poly", "connections", None),
    ("arctanpoly.checks", "suite_identities", "checks.identities", None),
    ("arctanpoly.checks", "suite_cross", "checks.cross", None),
    ("arctanpoly.checks", "suite_connections", "checks.connections", None),
    ("arctanpoly.checks", "suite_hessenberg", "checks.hessenberg", None),
    ("arctanpoly.checks", "suite_series", "checks.series", None),
    ("arctanpoly.cli", "main", "cli.main", None),
]

POLY_MUL = "__mul__"
POLY_OTHER = (
    "__add__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__rmul__",
    "__pow__",
    "scale",
    "differentiate",
    "evaluate",
    "compose",
)

BUILDERS = frozenset({"families.build", "families.build_sequence"})
SUITES = frozenset(
    {"checks.identities", "checks.cross", "checks.connections", "checks.hessenberg", "checks.series"}
)


def coefficient_bits(poly) -> int:
    """Total bit length of the exact coefficients of one polynomial."""
    total = 0
    for c in poly.coefficients:
        if isinstance(c, Fraction):
            total += c.numerator.bit_length() + c.denominator.bit_length()
        else:
            total += c.bit_length()
    return total


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack = [0]  # span id 0 is the process root
        self._ids = itertools.count(1)
        self._builder_depth = 0
        self._max_request: dict[tuple[str, str], int] = {}
        self.install_s = 0.0

    def wrap(self, fn, span: str | None, counter: str | None):
        counts = self.counts
        if span is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        before = self._before_hook(fn, span)
        after = self._after_hook(span)
        is_builder = span in BUILDERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if before is not None:
                before(args, kwargs)
            if is_builder:
                self._builder_depth += 1
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, span, start, end))
                if is_builder:
                    self._builder_depth -= 1
            if after is not None:
                after(result)
            return result

        return traced

    def _before_hook(self, fn, span):
        if span != "families.build_sequence":
            return None
        signature = inspect.signature(fn)

        def enter(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            kind = bound["kind"]
            method = bound.get("method") or _default_method(kind)
            if method.value not in CACHED_METHODS:
                return
            key = (kind.value, method.value)
            n = bound["n_max"]
            self.counts["families.prefix_cached_calls"] += 1
            if n > self._max_request.get(key, -1):
                self.counts["families.prefix_growths"] += 1
                self._max_request[key] = n

        return enter

    def _after_hook(self, span):
        if span in BUILDERS:

            def measure(result):
                if self._builder_depth:  # only the outermost builder counts
                    return
                members = result if isinstance(result, list) else [result]
                self.counts["families.coeff_bits"] += sum(coefficient_bits(p) for p in members)

            return measure
        if span in SUITES:

            def rows(result):
                self.counts["checks.rows"] += len(result)

            return rows
        return None

    def dump(self, path: str, **extra) -> None:
        """Write the spans and counters, then the tracer's own cost (wrapping
        plus serializing) on a second line, so that it can be taken out of
        the process's overhead."""
        began = time.perf_counter()
        names = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[sid, parent, index[name], start, end] for sid, parent, name, start, end in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
            **extra,
        }
        text = json.dumps(payload)
        cost = {"tracer_s": self.install_s + time.perf_counter() - began}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n" + json.dumps(cost) + "\n")


def load(path) -> dict:
    """Read back what ``Tracer.dump`` wrote."""
    with open(path, encoding="utf-8") as fh:
        payload = json.loads(fh.readline())
        payload.update(json.loads(fh.readline()))
    return payload


def _default_method(kind):
    return sys.modules["arctanpoly.families"].DEFAULT_METHOD[kind]


def _rebind(original, replacement) -> None:
    """Point every arctanpoly module attribute that is ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "arctanpoly" or name.startswith("arctanpoly.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every traced function of the already-imported arctanpoly modules.

    Modules are reached through ``sys.modules``: the package attribute
    ``arctanpoly.chebyshev`` is the exported function, not the module.
    """
    start = time.perf_counter()
    tracer = Tracer()
    for module_name, attr, span, counter in FUNCTIONS:
        module = sys.modules.get(module_name)
        if module is None:  # never imported by this process, so never called
            continue
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        _rebind(original, tracer.wrap(original, span, counter))
    cli = sys.modules.get("arctanpoly.cli")
    if cli is not None:
        for attr, value in list(vars(cli).items()):
            if attr.startswith("_cmd_") and callable(value):
                setattr(cli, attr, tracer.wrap(value, "cli.handler", None))
    poly_cls = sys.modules["arctanpoly.poly"].Polynomial
    for attr in (POLY_MUL,) + POLY_OTHER:
        original = poly_cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"Polynomial.{attr}")
            continue
        if attr == POLY_MUL:
            wrapped = tracer.wrap(original, "poly.mul", "poly.mul_calls")
        else:
            wrapped = tracer.wrap(original, "poly.other", None)
        for name, value in list(poly_cls.__dict__.items()):
            if value is original:  # aliases such as __radd__ = __add__
                setattr(poly_cls, name, wrapped)
    tracer.install_s = time.perf_counter() - start
    return tracer


# ---------------------------------------------------------------------------
# aggregation in the parent process
# ---------------------------------------------------------------------------

SELF_METRICS = {
    "poly.mul_self_s": "poly.mul",
    "poly.other_self_s": "poly.other",
    "highprec.eval_self_s": "highprec.eval",
    "exact.bernoulli_self_s": "exact.bernoulli",
    "families.cross_validate_self_s": "families.cross_validate",
    "families.build_sequence_self_s": "families.build_sequence",
    "families.build_self_s": "families.build",
    "calculus.roots_self_s": "calculus.roots",
    "calculus.deriv_self_s": "calculus.deriv",
    "chebyshev.bridge_self_s": "chebyshev.bridge",
    "hessenberg.self_s": "hessenberg",
    "series.self_s": "series",
    "connections.self_s": "connections",
}
TOTAL_METRICS = {
    "checks.identities_s": "checks.identities",
    "checks.cross_s": "checks.cross",
    "checks.connections_s": "checks.connections",
    "checks.hessenberg_s": "checks.hessenberg",
    "checks.series_s": "checks.series",
    "cli.handler_s": "cli.handler",
}
COUNT_METRICS = (
    "poly.mul_calls",
    "highprec.eval_calls",
    "highprec.to_mpf_calls",
    "highprec.certify_calls",
    "exact.bernoulli_calls",
    "families.build_sequence_calls",
    "families.build_calls",
    "families.prefix_growths",
    "families.prefix_cached_calls",
    "families.coeff_bits",
    "calculus.roots_calls",
    "checks.rows",
)


def span_times(payload: dict) -> tuple[dict[str, float], dict[str, float]]:
    """(self time, inclusive time) per span name of one dumped process.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    names = payload["names"]
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in payload["spans"]:
        child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in payload["spans"]:
        duration = end - start
        self_s[names[name]] += duration - child_time[sid]
        total_s[names[name]] += duration
    return self_s, total_s


def summarize(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics over every traced process of one run.

    Each entry of ``processes`` is a loaded payload plus the parent's
    ``wall_s`` (spawn to exit) and ``stdout_bytes`` for that process.
    ``cli.overhead_s`` is process wall time minus handler time, less the
    tracer's own cost.
    """
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    cli = {"cli.import_s": 0.0, "cli.overhead_s": 0.0, "cli.stdout_bytes": 0}
    for payload in processes:
        one_self, one_total = span_times(payload)
        for name, value in one_self.items():
            self_s[name] += value
        for name, value in one_total.items():
            total_s[name] += value
        for name, value in payload["counts"].items():
            counts[name] += value
        cli["cli.import_s"] += payload["import_s"]
        if "cli.main" in one_total:
            cli["cli.overhead_s"] += (
                payload["wall_s"] - one_total.get("cli.handler", 0.0) - payload["tracer_s"]
            )
            cli["cli.stdout_bytes"] += payload["stdout_bytes"]
    metrics: dict[str, float] = {}
    for metric, span_name in SELF_METRICS.items():
        metrics[metric] = self_s[span_name]
    for metric, span_name in TOTAL_METRICS.items():
        metrics[metric] = total_s[span_name]
    for metric in COUNT_METRICS:
        metrics[metric] = counts[metric]
    cached = counts["families.prefix_cached_calls"]
    metrics["families.prefix_hit_ratio"] = (
        1 - counts["families.prefix_growths"] / cached if cached else 0.0
    )
    metrics.update(cli)
    return metrics
