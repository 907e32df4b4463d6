"""The library names the benchmark's tracer wraps must keep resolving.

``perfbench/tracer.py`` wraps functions by module and attribute name and
rebinds every module attribute that holds them, so a renamed or deleted
function silently drops out of the per-layer metrics.  This guard runs with
the library's own tests.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402  (standard library only)


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _, _ in tracer.FUNCTIONS]
)
def test_every_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "holder, attr, owner",
    [
        ("arctanpoly.calculus", "certify_simple_root", "arctanpoly.highprec"),
        ("arctanpoly.checks", "to_mpf", "arctanpoly.highprec"),
        ("arctanpoly.checks", "build_sequence", "arctanpoly.families"),
        ("arctanpoly.chebyshev", "eval_poly", "arctanpoly.highprec"),
    ],
)
def test_direct_bindings_the_tracer_rebinds_exist(holder, attr, owner):
    # the tracer's self-test asserts these names are wrapped where they are
    # imported, so each must be the owner's own function under the same name
    bound = getattr(importlib.import_module(holder), attr)
    assert bound is getattr(importlib.import_module(owner), attr)


def test_build_sequence_keeps_its_n_max_parameter():
    # the tracer binds build_sequence's arguments and reads "n_max" by name
    from arctanpoly.families import build_sequence

    assert "n_max" in inspect.signature(build_sequence).parameters


def test_every_cached_route_is_one_the_tracer_counts():
    # the tracer counts prefix growths and cached calls only for the method
    # values in its CACHED_METHODS; a cached route outside that set would
    # leave the families.prefix_* metrics empty on a workload
    from arctanpoly import families

    assert {method.value for _, method in families._ROUTES} <= tracer.CACHED_METHODS
