"""Traced stand-in for ``python -m arctanpoly.cli``.

Usage: python3 perfbench/launch_cli.py SPAWN_T SPANS_PATH CLI_ARG...

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process.  The launcher imports arctanpoly, installs the tracer's wrappers,
runs ``arctanpoly.cli.main`` on the remaining arguments with the same exit
code, and writes the spans to SPANS_PATH.
"""
import sys
import time

spawn_t = float(sys.argv[1])
spans_path = sys.argv[2]

import arctanpoly  # noqa: E402
import arctanpoly.cli  # noqa: E402

import_s = time.monotonic() - spawn_t

import tracer  # noqa: E402

_tracer = tracer.install()
_code = None
try:
    _code = sys.modules["arctanpoly.cli"].main(sys.argv[3:])
finally:
    sys.stdout.flush()
    _tracer.dump(spans_path, import_s=import_s)
sys.exit(_code)
