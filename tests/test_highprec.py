"""The float gateway: only ``highprec`` names mpmath, and it loads mpmath on
first use, so commands that never meet an irrational never import it."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from arctanpoly.calculus import roots
from arctanpoly.chebyshev import trig_spot_check
from arctanpoly.families import SequenceKind
from arctanpoly.hessenberg import eigen_check
from arctanpoly.highprec import MAX_PRECISION, check_precision

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


def _mpmath_loaded_after(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(step) for step in json.loads(proc.stdout)]


def test_exact_commands_never_load_mpmath_and_roots_does():
    exact = [
        ["poly", "--kind", "beta", "--n", "7", "--format", "json"],
        ["poly", "--kind", "p", "--n", "6"],
        ["deriv", "--func", "arctan", "--n", "9", "--x", "2/3"],
        ["deriv", "--func", "artanh", "--n", "4", "--x", "1/2"],
        ["connect", "--what", "tan", "--n", "6"],
    ]
    seen = _mpmath_loaded_after(exact + [["roots", "--kind", "beta", "--n", "4"]])
    assert seen[:-1] == [("import", False)] + [(" ".join(argv), False) for argv in exact]
    assert seen[-1] == ("roots --kind beta --n 4", True)


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


def test_precision_cap_boundary():
    check_precision(1)
    check_precision(MAX_PRECISION)
    with pytest.raises(ValueError, match=f"at most {MAX_PRECISION} bits, got {MAX_PRECISION + 1}"):
        check_precision(MAX_PRECISION + 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda bits: roots(SequenceKind.ALPHA, 2, bits),
        lambda bits: eigen_check(2, bits),
        lambda bits: trig_spot_check(2, 1, bits),
    ],
    ids=["roots", "eigen_check", "trig_spot_check"],
)
def test_precision_above_the_cap_is_refused(call):
    with pytest.raises(ValueError, match=f"at most {MAX_PRECISION} bits"):
        call(MAX_PRECISION + 1)
