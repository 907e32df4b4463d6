"""Every name a library module imports is used in that module.

No linter ships with the project, so this stands in for an unused-import
check; ``__init__`` re-exports its imports and is left out.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arctanpoly"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in _imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = _unused(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports {unused} without using them"


def test_the_check_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import a, b as c\n"
        "os.sep\n"
        "c()\n"
    )
    assert _unused(source) == ["a"]
    assert {"connections.py", "families.py", "series.py"} <= {p.name for p in MODULES}
