"""Every imported name in the package and the test suite is used.

No linter is installed alongside the package, so this scan is the guard
against dead imports.  A name counts as used when it is loaded anywhere
in the module, listed in ``__all__``, or named inside a string
annotation; ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/ellspec/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(_used_names(ast.parse(annotation.value, mode="eval")))
    return used


def _unused(tree: ast.Module) -> list[str]:
    used = _used_names(tree)
    return [f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_flags_an_unused_import_and_spares_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import Iterator, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> int:\n"
        "    return json.dumps(a)\n"
    )
    assert _unused(ast.parse(source)) == ["os (line 2)", "Iterator (line 4)"]
