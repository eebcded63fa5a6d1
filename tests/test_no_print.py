"""Only the command line prints: no module of the library outside ``cli.py``
calls ``print``.

An AST scan stands in for a lint rule, as in ``test_imports.py``: it fails
on every call of the name ``print``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stratfit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def print_calls(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_scan_sees_a_print_call():
    source = "def f(x):\n    if x:\n        print(x, file=None)\n    return x\n"
    assert print_calls(source) == ["line 3"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_print_outside_the_cli(path):
    assert print_calls(path.read_text()) == []
