"""Every module-level import in the package, the tests and the benchmark
scripts is used.

A short AST scan stands in for a linter: it collects the names that
top-level ``import`` and ``from ... import`` statements bind and fails on
any that the module never reads. Names listed in ``__all__`` and the
package's ``__init__`` (whose imports are its public re-exports) count as
used; ``from __future__`` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "stratfit").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "bench").rglob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport math\nx = math.pi\n") == ["line 1: os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix().removeprefix("src/"))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
