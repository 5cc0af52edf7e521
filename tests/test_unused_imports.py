"""Every module of ``src/``, ``tests/``, ``tools/`` and ``demos/`` reads
each name it imports.  Stdlib ``ast`` only: a name counts as used when the module reads
it anywhere (an ``ast.Name``).  ``__future__`` imports and package
``__init__.py`` re-exports are not checked."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests", "tools", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name the module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]  # import a.b binds a
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from m import X as Y\nX()\n") == ["line 1: Y"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
