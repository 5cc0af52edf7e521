"""Every module of ``src/``, ``tests/``, ``tools/`` and ``demos/`` reads
each name it imports.  Stdlib ``ast`` only: a name counts as used when the module reads
it anywhere (an ``ast.Name``).  ``__future__`` imports and package
``__init__.py`` re-exports are not checked.

Every function, method and class that ``src/`` defines is named somewhere
in ``src/``, ``tests/``, ``tools/``, ``demos/`` or ``perfbench/`` besides a
definition of that name: a word match over the text, comments included.
Dunder names are exempt."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests", "tools", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _definitions(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFINITIONS):
            yield node


def dead_definitions(sources: dict[str, str], others=()) -> list[str]:
    """``path line N: name`` for each function, method or class of
    ``sources`` whose name no text of ``sources`` or ``others`` spells
    outside the definitions of that name.  Dunder names are exempt."""
    texts = [*sources.values(), *others]
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defined = Counter(node.name for text in texts for node in _definitions(text))
    return [
        f"{path} line {node.lineno}: {node.name}"
        for path, text in sources.items()
        for node in _definitions(text)
        if not re.fullmatch(r"__\w+__", node.name)
        and words[node.name] <= defined[node.name]
    ]


def test_the_check_sees_a_dead_definition():
    src = {"m.py": "def f():\n    pass\n\n\ndef g():\n    f()\n"}
    assert dead_definitions(src) == ["m.py line 5: g"]
    assert dead_definitions(src, ["g()\n"]) == []
    # another definition of the name does not count as a use
    assert dead_definitions(src, ["def g():\n    pass\n"]) == ["m.py line 5: g"]
    cls = {"c.py": "class A:\n    def __init__(self):\n        pass\n"}
    assert dead_definitions(cls, ["# A\n"]) == []


def test_every_definition_in_src_is_named_elsewhere():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    others = [
        path.read_text()
        for folder in ("tests", "tools", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert dead_definitions(sources, others) == []
