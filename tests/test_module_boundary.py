"""The modules that ``optimize_closure`` runs hold nothing that only the
verification oracles need.  Stdlib ``ast`` only.

* No module on the closure path imports ``verify``.
* Every function, class and method that a closure-path module defines has
  a reader in ``src/`` other than ``verify.py``: an ``ast.Name`` or an
  ``ast.Attribute`` that loads its name.  Definitions, docstrings,
  comments and ``__init__.py`` re-exports are no readers; dunder names
  are exempt.
* ``import liftproject`` does not load ``liftproject.verify``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liftproject"
CLOSURE_PATH = ("closure", "membership", "cuts", "simplex", "standard_form", "instances")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imports_verify(source: str) -> bool:
    """Whether the module imports a module named ``verify``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("verify" in module.split(".") for module in modules):
            return True
    return False


def reads(source: str) -> set[str]:
    """Every name the module loads, as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def definitions(source: str):
    """(qualified name, name) of every function, class and method."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                qualified = f"{prefix}{child.name}"
                yield qualified, child.name
                yield from walk(child, qualified + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(source), "")


def unread(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.qualified`` for each definition of ``modules`` whose name no
    module of ``readers`` loads.  Dunder names are exempt."""
    loaded = set().union(*(reads(text) for text in readers.values()))
    return [
        f"{module}.{qualified}"
        for module, text in modules.items()
        for qualified, name in definitions(text)
        if not (name.startswith("__") and name.endswith("__")) and name not in loaded
    ]


def test_the_check_sees_an_import_of_verify():
    assert imports_verify("from .verify import check_duality\n")
    assert imports_verify("from . import simplex, verify\n")
    assert imports_verify("import liftproject.verify\n")
    assert imports_verify("from liftproject.verify import run_suite\n")
    assert not imports_verify("from .simplex import solve\n'''verify'''\n")


def test_the_check_sees_a_name_only_an_oracle_reads():
    closure_path = {
        "m": (
            '"""Docstrings name f and g."""\n'
            "class A:\n    def used(self):\n        pass\n\n"
            "    def only_checked(self):\n        pass\n\n"
            "    def __repr__(self):\n        return ''\n\n"
            "def f():\n    return A().used()\n\n"
            "def g():\n    pass\n\n"
            "f()\n"
        )
    }
    verify = "from m import A, g\n\ng()\nA().only_checked()\n"
    assert unread(closure_path, closure_path) == ["m.A.only_checked", "m.g"]
    # a reader elsewhere in src counts, an oracle does not
    assert unread(closure_path, {**closure_path, "n": "import m\nm.g()\n"}) == [
        "m.A.only_checked"
    ]
    assert unread(closure_path, {**closure_path, "verify": verify}) == []


def test_no_closure_module_imports_verify():
    importers = [
        name
        for name in CLOSURE_PATH
        if imports_verify((SRC / f"{name}.py").read_text())
    ]
    assert importers == []


def test_every_closure_definition_has_a_reader_besides_verify():
    closure_path = {name: (SRC / f"{name}.py").read_text() for name in CLOSURE_PATH}
    readers = {
        path.name: path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.name != "verify.py"
    }
    assert unread(closure_path, readers) == []


def test_importing_the_package_leaves_verify_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, liftproject; print('liftproject.verify' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"
