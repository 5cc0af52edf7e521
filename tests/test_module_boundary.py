"""The modules that ``optimize_closure`` runs hold nothing that only the
verification oracles need.  Stdlib ``ast`` only.

* No module on the closure path imports ``verify``.
* Every function, class and method that a closure-path module defines has
  a reader in ``src/`` other than ``verify.py``: an ``ast.Name`` or an
  ``ast.Attribute`` that loads its name.  Definitions, docstrings,
  comments and ``__init__.py`` re-exports are no readers; dunder names
  are exempt.
* ``import liftproject`` does not load ``liftproject.verify``.
* ``standard_form`` is the one module that imports scipy, and the package,
  ``verify`` and ``cli`` load neither ``scipy.linalg`` nor the
  ``numpy.f2py`` and ``numpy.testing`` that its import pulls in.
* ``closure`` is the one module that imports ``pivoted_qr``, for the pass
  start's trim: the simplex has no crash basis.
* ``simplex.solve``, ``membership.membership_value`` and
  ``membership.separate`` take a start with no default (``inspect``).
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liftproject"
CLOSURE_PATH = ("closure", "membership", "cuts", "simplex", "standard_form", "instances")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported(source: str) -> list[str]:
    """The dotted names the module's import statements name, relative ones
    without their leading dots."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return out


def imports_verify(source: str) -> bool:
    """Whether the module imports a module named ``verify``."""
    return any("verify" in module.split(".") for module in imported(source))


def imports_scipy(source: str) -> bool:
    """Whether the module imports scipy or a module of it."""
    return any(module.split(".")[0] == "scipy" for module in imported(source))


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


def test_the_check_sees_an_import_of_scipy():
    assert imports_scipy("import scipy\n")
    assert imports_scipy("import numpy as np, scipy.linalg\n")
    assert imports_scipy("from scipy import linalg\n")
    assert imports_scipy("def f():\n    from scipy.linalg import qr\n")
    assert not imports_scipy('from .standard_form import pivoted_qr\n"""scipy"""\n')


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


def fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` in a new interpreter that imports the package from
    ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


def test_importing_the_package_leaves_verify_unloaded():
    code = "import sys, liftproject; print('liftproject.verify' in sys.modules)"
    assert fresh_interpreter(code) == "False"


def test_only_standard_form_imports_scipy():
    importers = [
        path.stem for path in sorted(SRC.glob("*.py")) if imports_scipy(path.read_text())
    ]
    assert importers == ["standard_form"]


def test_no_entry_point_loads_scipy_linalg():
    code = (
        "import sys, liftproject, liftproject.verify, liftproject.cli\n"
        "print(sorted(m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing')"
        " if m in sys.modules))"
    )
    assert fresh_interpreter(code) == "[]"


def imports_name(source: str, name: str) -> bool:
    """Whether the module imports ``name`` from some module."""
    return any(module.split(".")[-1] == name for module in imported(source))


def test_the_check_sees_an_import_of_pivoted_qr():
    assert imports_name("from .standard_form import Basis, pivoted_qr\n", "pivoted_qr")
    assert imports_name("def f():\n    from .standard_form import pivoted_qr\n", "pivoted_qr")
    assert not imports_name('from . import standard_form\n"""pivoted_qr"""\n', "pivoted_qr")


def test_only_closure_imports_pivoted_qr():
    importers = [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if imports_name(path.read_text(), "pivoted_qr")
    ]
    assert importers == ["closure"]


def test_every_lp_entry_point_requires_a_start():
    from liftproject import membership, simplex

    for fn in (simplex.solve, membership.membership_value, membership.separate):
        start = inspect.signature(fn).parameters["start"]
        assert start.default is inspect.Parameter.empty, fn.__name__
