"""The benchmark's span wrappers patch the package by attribute name
(``perfbench/spans.py``).  Installing them here makes a refactor that drops
or renames one of those names fail in the test suite rather than halfway
through a benchmark run."""

import ast
import importlib.util
from pathlib import Path

import liftproject
import liftproject.verify
from liftproject.closure import ClosureConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PACKAGE = Path(liftproject.__file__).resolve().parent
# functions the benchmark counts by patching their module attribute: a
# module that bound one by name would call past the patch
PATCHED_BY_ATTRIBUTE = {"simplex": "solve", "membership": "separate"}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_points_install_and_record(t1):
    spans = _spans_module()
    points = spans.trace_points(liftproject)
    originals = [owner.__dict__[attr] for owner, attr, _, _ in points]
    tracer = spans.Tracer()
    with tracer.installed(points):
        rep = liftproject.verify.optimize_closure(t1, ClosureConfig(mode="pe"))
    assert rep.termination == "proved"
    assert [owner.__dict__[attr] for owner, attr, _, _ in points] == originals
    names = {s["name"] for s in tracer.spans}
    assert {
        "closure.optimize_closure",
        "simplex.solve",
        "membership.separate",
        "closure.pool.add",
        "closure.pool.maintain",
        "standard_form.to_standard",
        "standard_form.tableau_row",
        "cuts.assemble",
    } <= names
    metrics = spans.span_metrics(tracer.spans)
    assert metrics["closure.iterations"] == len(rep.iterations)
    assert metrics["membership.separate.calls"] == rep.num_separations


def by_name_imports(source: str) -> list[str]:
    """``module.name`` for each import of a PATCHED_BY_ATTRIBUTE function by
    name in ``source``, relative or absolute, aliased or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rsplit(".", 1)[-1]
            for alias in node.names:
                if PATCHED_BY_ATTRIBUTE.get(module) == alias.name:
                    found.append(f"{module}.{alias.name}")
    return found


def test_by_name_import_check_sees_every_form():
    snippet = (
        "from . import simplex, membership\n"
        "from .simplex import BoundedLp, solve\n"
        "from liftproject.membership import separate as sep\n"
        "from .membership import separate_all\n"
        "from .cuts import solve\n"
    )
    assert by_name_imports(snippet) == ["simplex.solve", "membership.separate"]


def test_no_module_binds_a_counted_function_by_name():
    # the verify workload's pivots_total sums the spans of simplex.solve;
    # ``__init__`` re-exports both functions for users and calls neither
    found = {
        path.name: by_name_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(found) >= 8
    assert not any(found.values()), found
