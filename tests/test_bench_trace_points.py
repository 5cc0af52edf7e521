"""The benchmark's span wrappers patch the package by attribute name
(``perfbench/spans.py``).  Installing them here makes a refactor that drops
or renames one of those names fail in the test suite rather than halfway
through a benchmark run."""

import importlib.util
from pathlib import Path

import liftproject
import liftproject.verify
from liftproject.closure import ClosureConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
