"""In-memory span recorder installed around the package's public functions.

The benchmark never edits the package: ``Tracer.installed`` replaces, for
the duration of a ``with`` block, the attributes through which callers
actually reach each layer (``liftproject.simplex.solve`` for every LP,
``liftproject.closure.to_standard`` for the master, ...) by wrappers that
record a span: name, start, end, parent span and the request (top-level
span) it belongs to, plus a few counts read off the call's result.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds
        fields to the span once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "request": parent["request"] if parent else len(self.spans),
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Patch ``(owner, attribute, span name, attrs)`` entries for the
        duration of a ``with`` block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, attrs in points:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _simplex_attrs(args, res):
    lp = args[0]
    return {
        "rows": int(lp.num_rows),
        "pivots": int(res.pivots),
        "phase1_pivots": int(res.phase1_pivots),
        "status": res.status.value,
    }


def _separation_attrs(args, sep):
    outcome = "cut" if sep.found else "inconclusive" if sep.inconclusive else "no_cut"
    return {"outcome": outcome, "pivots": int(sep.pivots)}


def report_attrs(args, report):
    return {"iterations": len(report.iterations)}


def trace_points(lp) -> list[tuple]:
    """Every name through which the package's modules call each layer.

    ``lp`` is the imported ``liftproject`` package.  Modules import some
    functions by name, so each importing module's binding is patched.
    """
    closure, membership, verify = lp.closure, lp.membership, lp.verify
    points = [
        (lp.simplex, "solve", "simplex.solve", _simplex_attrs),
        (membership, "separate", "membership.separate", _separation_attrs),
        (closure.CutPool, "add", "closure.pool.add", lambda a, r: {"result": r}),
        (
            closure.CutPool,
            "maintain",
            "closure.pool.maintain",
            lambda a, r: {"parked": int(r[0]), "reactivated": int(r[1])},
        ),
        (closure, "same_cut", "cuts.same_cut", None),
        (verify, "optimize_closure", "closure.optimize_closure", report_attrs),
    ]
    for module in (closure, membership, verify):
        if "to_standard" in module.__dict__:
            points.append((module, "to_standard", "standard_form.to_standard", None))
        if "tableau_row" in module.__dict__:
            points.append((module, "tableau_row", "standard_form.tableau_row", None))
        for fn in ("intersection_cut", "gmi_cut", "eliminate_slacks", "strengthen"):
            if fn in module.__dict__:
                points.append((module, fn, "cuts.assemble", None))
    return points


PHI_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def latency_summary(prefix: str, seconds: list[float]) -> dict:
    """Median and the highest ladder percentile with at least ten samples
    beyond it (``phi``), in milliseconds, with that level.  The sample count
    is the matching ``.calls`` metric."""
    ms = np.asarray(seconds) * 1e3
    if ms.size == 0:
        return {f"{prefix}.{k}": 0.0 for k in ("ms_p50", "ms_phi", "phi_pct")}
    levels = [p for p in PHI_LADDER if ms.size * (1.0 - p / 100.0) >= 10]
    phi = levels[-1] if levels else PHI_LADDER[0]
    return {
        f"{prefix}.ms_p50": float(np.median(ms)),
        f"{prefix}.ms_phi": float(np.percentile(ms, phi)),
        f"{prefix}.phi_pct": phi,
    }


def span_metrics(spans: list[dict]) -> dict:
    """Per-layer counts and times of one traced pass."""
    by_id = {s["id"]: s for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    named: dict[str, list[dict]] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)
        layer = s["name"].split(".")[0]
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        self_s[layer] = self_s.get(layer, 0.0) + own

    def dur(group):
        return [s["end"] - s["start"] for s in group]

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else ""

    lps = named.get("simplex.solve", [])
    seps = named.get("membership.separate", [])
    master = [s for s in lps if parent_name(s).startswith("closure.")]
    sep_lps = [s for s in lps if parent_name(s) == "membership.separate"]
    adds = named.get("closure.pool.add", [])
    maint = named.get("closure.pool.maintain", [])
    outcomes = [s["outcome"] for s in seps]
    pivots = sum(s["pivots"] for s in lps)
    out = {}
    for layer_name in ("standard_form.to_standard", "standard_form.tableau_row",
                       "cuts.assemble", "cuts.same_cut", "closure.pool.add"):
        group = named.get(layer_name, [])
        out[f"{layer_name}.calls"] = len(group)
        out[f"{layer_name}.s"] = float(sum(dur(group)))
    out.update({
        "simplex.solve.calls": len(lps),
        "simplex.solve.s": float(sum(dur(lps))),
        **latency_summary("simplex.solve", dur(lps)),
        "simplex.pivots": pivots,
        "simplex.phase1_pivots": sum(s["phase1_pivots"] for s in lps),
        "simplex.rows_per_pivot": (
            sum(s["pivots"] * s["rows"] for s in lps) / pivots if pivots else 0.0
        ),
        "simplex.update_flops_computed": sum(s["pivots"] * s["rows"] ** 2 for s in lps),
        "simplex.non_optimal": sum(s["status"] != "optimal" for s in lps),
        "membership.separate.calls": len(seps),
        "membership.separate.s": float(sum(dur(seps))),
        **latency_summary("membership.separate", dur(seps)),
        "membership.pivots": sum(s["pivots"] for s in sep_lps),
        "membership.phase1_pivots": sum(s["phase1_pivots"] for s in sep_lps),
        "membership.cut": outcomes.count("cut"),
        "membership.no_cut": outcomes.count("no_cut"),
        "membership.inconclusive": outcomes.count("inconclusive"),
        "membership.cut_yield": outcomes.count("cut") / len(seps) if seps else 0.0,
        "membership.self_s": self_s.get("membership", 0.0),
        "closure.master.solves": len(master),
        "closure.master.s": float(sum(dur(master))),
        "closure.master.pivots": sum(s["pivots"] for s in master),
        "closure.master.rows_max": max((s["rows"] for s in master), default=0),
        "closure.iterations": sum(
            s["iterations"] for s in named.get("closure.optimize_closure", [])
            + named.get("closure.gmi_rounds", [])
        ),
        "closure.pool.maintain.s": float(sum(dur(maint))),
        "closure.pool.parked": sum(s["parked"] for s in maint),
        "closure.pool.reactivated": sum(s["reactivated"] for s in maint),
        "closure.pool.duplicate_frac": (
            sum(s["result"] == "duplicate_active" for s in adds) / len(adds)
            if adds else 0.0
        ),
        "closure.self_s": self_s.get("closure", 0.0),
        "verify.self_s": self_s.get("verify", 0.0),
        "trace.spans": len(spans),
    })
    return out
