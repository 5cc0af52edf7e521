"""Closure benchmark: time to a bound, pivots and bound quality.

    python3 perfbench/run.py --workload knapsack-pe --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see README.md in this directory):
knapsack-pe, cover-pestar, gint-gmi and verify.  The base instances of each
workload are fixed; ``--seed`` draws the order in which they are solved and,
except on cover-pestar, a random row and column order for each of them,
which moves pivot paths but not bounds.  Each run generates its
inputs, writes them as MPS and hands only those files to the package
(``read_mps`` -> ``normalize`` -> ``optimize_closure`` / ``gmi_rounds``, or
``verify.run_suite``).  It solves the whole instance set repeatedly for
``--seconds``, checks every output against references computed by
``reference.py`` in a child process, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced pass with ``--trace 1``.  Metric names and units come from
BENCHMARK.json.  Generated files, the reference cache and span traces go
to ``.perfbench/`` under the repository root.
"""

import os

# Pivot paths depend on the BLAS thread count, so it is pinned before numpy
# loads; the value is printed with the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import generators as gen  # noqa: E402
import spans as spanlib  # noqa: E402

FAMILY_SEED = 20101005  # fixes the base instances of every workload
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
MIN_PASSES = 3  # untraced passes per run, at least
MIN_TRACED_PASSES = 2  # traced and untraced passes each, with --trace 1
GMI_ROUNDS = 20
VERIFY_COUNT = 20
VERIFY_SEED = 7
SUITES = ("theorem3", "theorem4", "duality", "validity", "proposition3")
REL_TOL = 1e-6  # objective and cut comparisons, relative to 1 + |value|
CHILD_TIMEOUT = 170.0


@dataclass
class Workload:
    mode: str  # closure mode, or 'verify'
    expected: str  # termination every report must end with
    base: tuple = ()  # (family, *size) per base instance
    permute: bool = True  # the seed permutes rows and columns


WORKLOADS = {
    # wide binary knapsacks: cold-start membership separation dominates
    "knapsack-pe": Workload(
        "pe", "proved", (("mkp", 5, 60), ("mkp", 6, 80), ("mkp", 4, 100))
    ),
    # covering rows and many cuts: the master's share of time is about a
    # sixth, against 4 % on knapsack-pe.  pestar paths on these degenerate
    # LPs change with the row and column order (pivots per instance vary by
    # 10 to 50 %), so rows and columns keep their generated order and the
    # seed only orders the instances
    "cover-pestar": Workload(
        "pestar",
        "proved",
        (("steiner", 2), ("steiner", 3), ("cover", 35, 70, 0.07)),
        permute=False,
    ),
    # no bound rows and no membership LP: tableau rows, GMI cuts, dedup
    "gint-gmi": Workload("gmi", "rounds_done", (("gint", 20, 60),) * 3),
    # thousands of tiny LPs: per-call simplex set-up and the oracles
    "verify": Workload("verify", ""),
}


def base_models(name: str, wl: Workload) -> list:
    models = []
    for i, (family, *size) in enumerate(wl.base):
        rng = np.random.default_rng([FAMILY_SEED, i])
        label = f"{name}-{i}"
        if family == "mkp":
            models.append(gen.multi_knapsack(rng, *size, label))
        elif family == "cover":
            models.append(gen.set_cover(rng, *size, label))
        elif family == "steiner":
            models.append(gen.bose_steiner(*size, label))
        elif family == "gint":
            models.append(gen.general_knapsack(rng, *size, label))
        else:
            raise ValueError(f"unknown family {family!r}")
    return models


# ---------------------------------------------------------------------------
# References (child process, cached by model content)


def references(models: list, pe: bool) -> list[dict]:
    cache = WORK / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    key = [f"{m.digest()}{'-pe' if pe else ''}" for m in models]
    todo = {}  # key -> first model with it, for keys not yet cached
    for i, k in enumerate(key):
        if k not in todo and not (cache / f"{k}.json").exists():
            todo[k] = i
    if todo:
        job = []
        for k, i in todo.items():
            path = cache / f"{k}.npz"
            models[i].save(path)
            job.append({"model": str(path), "pe": pe})
        job_path = cache / f"job-{os.getpid()}.json"
        out_path = cache / f"job-{os.getpid()}.out.json"
        job_path.write_text(json.dumps(job))
        child = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(job_path), str(out_path)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"reference.py failed:\n{child.stderr[-2000:]}")
        for k, rec in zip(todo, json.loads(out_path.read_text())):
            (cache / f"{k}.json").write_text(json.dumps(rec))
            (cache / f"{k}.npz").unlink()
        job_path.unlink()
        out_path.unlink()
    return [json.loads((cache / f"{k}.json").read_text()) for k in key]


def setup_seconds(files: list) -> float:
    """Median over fresh interpreters of import + read_mps + normalize."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, files)],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        if not rec["module"].startswith(str(SRC)):
            raise RuntimeError(f"set-up probe imported {rec['module']}")
        times.append(rec["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Correctness checks, all outside the timed region


def round_trip_problems(nm, model) -> list[str]:
    """``read_mps`` + ``normalize`` must give the documented canonical form."""
    can = gen.canonical(model)
    n = model.c.size
    bound_rows = sum(label.startswith("bound:") for label in nm.row_labels)
    checks = {
        "matrix": nm.a.shape == can.a.shape and np.array_equal(nm.a, can.a),
        "rhs": np.array_equal(nm.b, can.b),
        "objective": np.array_equal(nm.objective, can.objective),
        "sense": nm.objective_sign == can.sign and nm.objective_offset == 0.0,
        "bounds": bound_rows == can.bound_rows
        and np.array_equal(nm.shift, np.zeros(n)),
        "integrality": nm.num_integer == model.num_integer
        and np.array_equal(nm.perm, np.arange(n)),
    }
    changed = [k for k, ok in checks.items() if not ok]
    return [f"{model.name}: round trip changed the {k}" for k in changed]


def _tolerance(z: float) -> float:
    return REL_TOL * (1.0 + abs(z))


def report_problems(
    rep, ref: dict, x_opt, sign: float, expected: str, eps: float
) -> list:
    """Termination, z_lp, bound between z_lp and z_opt, cuts valid at the
    MILP optimum and, when ``ref`` holds one, the exact pe bound."""
    out = []
    if expected and rep.termination != expected:
        out.append(f"termination {rep.termination}, expected {expected}")
    if abs(rep.z_lp - ref["z_lp"]) > _tolerance(ref["z_lp"]):
        out.append(f"z_lp {rep.z_lp!r} != reference {ref['z_lp']!r}")
    z_opt = ref["z_opt"]
    if z_opt is None:
        return out
    low, high = sign * z_opt - _tolerance(z_opt), sign * rep.z_lp + _tolerance(rep.z_lp)
    if not low <= sign * rep.z_cut <= high:
        out.append(f"bound {rep.z_cut!r} outside [z_lp {rep.z_lp!r}, z_opt {z_opt!r}]")
    bad = sum(
        cut.coeffs @ x_opt
        < cut.rhs - REL_TOL * (1.0 + np.abs(cut.coeffs) @ np.abs(x_opt))
        for cut in rep.cut_rows
    )
    if bad:
        out.append(f"{bad} of {len(rep.cut_rows)} cuts cut off the MILP optimum")
    if "z_pe" in ref:
        diff = sign * (rep.z_cut - ref["z_pe"])
        if not -_tolerance(ref["z_pe"]) <= diff <= eps * (1.0 + abs(ref["z_pe"])):
            out.append(f"pe bound {rep.z_cut!r} != lifted-LP {ref['z_pe']!r}")
    return out


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    times: list = field(default_factory=list)  # seconds per item
    outputs: list = field(default_factory=list)  # deterministic, per item
    results: list = field(default_factory=list)  # reports or suite results
    errors: list = field(default_factory=list)
    tracer: spanlib.Tracer | None = None

    @property
    def seconds(self) -> float:
        return sum(self.times)


def report_signature(rep) -> tuple:
    return (
        rep.termination, rep.z_lp, rep.z_cut, rep.master_pivots,
        rep.separation_pivots, rep.num_cuts, len(rep.cut_rows),
    )


def suite_signature(res) -> tuple:
    return (res.suite, res.cases, res.passed, res.failed, res.skipped)


def run_pass(items, call, signature, lp, traced: bool, names, attrs=None) -> Pass:
    """Call ``call(item)`` on every item, timing each call.  A traced pass
    records spans around the layers and one span named ``names[i]`` around
    each call."""
    p = Pass(tracer=spanlib.Tracer() if traced else None)
    if traced:
        install = p.tracer.installed(spanlib.trace_points(lp))
    else:
        install = contextlib.nullcontext()
    with install:
        for item, name in zip(items, names):
            fn = p.tracer.wrap(name, call, attrs) if traced else call
            t0 = time.perf_counter()
            try:
                res = fn(item)
            except Exception:  # a failed item is counted and the run goes on
                res = None
                p.errors.append(traceback.format_exc(limit=3))
            p.times.append(time.perf_counter() - t0)
            p.results.append(res)
            p.outputs.append(None if res is None else signature(res))
    return p


def timed_passes(run_one, seconds: float, trace: bool):
    """Alternate untraced and (with ``trace``) traced passes for about
    ``seconds``, never fewer than the minimum counts."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(run_one(use_trace))
        enough = len(plain) >= (MIN_TRACED_PASSES if trace else MIN_PASSES) and (
            not trace or len(traced) >= MIN_TRACED_PASSES
        )
        elapsed = time.perf_counter() - t_start
        if enough and elapsed * (1.0 + 1.0 / (len(plain) + len(traced))) > seconds:
            return plain, traced


def solve_seconds(passes: list) -> float:
    """Sum over items of each item's median time across passes: a burst of
    load from outside slows one item of one pass, not the figure."""
    return float(sum(statistics.median(t) for t in zip(*(p.times for p in passes))))


def median_pass(passes: list) -> Pass:
    return sorted(passes, key=lambda p: p.seconds)[(len(passes) - 1) // 2]


# ---------------------------------------------------------------------------
# Workloads


def closure_run(name: str, wl: Workload, args, lp) -> dict:
    base = base_models(name, wl)
    refs = references(base, pe=wl.mode == "pe")
    workdir = WORK / f"{name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(base))
    refs = [refs[i] for i in order]
    models, files, x_opts = [], [], []
    for i in order:
        b = base[i]
        if wl.permute:
            model, cols = b.permuted(rng, f"{b.name}-s{args.seed}")
        else:
            model, cols = b, np.arange(b.c.size)
        models.append(model)
        x_opts.append(np.asarray(refs[len(models) - 1]["x_opt"])[cols])
        files.append(workdir / f"{model.name}.mps")
        gen.write_mps(model, files[-1])

    setup_s = setup_seconds(files)
    setup_tracer = spanlib.Tracer()
    read = setup_tracer.wrap("instances.read_mps", lp.read_mps)
    normalize = setup_tracer.wrap("instances.normalize", lp.normalize)
    nms = [normalize(read(f)) for f in files]
    problems = [p for nm, m in zip(nms, models) for p in round_trip_problems(nm, m)]

    cfg = lp.ClosureConfig(mode=wl.mode)
    if wl.mode == "gmi":
        names = ["closure.gmi_rounds"] * len(nms)

        def call(nm):
            return lp.gmi_rounds(nm, GMI_ROUNDS)

    else:
        names = ["closure.optimize_closure"] * len(nms)

        def call(nm):
            return lp.optimize_closure(nm, cfg)

    # warm-up: first-call costs stay out of solve_s; a failure here shows
    # again, and is counted, in the timed passes
    with contextlib.suppress(Exception):
        call(min(nms, key=lambda nm: nm.a.size))

    def one(traced):
        return run_pass(
            nms, call, report_signature, lp, traced, names, spanlib.report_attrs
        )

    plain, traced = timed_passes(one, args.seconds, args.trace)
    first = plain[0]
    bad_items, gaps, pivots = set(), [], 0
    for i, (rep, model) in enumerate(zip(first.results, models)):
        if rep is None:
            bad_items.add(i)
            continue
        sign = 1.0 if model.sense == "max" else -1.0
        found = report_problems(rep, refs[i], x_opts[i], sign, wl.expected, cfg.eps)
        if found:
            bad_items.add(i)
        problems += [f"{model.name}: {p}" for p in found]
        gaps.append(lp.gap_closed(rep.z_lp, rep.z_cut, refs[i]["z_opt"]))
        pivots += rep.master_pivots + rep.separation_pivots
        print(
            f"instance {model.name} rows={nms[i].num_rows} term={rep.termination} "
            f"z_lp={rep.z_lp:.6f} z_cut={rep.z_cut:.6f} z_opt={refs[i]['z_opt']} "
            f"z_pe={refs[i].get('z_pe')} gap={gaps[-1]:.3f}% "
            f"pivots={rep.master_pivots}+{rep.separation_pivots} cuts={rep.num_cuts}"
        )
    attempted, failed = tally(plain + traced, first, bad_items)
    problems += [e for p in plain + traced for e in p.errors]

    values = {
        "solve_s": solve_seconds(plain),
        "setup_s": setup_s,
        "pivots_total": pivots,
        "gap_closed_pct": float(np.mean(gaps)),
    }
    layer = {
        "instances.read_mps.s": span_seconds(setup_tracer.spans, "instances.read_mps"),
        "instances.normalize.s": span_seconds(
            setup_tracer.spans, "instances.normalize"
        ),
        "instances.rows": sum(nm.num_rows for nm in nms),
        "instances.bound_rows": sum(
            label.startswith("bound:") for nm in nms for label in nm.row_labels
        ),
    }
    return finish(name, args, values, layer, plain, traced, attempted, failed, problems)


def span_seconds(spans: list, name: str) -> float:
    return float(sum(s["end"] - s["start"] for s in spans if s["name"] == name))


def tally(passes: list, first: Pass, bad_items: set) -> tuple[int, int]:
    """Every item solve is an attempt; it fails when it raised, when its
    item failed a check, or when its output differs from the first pass."""
    attempted = failed = 0
    for p in passes:
        for i, out in enumerate(p.outputs):
            attempted += 1
            failed += out is None or i in bad_items or out != first.outputs[i]
    return attempted, failed


def verify_run(name: str, args, lp) -> dict:
    rng = np.random.default_rng(args.seed)
    order = [SUITES[i] for i in rng.permutation(len(SUITES))]
    setup_s = setup_seconds([])

    def call(suite):
        return lp.verify.run_suite(suite, count=VERIFY_COUNT, seed=VERIFY_SEED)

    names = [f"verify.{s}" for s in order]
    # Warm-up pass, traced: it counts the pivots of every LP and keeps the
    # closure reports of the validity suite for the gap and cut checks.
    captured = []
    run_closure = lp.verify.optimize_closure

    def capture(nm, *a, **kw):
        rep = run_closure(nm, *a, **kw)
        captured.append((nm, rep))
        return rep

    lp.verify.optimize_closure = capture
    try:
        warm = run_pass(order, call, suite_signature, lp, True, names)
    finally:
        lp.verify.optimize_closure = run_closure
    pivots_total = sum(
        s["pivots"] for s in warm.tracer.spans if s["name"] == "simplex.solve"
    )

    models = []
    for i, (nm, _) in enumerate(captured):
        n = nm.a.shape[1]
        models.append(gen.Model(
            f"verify-{i}", "max", nm.objective, nm.a, "G", nm.b,
            np.full(n, np.inf), False, nm.num_integer,
        ))
    refs = references(models, pe=False)
    problems, gaps, bad_reports = list(warm.errors), [], 0
    for (nm, rep), ref, model in zip(captured, refs, models):
        x_opt = None if ref["x_opt"] is None else np.asarray(ref["x_opt"])
        found = report_problems(rep, ref, x_opt, 1.0, "", 0.0)
        bad_reports += bool(found)
        problems += [f"{model.name}: {p}" for p in found]
        # the mean covers the draws that have an integrality gap to close
        z_opt, z_lp = ref["z_opt"], ref["z_lp"]
        if z_opt is not None and abs(z_opt - z_lp) > REL_TOL * (1.0 + abs(z_lp)):
            gaps.append(lp.gap_closed(rep.z_lp, rep.z_cut, z_opt))

    def one(traced):
        return run_pass(order, call, suite_signature, lp, traced, names)

    plain, traced = timed_passes(one, args.seconds, args.trace)
    bad_items = {i for i, res in enumerate(warm.results) if res is None or res.failed}
    attempted, failed = tally(plain + traced, warm, bad_items)
    attempted += len(captured)
    failed += bad_reports
    problems += [e for p in plain + traced for e in p.errors]
    for res in warm.results:
        if res is not None:
            print(f"suite {res.suite} cases={res.cases} passed={res.passed} "
                  f"failed={res.failed} skipped={res.skipped}")
    print(f"validity closures checked={len(captured)} with_gap={len(gaps)}")

    values = {
        "solve_s": solve_seconds(plain),
        "setup_s": setup_s,
        "pivots_total": pivots_total,
        "gap_closed_pct": float(np.mean(gaps)),
    }
    results = [r for r in warm.results if r is not None]
    layer = {
        "instances.read_mps.s": 0.0,
        "instances.normalize.s": 0.0,
        "instances.rows": 0,
        "instances.bound_rows": 0,
        "verify.cases": sum(r.cases for r in results),
        "verify.skipped": sum(r.skipped for r in results),
    }
    return finish(name, args, values, layer, plain, traced, attempted, failed, problems)


# ---------------------------------------------------------------------------
# Output


def finish(
    name, args, values, layer, plain, traced, attempted, failed, problems
) -> dict:
    for p in problems:
        print(f"FAILED {p}")
    values["ok_frac"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"passes untraced={[round(p.seconds, 4) for p in plain]}")
    section = "end_to_end"
    if args.trace:
        section = "per_layer"
        mid = median_pass(traced)
        untraced_s = solve_seconds(plain)
        traced_s = solve_seconds(traced)
        values = {
            **spanlib.span_metrics(mid.tracer.spans),
            **{
                f"verify.{s}.s": span_seconds(mid.tracer.spans, f"verify.{s}")
                for s in SUITES
            },
            "verify.cases": 0,
            "verify.skipped": 0,
            **layer,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        }
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        mid.tracer.write_jsonl(trace_dir / f"{name}-seed{args.seed}.jsonl")
        print(f"passes traced={[round(p.seconds, 4) for p in traced]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec
        },
    }


def run_all(args) -> int:
    """Every workload in its own process; one line per end-to-end metric."""
    ok = True
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if child.returncode != 0:
            print(f"{name} error\n{child.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, rec in result["metrics"].items():
            print(f"{name} {metric} = {rec['value']:.6g} {rec['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "liftproject" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/liftproject", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import liftproject as lp
    import liftproject.verify  # noqa: F401  (bound as lp.verify)

    import scipy

    print(
        f"env python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    wl = WORKLOADS[args.workload]
    if wl.mode == "verify":
        result = verify_run(args.workload, args, lp)
    else:
        result = closure_run(args.workload, wl, args, lp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
