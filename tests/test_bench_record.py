"""The benchmark record tool assembles two runs into the BENCH_*.json layout."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(pivots: int, solve_s: float, seps: int = 37, failed: int = 0) -> str:
    last = {
        "correct": failed == 0,
        "attempted": 75,
        "failed": failed,
        "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "pivots_total": {"value": pivots, "unit": "count"},
        },
    }
    return "\n".join(
        [
            "env python=3.11.7 numpy=2.4.6 scipy=1.17.1 nproc=2 blas_threads=1 "
            "workload=knapsack-pe seed=8 seconds=20.0 trace=0",
            f"instance knapsack-pe-0-s8 rows=65 term=proved pivots=31+{seps} cuts=15",
            "instance knapsack-pe-1-s8 rows=86 term=proved pivots=56+81 cuts=31",
            f"passes untraced=[0.08, {solve_s}]",
            json.dumps(last),
            "",
        ]
    )


def test_two_canned_runs_assemble_into_the_committed_layout():
    tool = _tool()
    parent, change = _stdout(461, 0.081), _stdout(375, 0.077)
    record = tool.assemble(
        {("knapsack-pe", 8, "change"): change, ("knapsack-pe", 8, "parent"): parent},
        revisions={"parent": "a" * 40, "change": "b" * 40},
        seeds=[8],
        held_out=8,
        seconds=20,
        note="The change claims fewer pivots.",
    )
    assert list(record) == [
        "description", "command", "seconds", "seeds", "held_out_seed",
        "environment", "revisions", "runs", "lines",
    ]
    assert record["description"].endswith(
        "Seed 8 was not used while building the change. "
        "The change claims fewer pivots."
    )
    assert record["command"] == (
        "python3 perfbench/run.py --workload <workload> --seed <seed> "
        "--seconds 20 --trace 0"
    )
    assert (record["seconds"], record["seeds"], record["held_out_seed"]) == (20, [8], 8)
    env = record["environment"]
    assert [env[k] for k in ("python", "numpy", "scipy", "nproc", "blas_threads")] == [
        "3.11.7", "2.4.6", "1.17.1", "2", "1"
    ]
    assert env["machine"]
    assert record["revisions"] == {"parent": "a" * 40, "change": "b" * 40}
    runs = record["runs"]["knapsack-pe"]["8"]
    assert list(runs) == ["parent", "change"]
    assert runs["parent"] == json.loads(parent.splitlines()[-1])
    assert runs["change"]["metrics"]["pivots_total"]["value"] == 375
    json.dumps(record)  # serializable as it stands


def test_differing_output_lines_are_listed(capsys):
    # the two sides differ in one instance line and in lines the record
    # does not keep (the pass times); only that instance line is listed
    tool = _tool()
    record = tool.assemble(
        {
            ("knapsack-pe", 8, "parent"): _stdout(461, 0.081, seps=37),
            ("knapsack-pe", 8, "change"): _stdout(375, 0.077, seps=29),
            ("gint-gmi", 8, "parent"): _stdout(519, 1.4),
            ("gint-gmi", 8, "change"): _stdout(519, 1.3),
        },
        revisions={"parent": "a" * 40, "change": "b" * 40},
        seeds=[8],
        held_out=8,
        seconds=20,
    )
    lines = record["lines"]["knapsack-pe"]["8"]
    assert [len(lines[side]) for side in ("parent", "change")] == [2, 2]
    assert lines["parent"][1] == lines["change"][1]
    assert tool.differing_lines(record) == {
        ("knapsack-pe", "8"): [
            (
                "instance knapsack-pe-0-s8 rows=65 term=proved pivots=31+37 cuts=15",
                "instance knapsack-pe-0-s8 rows=65 term=proved pivots=31+29 cuts=15",
            )
        ],
        ("gint-gmi", "8"): [],
    }
    tool.print_differences(record)
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "knapsack-pe seed 8: 1 of 2 lines differ",
        "  - instance knapsack-pe-0-s8 rows=65 term=proved pivots=31+37 cuts=15",
        "  + instance knapsack-pe-0-s8 rows=65 term=proved pivots=31+29 cuts=15",
        "gint-gmi seed 8: 0 of 2 lines differ",
    ]
    # suite and validity lines are kept too
    verify = "suite theorem3 cases=56 passed=56 failed=0 skipped=0"
    assert tool.result_lines(
        f"env x=1\n{verify}\nvalidity closures checked=40 with_gap=12\n{{}}"
    ) == [verify, "validity closures checked=40 with_gap=12"]


def test_incorrect_runs_are_shown_and_fail_the_tool(capsys):
    # run.py exits 0 when its own check fails; the tool reads the check
    tool = _tool()
    bad = _stdout(375, 0.077, failed=2)
    assert tool.progress("knapsack-pe", 8, "change", bad) == (
        "knapsack-pe seed 8 change: correct False, failed 2, "
        "pivots_total 375, solve_s 0.0770"
    )
    outputs = {
        ("knapsack-pe", 8, "parent"): _stdout(461, 0.081),
        ("knapsack-pe", 8, "change"): bad,
        ("gint-gmi", 8, "parent"): _stdout(519, 1.4),
        ("gint-gmi", 8, "change"): _stdout(519, 1.3),
    }
    record = tool.assemble(
        outputs,
        revisions={"parent": "a" * 40, "change": "b" * 40},
        seeds=[8],
        held_out=8,
        seconds=20,
    )
    capsys.readouterr()
    assert tool.report_incorrect(record) == 1
    assert capsys.readouterr().out.splitlines() == [
        "INCORRECT knapsack-pe seed 8 change: correct false, failed 2"
    ]
    outputs["knapsack-pe", 8, "change"] = _stdout(375, 0.077)
    good = tool.assemble(
        outputs,
        revisions={"parent": "a" * 40, "change": "b" * 40},
        seeds=[8],
        held_out=8,
        seconds=20,
    )
    assert tool.report_incorrect(good) == 0
    assert capsys.readouterr().out == ""


def test_setup_pairs_alternate_and_summarize_per_side(monkeypatch, capsys):
    tool = _tool()
    canned = {
        "parent": {
            "setup_s": [0.30, 0.34, 0.31, 0.45, 0.33],
            "peak_rss_mb": [64.7, 63.0, 63.0, 64.1, 63.5],
        },
        "change": {
            "setup_s": [0.29, 0.36, 0.30, 0.32, 0.33],
            "peak_rss_mb": [47.0, 46.3, 63.0, 46.4, 63.9],
        },
    }
    order = []

    def probe(tree):
        order.append(tree)
        i = sum(t == tree for t in order) - 1
        return {key: values[i] for key, values in canned[tree].items()}

    monkeypatch.setattr(tool, "setup_probe", probe)
    probes = tool.setup_times({"parent": "parent", "change": "change"}, 5)
    assert probes == canned
    assert order[:4] == ["parent", "change", "change", "parent"]
    summary = tool.setup_summary(probes)
    assert summary["pairs"] == 5
    assert summary["command"] == "python3 perfbench/setup_probe.py <tree>/src"
    parent, change = summary["parent"]["setup_s"], summary["change"]["setup_s"]
    assert parent["values"] == canned["parent"]["setup_s"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (0.31, 0.33, 0.34)
    assert (change["q1"], change["median"], change["q3"]) == (0.30, 0.32, 0.33)
    # a tie is a win for neither side
    assert (parent["wins"], change["wins"]) == (1, 3)
    # the peak RSS beside each time, summarized alike
    parent, change = summary["parent"]["peak_rss_mb"], summary["change"]["peak_rss_mb"]
    assert change["values"] == canned["change"]["peak_rss_mb"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (63.0, 63.5, 64.1)
    assert (change["q1"], change["median"], change["q3"]) == (46.4, 47.0, 63.0)
    assert (parent["wins"], change["wins"]) == (1, 3)
    tool.print_setup(summary)
    assert capsys.readouterr().out.splitlines() == [
        "setup_s parent: median 0.3300 s (quartiles 0.3100-0.3400), "
        "faster in 1 of 5 pairs",
        "setup_s change: median 0.3200 s (quartiles 0.3000-0.3300), "
        "faster in 3 of 5 pairs",
        "peak_rss_mb parent: median 63.5 MiB (quartiles 63.0-64.1), "
        "lower in 1 of 5 pairs",
        "peak_rss_mb change: median 47.0 MiB (quartiles 46.4-63.0), "
        "lower in 3 of 5 pairs",
    ]
    record = tool.assemble(
        {("knapsack-pe", 8, side): _stdout(321, 0.08) for side in ("parent", "change")},
        revisions={"parent": "a" * 40, "change": "b" * 40},
        seeds=[8],
        held_out=8,
        seconds=20,
        setup=summary,
    )
    assert list(record)[-1] == "setup_pairs" and record["setup_pairs"] is summary
    json.dumps(record)


def test_setup_probe_reads_the_child_peak_rss(tmp_path):
    tool = _tool()
    probe = tmp_path / "perfbench" / "setup_probe.py"
    probe.parent.mkdir()
    # a stand-in probe that touches 64 MiB before it reports
    probe.write_text(
        "import json, sys\n"
        "block = b'x' * (64 << 20)\n"
        "print(json.dumps({'module': sys.argv[1] + '/x.py', 'setup_s': 0.25}))\n"
    )
    measured = tool.setup_probe(tmp_path)
    assert measured["setup_s"] == 0.25
    assert 64.0 < measured["peak_rss_mb"] < 1024.0


def _runs(metric: str, parent: list[float], change: list[float]) -> dict:
    return {
        str(seed): {
            side: {"metrics": {metric: {"value": value}}}
            for side, value in (("parent", p), ("change", c))
        }
        for seed, p, c in zip((1, 2, 3), parent, change)
    }


def test_verdict_rows_judge_each_metric_under_its_bound(capsys):
    tool = _tool()
    cases = [
        # (metric, better, bound, parent runs, change runs, verdict, wins)
        ("pivots_total", "lower", 0.1, [1016] * 3, [890] * 3, "better", 3),
        ("pivots_total", "lower", 0.1, [321, 326, 324], [321, 326, 324], "no worse", 0),
        ("pivots_total", "lower", 0.1, [100] * 3, [120] * 3, "worse", 0),
        # wins every pair and beats the median by more than the spread
        ("pivots_total", "lower", 0.1, [100, 105, 103], [94, 101, 97], "better", 3),
        # the parent's own spread (67 %) exceeds the bound
        ("solve_s", "lower", 0.25, [0.10, 0.20, 0.15], [0.12, 0.14, 0.13], "unresolved", 2),
        ("solve_s", "lower", 0.25, [0.10, 0.20, 0.15], [0.25, 0.30, 0.28], "unresolved", 0),
        ("solve_s", "lower", 0.25, [0.10, 0.20, 0.15], [0.05, 0.06, 0.09], "better", 3),
        ("gap_closed_pct", "higher", 0.05, [50.0] * 3, [49.9, 50.0, 50.0], "no worse", 0),
        ("gap_closed_pct", "higher", 0.05, [50.0] * 3, [45.0, 50.0, 46.0], "worse", 0),
        ("ok_frac", "higher", 0.01, [0.0] * 3, [0.0] * 3, "no worse", 0),
    ]
    for metric, better, bound, parent, change, verdict, wins in cases:
        record = {"runs": {"verify": _runs(metric, parent, change)}}
        spec = [{"name": metric, "better": better, "bound": bound}]
        (row,) = tool.verdict_rows(record, spec)
        assert (row["verdict"], row["wins"], row["pairs"]) == (verdict, wins, 3), (
            metric, parent, change, row,
        )
        assert row["parent_median"] == sorted(parent)[1]
        assert row["change_median"] == sorted(change)[1]
        spread = (max(parent) - min(parent)) / (abs(sorted(parent)[1]) or 1.0)
        assert row["parent_spread"] == spread
    # one row per workload and metric, in the record's workload order
    record = {
        "runs": {
            "knapsack-pe": _runs("pivots_total", [321, 326, 324], [321, 326, 324]),
            "verify": _runs("pivots_total", [1016] * 3, [890] * 3),
        }
    }
    spec = [{"name": "pivots_total", "better": "lower", "bound": 0.1}]
    rows = tool.verdict_rows(record, spec)
    assert [(r["workload"], r["verdict"]) for r in rows] == [
        ("knapsack-pe", "no worse"), ("verify", "better")
    ]
    json.dumps(rows)
    tool.print_verdicts(rows)
    assert capsys.readouterr().out.splitlines() == [
        "knapsack-pe   pivots_total    parent        324  change        324  "
        "spread   1.5% (bound 10%)  wins 0/3  no worse",
        "verify        pivots_total    parent       1016  change        890  "
        "spread   0.0% (bound 10%)  wins 3/3  better",
    ]
