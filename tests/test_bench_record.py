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


def _stdout(pivots: int, solve_s: float) -> str:
    last = {
        "correct": True,
        "attempted": 75,
        "failed": 0,
        "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "pivots_total": {"value": pivots, "unit": "count"},
        },
    }
    return "\n".join(
        [
            "env python=3.11.7 numpy=2.4.6 scipy=1.17.1 nproc=2 blas_threads=1 "
            "workload=knapsack-pe seed=8 seconds=20.0 trace=0",
            "instance knapsack-pe-0-s8 rows=65 term=proved pivots=31+37 cuts=15",
            "passes untraced=[0.08, 0.081]",
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
        "environment", "revisions", "runs",
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
