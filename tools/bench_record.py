"""Record the benchmark of two git revisions side by side.

    python3 tools/bench_record.py PARENT CHANGE --seeds 1 2 3 --held-out 8 \\
        --seconds 20 --setup-pairs 10 --out BENCH_12.json

Each revision is exported with ``git archive`` into a temporary directory,
so only committed files take part.  For every workload of the change's
BENCHMARK.json and every seed (the held-out seed last), ``perfbench/run.py``
runs on both trees back to back; which side runs first alternates from one
pair to the next.  The record keeps the last output line of each run, the
JSON object with its end-to-end metrics, under
``runs[workload][seed]["parent" | "change"]``, and the run's ``instance``,
``suite`` and ``validity closures`` lines under
``lines[workload][seed]["parent" | "change"]``.  Once every run is done,
it prints, for each workload and seed, the lines that differ between the
two sides.  ``perfbench/run.py`` exits 0 even when its own check of the
outputs fails, so each progress line shows the run's ``correct`` flag and
``failed`` count, and once the record is written, every run whose check
failed is listed and the tool exits 1.  Run it from inside the repository.

With ``--setup-pairs N``, before the benchmark runs, each side's
``perfbench/setup_probe.py`` times ``import liftproject`` from its own tree
in N fresh interpreters, alternating which side goes first, with the BLAS
thread count ``perfbench/run.py`` pins.  Each probe's peak RSS is read
too, with ``os.wait4``: the memory of the import alone, apart from what a
benchmark run's passes add.  The record keeps each side's times and peak
RSS under ``setup_pairs``, each list with its median, its quartiles and
the pairs the side won.

Last, it prints one row per workload and end-to-end metric of
BENCHMARK.json (``verdict_rows``): each side's median over the seeds, the
parent's spread, the pairs the change won and a verdict under the metric's
bound, and keeps the same rows under ``summary`` in the record.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
ENV_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads")
# the output lines a bit-identity claim compares: one per instance or suite
LINE_PREFIXES = ("instance ", "suite ", "validity closures ")
# the thread pins perfbench/run.py sets before numpy loads
BLAS_ENV = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"
)
SETUP_COMMAND = "python3 perfbench/setup_probe.py <tree>/src"
SETUP_MEASURES = ("setup_s", "peak_rss_mb")  # per set-up probe; lower is better
DESCRIPTION = (
    "Before/after record of perfbench/run.py: the last JSON line of each "
    "run, per workload and seed, for the parent and the change, and the "
    "instance, suite and validity lines of each run. Runs of one "
    "workload and seed were made back to back, alternating which side ran "
    "first. Seed {held_out} was not used while building the change."
)


def command(seconds: float, workload="<workload>", seed="<seed>") -> list[str]:
    return [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]


def resolve(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """The committed tree of ``sha``, unpacked into ``dest``."""
    tar = subprocess.run(["git", "archive", sha], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """Stdout of one benchmark run in ``tree``; a failed run raises."""
    argv = [sys.executable, *command(seconds, workload, seed)[1:]]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} in {tree} exited {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    return done.stdout


def setup_probe(tree: Path) -> dict[str, float]:
    """Seconds of ``import liftproject`` from ``tree``/src, timed by the
    tree's own set-up probe in a fresh interpreter, and that interpreter's
    peak RSS in MiB, read from its ``os.wait4`` resource usage."""
    src = tree / "src"
    child = subprocess.Popen(
        [sys.executable, "perfbench/setup_probe.py", str(src)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
        env={**os.environ, **BLAS_ENV},
    )
    with child.stdout:
        stdout = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, child.args, stdout)
    probe = json.loads(stdout.strip().splitlines()[-1])
    if not probe["module"].startswith(str(src)):
        raise RuntimeError(f"set-up probe in {tree} imported {probe['module']}")
    # Linux reports ru_maxrss in KiB
    return {"setup_s": probe["setup_s"], "peak_rss_mb": usage.ru_maxrss / 1024.0}


def setup_times(trees: dict[str, Path], pairs: int) -> dict[str, dict[str, list]]:
    """``pairs`` set-up probes per side, back to back, alternating which
    side goes first: per side, each measure's list over the probes."""
    out: dict = {side: {key: [] for key in SETUP_MEASURES} for side in SIDES}
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            probe = setup_probe(trees[side])
            for key in SETUP_MEASURES:
                out[side][key].append(probe[key])
    return out


def setup_summary(probes: dict[str, dict[str, list]]) -> dict:
    """Per side and measure: the paired values, their median and quartiles
    (inclusive method) and the pairs in which the side read lower."""
    out: dict = {"command": SETUP_COMMAND, "pairs": len(probes["parent"]["setup_s"])}
    for side, other in (SIDES, SIDES[::-1]):
        out[side] = {}
        for key in SETUP_MEASURES:
            mine, theirs = probes[side][key], probes[other][key]
            q1, median, q3 = statistics.quantiles(mine, n=4, method="inclusive")
            out[side][key] = {
                "values": mine,
                "median": median,
                "q1": q1,
                "q3": q3,
                "wins": sum(a < b for a, b in zip(mine, theirs)),
            }
    return out


def print_setup(summary: dict) -> None:
    rows = (("setup_s", "s", 4, "faster"), ("peak_rss_mb", "MiB", 1, "lower"))
    for key, unit, digits, won in rows:
        for side in SIDES:
            s = summary[side][key]
            print(
                f"{key} {side}: median {s['median']:.{digits}f} {unit} "
                f"(quartiles {s['q1']:.{digits}f}-{s['q3']:.{digits}f}), "
                f"{won} in {s['wins']} of {summary['pairs']} pairs"
            )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def progress(workload: str, seed: int, side: str, stdout: str) -> str:
    """One progress line for a finished run."""
    result = last_json(stdout)
    metrics = result["metrics"]
    return (
        f"{workload} seed {seed} {side}: correct {result['correct']}, failed "
        f"{result['failed']}, pivots_total {metrics['pivots_total']['value']}, "
        f"solve_s {metrics['solve_s']['value']:.4f}"
    )


def report_incorrect(record: dict) -> int:
    """Print each run of ``record`` whose own check failed; 1 if any did."""
    bad = [
        f"{workload} seed {seed} {side}: correct false, failed {run['failed']}"
        for workload, by_seed in record["runs"].items()
        for seed, sides in by_seed.items()
        for side, run in sides.items()
        if not run["correct"]
    ]
    for line in bad:
        print(f"INCORRECT {line}")
    return 1 if bad else 0


def result_lines(stdout: str) -> list[str]:
    """The ``instance``, ``suite`` and ``validity closures`` lines of a run."""
    return [ln for ln in stdout.splitlines() if ln.startswith(LINE_PREFIXES)]


def differing_lines(record: dict) -> dict[tuple[str, str], list[tuple]]:
    """(parent line, change line) pairs that differ, by (workload, seed);
    lines are paired in output order, and a side that ran out of lines
    pairs with None."""
    out = {}
    for workload, by_seed in record["lines"].items():
        for seed, sides in by_seed.items():
            pairs = itertools.zip_longest(sides["parent"], sides["change"])
            out[workload, seed] = [(a, b) for a, b in pairs if a != b]
    return out


def print_differences(record: dict) -> None:
    for (workload, seed), pairs in differing_lines(record).items():
        total = len(record["lines"][workload][seed]["change"])
        print(f"{workload} seed {seed}: {len(pairs)} of {total} lines differ")
        for parent, change in pairs:
            print(f"  - {parent}\n  + {change}")


def verdict_rows(record: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric of ``BENCHMARK.json``:
    each side's median over the seeds, the parent's spread (max - min over
    its median), the pairs the change won and a verdict under the metric's
    bound.  Changes are relative to the parent's median, or absolute where
    it is 0.

    * ``better``: every change run beats every parent run, or the change
      wins every pair and its median beats the parent's by more than the
      parent's spread;
    * ``unresolved``: otherwise, when the parent's spread exceeds the bound;
    * ``worse``: the change's median is worse by more than the bound;
    * ``no worse``: any other case.
    """
    rows = []
    for workload, by_seed in record["runs"].items():
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            sign = -1.0 if metric["better"] == "lower" else 1.0  # higher is better
            pairs = [
                [sign * sides[side]["metrics"][name]["value"] for side in SIDES]
                for sides in by_seed.values()
            ]
            parent, change = ([pair[i] for pair in pairs] for i in (0, 1))
            p_median, c_median = statistics.median(parent), statistics.median(change)
            scale = abs(p_median) or 1.0
            spread = (max(parent) - min(parent)) / scale
            gain = (c_median - p_median) / scale  # > 0: the change is better
            wins = sum(c > p for p, c in pairs)
            if min(change) > max(parent) or (wins == len(pairs) and gain > spread):
                verdict = "better"
            elif spread > bound:
                verdict = "unresolved"
            elif -gain > bound:
                verdict = "worse"
            else:
                verdict = "no worse"
            rows.append({
                "workload": workload,
                "metric": name,
                "parent_median": sign * p_median,
                "change_median": sign * c_median,
                "parent_spread": spread,
                "bound": bound,
                "wins": wins,
                "pairs": len(pairs),
                "verdict": verdict,
            })
    return rows


def print_verdicts(rows: list[dict]) -> None:
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<15} "
            f"parent {row['parent_median']:>10.4g}  change "
            f"{row['change_median']:>10.4g}  spread {row['parent_spread']:6.1%} "
            f"(bound {row['bound']:.0%})  wins {row['wins']}/{row['pairs']}  "
            f"{row['verdict']}"
        )


def environment(stdout: str) -> dict:
    """The versions and thread counts of a run's ``env`` line."""
    line = next(ln for ln in stdout.splitlines() if ln.startswith("env "))
    pairs = dict(field.split("=", 1) for field in line.split()[1:])
    env = {key: pairs[key] for key in ENV_KEYS}
    env["machine"] = f"{platform.machine()}, {pairs['nproc']} CPUs"
    return env


def assemble(
    outputs: dict[tuple[str, int, str], str],
    *,
    revisions: dict[str, str],
    seeds: list[int],
    held_out: int,
    seconds: float,
    note: str = "",
    setup: dict | None = None,
) -> dict:
    """The record of ``outputs``, each run's stdout keyed by (workload,
    seed, side), in the layout of the committed BENCH_*.json files, with
    the ``setup_summary`` of paired set-up probes when there is one."""
    runs: dict[str, dict[str, dict]] = {}
    lines: dict[str, dict[str, dict]] = {}
    for (workload, seed, side), stdout in outputs.items():
        runs.setdefault(workload, {}).setdefault(str(seed), {})[side] = last_json(
            stdout
        )
        lines.setdefault(workload, {}).setdefault(str(seed), {})[side] = (
            result_lines(stdout)
        )

    def by_side(table):
        return {
            w: {s: {side: pair[side] for side in SIDES} for s, pair in by_seed.items()}
            for w, by_seed in table.items()
        }

    description = DESCRIPTION.format(held_out=held_out)
    record = {
        "description": f"{description} {note}".strip(),
        "command": " ".join(command(seconds)),
        "seconds": seconds,
        "seeds": seeds,
        "held_out_seed": held_out,
        "environment": environment(next(iter(outputs.values()))),
        "revisions": revisions,
        "runs": by_side(runs),
        "lines": by_side(lines),
    }
    if setup is not None:
        record["setup_pairs"] = setup
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--held-out", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="what the change claims, in words")
    ap.add_argument(
        "--setup-pairs", type=int, default=0, metavar="N",
        help="time the import of each side in N alternating fresh interpreters",
    )
    args = ap.parse_args(argv)
    if args.setup_pairs == 1 or args.setup_pairs < 0:
        ap.error("--setup-pairs takes 0 or at least 2 pairs")
    revisions = {"parent": resolve(args.parent), "change": resolve(args.change)}
    seeds = [s for s in args.seeds if s != args.held_out] + [args.held_out]
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    outputs: dict[tuple[str, int, str], str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            export(revisions[side], tree)
        setup = None
        if args.setup_pairs:
            setup = setup_summary(setup_times(trees, args.setup_pairs))
            print_setup(setup)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        pair = 0
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in seeds:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                pair += 1
                for side in order:
                    stdout = run(trees[side], workload, seed, seconds)
                    outputs[workload, seed, side] = stdout
                    print(progress(workload, seed, side, stdout), flush=True)
    record = assemble(
        outputs,
        revisions=revisions,
        seeds=seeds,
        held_out=args.held_out,
        seconds=seconds,
        note=args.note,
        setup=setup,
    )
    record["summary"] = verdict_rows(record, spec["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print_differences(record)
    if setup is not None:
        print_setup(setup)
    print_verdicts(record["summary"])
    return report_incorrect(record)


if __name__ == "__main__":
    sys.exit(main())
