"""Close multi-dimensional knapsacks larger than the benchmark's.

    python3 tools/scale_probe.py                  # all five cases
    python3 tools/scale_probe.py 20x400-pe        # one case

Each case is a binary knapsack of ``perfbench/generators.multi_knapsack``
with ``m`` rows and ``n`` columns, drawn with rng seed 0.  It is written
as MPS, read and normalized as ``liftproject close`` reads it, and closed
by ``optimize_closure`` in the probe's own process, with one BLAS thread.
With no case named, every case runs in a child process of its own, one
after the other, so that each peak RSS is that case's alone.  Each case
prints one line: the CPU seconds of ``optimize_closure``, master and
separation pivots, separations by outcome, the cuts active in the final
master and those parked out of it, ``z_cut``, the termination and the
peak RSS of the process.  The benchmark's instances have at most 105
canonical rows; these cases have up to 1 510.
"""

import os

# pivot paths depend on the BLAS thread count, so it is pinned before numpy
# loads, as the benchmark pins it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import generators  # noqa: E402

from liftproject import ClosureConfig, normalize, optimize_closure, read_mps  # noqa: E402

# (rows, columns, mode)
CASES = {
    f"{m}x{n}-{mode}": (m, n, mode)
    for m, n, mode in (
        (20, 400, "pe"),
        (30, 200, "pestar"),
        (40, 1000, "pe"),
        (40, 1000, "pestar"),
        (10, 1500, "pe"),
    )
}


def probe(case: str) -> dict:
    """Close one case in this process and return what the line prints."""
    m, n, mode = CASES[case]
    model = generators.multi_knapsack(np.random.default_rng(0), m, n, case)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{case}.mps"
        generators.write_mps(model, path)
        nm = normalize(read_mps(path))
    t0 = time.process_time()
    rep = optimize_closure(nm, ClosureConfig(mode=mode))
    cpu = time.process_time() - t0
    return {
        "case": case,
        "cpu_s": cpu,
        "master_pivots": rep.master_pivots,
        "separation_pivots": rep.separation_pivots,
        "separations": rep.num_separations,
        "cut": rep.num_cuts,
        "no_cut": rep.num_no_cuts,
        "inconclusive": rep.num_inconclusive,
        "cuts_active": rep.cuts_active,
        "cuts_parked": rep.cuts_parked,
        "z_cut": rep.z_cut,
        "termination": rep.termination,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def line(result: dict) -> str:
    return (
        f"{result['case']:<16} cpu_s={result['cpu_s']:.2f} "
        f"master_pivots={result['master_pivots']} "
        f"separation_pivots={result['separation_pivots']} "
        f"separations={result['separations']} cut={result['cut']} "
        f"no_cut={result['no_cut']} inconclusive={result['inconclusive']} "
        f"active={result['cuts_active']} parked={result['cuts_parked']} "
        f"z_cut={result['z_cut']:.4f} termination={result['termination']} "
        f"peak_rss_mib={result['peak_rss_mib']:.1f}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("case", nargs="?", choices=sorted(CASES))
    args = ap.parse_args(argv)
    if args.case is not None:
        print(line(probe(args.case)), flush=True)
        return 0
    status = 0
    for case in CASES:
        done = subprocess.run([sys.executable, __file__, case])
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
