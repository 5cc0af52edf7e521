"""Command-line surface: closure runs and verification suites.

`liftproject close FILE.mps [--mode pe|pestar|gmi-rounds] ...` runs the
cutting-plane bound computation and emits a human-readable table plus an
optional JSON report (schema version 1).  `liftproject verify` runs the
randomized oracle suites and exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .closure import ClosureConfig, ClosureError, gap_closed, optimize_closure
from .cuts import FRAC_EPS_DEFAULT
from .instances import MpsParseError, NormalizeError, load_optima, normalize, read_mps
from .verify import run_suite

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_PROVED = 2
EXIT_VERIFY_FAILED = 3


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round_floats(obj):
    """Round every float to 12 significant digits for stable serialization;
    a float that is not finite becomes None, which JSON can hold."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftproject",
        description="Rank-1 lift-and-project / GMI closure bounds for MILPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    close = sub.add_parser("close", help="optimize a closure bound for an MPS instance")
    close.add_argument("instance", help="path to an MPS file")
    close.add_argument(
        "--mode",
        choices=["pe", "pestar", "gmi-rounds"],
        default="pestar",
        help="pe: elementary closure; pestar: strengthened closure "
        "approximation; gmi-rounds: textbook tableau GMI rounds",
    )
    close.add_argument("--rounds", type=int, default=1, help="rounds for gmi-rounds mode")
    close.add_argument("--eps", type=float, default=FRAC_EPS_DEFAULT, help="separation tolerance")
    close.add_argument("--time-limit", type=float, default=3600.0, help="seconds")
    close.add_argument("--optima", help="reference optima file (name value per line)")
    close.add_argument("--json", dest="json_out", help="write JSON report to this path ('-' for stdout, with the table on stderr)")
    close.add_argument(
        "--omit-times",
        action="store_true",
        help="drop wall-clock fields from the report (byte-identical reruns)",
    )

    verify = sub.add_parser("verify", help="run the randomized verification suites")
    verify.add_argument(
        "--suite",
        choices=["theorem3", "theorem4", "duality", "validity", "proposition3", "all"],
        default="all",
    )
    verify.add_argument("--count", type=int, default=100, help="instances per suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--corrupt-rhs",
        type=float,
        default=0.0,
        metavar="DELTA",
        help="fault-injection self-test: tighten every checked cut rhs by "
        "DELTA >= 0 before the validity check (a positive value must trip it)",
    )
    return parser


def cmd_close(args) -> int:
    mode = {"pe": "pe", "pestar": "pestar", "gmi-rounds": "gmi"}[args.mode]
    try:
        cfg = ClosureConfig(
            mode=mode,
            eps=args.eps,
            time_limit=args.time_limit,
            rounds=args.rounds,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        inst = read_mps(args.instance)
    except OSError as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MpsParseError as exc:
        print(f"error: {args.instance}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        nm = normalize(inst)
    except NormalizeError as exc:
        print(f"error: {args.instance}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    z_opt = None
    if args.optima:
        try:
            table = load_optima(args.optima)
        except (OSError, ValueError) as exc:
            print(f"error: optima file: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        lowered = {k.lower(): v for k, v in table.items()}
        stem = os.path.splitext(os.path.basename(args.instance))[0]
        for candidate in (nm.name, stem):
            z_opt = lowered.get(candidate.lower())
            if z_opt is not None:
                break
        if z_opt is None:
            print(
                f"warning: no reference optimum for '{nm.name}'; gap reported n/a",
                file=sys.stderr,
            )

    try:
        report = optimize_closure(nm, cfg)
    except ClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    report.z_opt = z_opt
    try:
        report.gap_closed = gap_closed(report.z_lp, report.z_cut, z_opt)
    except ValueError:
        report.gap_closed = None

    payload = {"schema": SCHEMA_VERSION, **report.to_dict()}
    payload["config"]["marker_default_binary"] = True  # parse convention used
    if args.omit_times:
        payload.pop("time", None)
        payload["config"].pop("time_limit", None)
    payload = _round_floats(payload)

    # with the JSON on stdout, the table goes to stderr, so stdout is one
    # JSON document
    _print_human(report, nm, sys.stderr if args.json_out == "-" else sys.stdout)
    if args.json_out:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        if args.json_out == "-":
            print(text)
        else:
            try:
                with open(args.json_out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: cannot write {args.json_out}: {exc}", file=sys.stderr)
                return EXIT_INPUT_ERROR

    if report.termination in ("proved", "rounds_done"):
        return EXIT_OK
    return EXIT_NOT_PROVED


def _print_human(report, nm, out) -> None:
    rows = [
        ("instance", report.instance or "(unnamed)"),
        ("mode", report.mode),
        ("size", f"{nm.num_rows} rows x {nm.num_cols} cols (integer: {nm.num_integer})"),
        ("z_lp", _fmt(report.z_lp)),
        ("z_cut", _fmt(report.z_cut)),
        ("z_opt", _fmt(report.z_opt)),
        ("gap closed", "n/a" if report.gap_closed is None else f"{report.gap_closed:.2f} %"),
        ("termination", report.termination),
        ("reason", report.termination_reason),
        ("master solves", str(report.num_master_solves)),
        ("cuts", f"{report.cuts_active} active, {report.cuts_parked} parked"),
        (
            "separations",
            f"{report.num_separations} ({report.num_cuts} cut, "
            f"{report.num_no_cuts} no-cut, {report.num_inconclusive} inconclusive; "
            f"{report.num_remembered} from own factors), "
            f"{report.num_reused} reused",
        ),
        ("pivots", f"master {report.master_pivots}, separation {report.separation_pivots}"),
        (
            "time",
            f"total {report.total_time:.3f} s "
            f"(master {report.master_time:.3f}, separation {report.separation_time:.3f})",
        ),
    ]
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}} : {val}", file=out)


def cmd_verify(args) -> int:
    if args.count < 0:
        print("error: count must be non-negative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.seed < 0:
        print("error: seed must be non-negative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not math.isfinite(args.corrupt_rhs):
        print("error: corrupt-rhs must be finite", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.corrupt_rhs < 0:
        # a negative delta loosens every cut: the self-test could never trip
        print("error: corrupt-rhs must be non-negative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    suites = (
        ["theorem3", "theorem4", "duality", "proposition3", "validity"]
        if args.suite == "all"
        else [args.suite]
    )
    failed = False
    for suite in suites:
        result = run_suite(
            suite, count=args.count, seed=args.seed, corrupt_rhs=args.corrupt_rhs
        )
        status = "ok" if result.ok else "FAILED"
        print(
            f"{suite:<13} {status:>6}  cases={result.cases} passed={result.passed} "
            f"failed={result.failed} skipped={result.skipped}"
        )
        if not result.ok:
            failed = True
            print(f"  first counterexample: {result.failures[0]}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "close":
        return cmd_close(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
