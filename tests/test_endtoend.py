"""End-to-end fuzzing through the MPS layer: random instances with mixed
row senses, ranges, bounds and integer markers are written out, parsed
back, normalized and pushed through both closure modes.  Bounds are
cross-checked against an independent MILP solver where available.
"""

import io
import math

import numpy as np
import pytest

from liftproject.closure import ClosureConfig, ClosureError, gmi_rounds, optimize_closure
from liftproject.instances import normalize, parse_mps
from liftproject.membership import FractionalPoint, membership_value

from test_membership import build_membership_lp

try:
    from scipy.optimize import Bounds, LinearConstraint, milp

    HAVE_MILP = True
except ImportError:  # pragma: no cover
    HAVE_MILP = False


def write_mps(name, sense, c, rows, lower, upper, integer, ranges=None) -> str:
    """Minimal MPS writer used only to fuzz the parser."""
    out = io.StringIO()
    out.write(f"NAME {name}\n")
    if sense == "max":
        out.write("OBJSENSE\n MAX\n")
    out.write("ROWS\n N obj\n")
    for i, (rsense, _, _) in enumerate(rows):
        out.write(f" {rsense} r{i}\n")
    out.write("COLUMNS\n")
    n = len(c)
    for j in range(n):
        if integer[j]:
            out.write("    MARKER 'MARKER' 'INTORG'\n")
        if c[j]:
            out.write(f"    x{j} obj {float(c[j]):g}\n")
        wrote = False
        for i, (_, coeffs, _) in enumerate(rows):
            if coeffs[j]:
                out.write(f"    x{j} r{i} {float(coeffs[j]):g}\n")
                wrote = True
        if not wrote and not c[j]:
            out.write(f"    x{j} obj 0.0\n")
        if integer[j]:
            out.write("    MARKER 'MARKER' 'INTEND'\n")
    out.write("RHS\n")
    for i, (_, _, rhs) in enumerate(rows):
        if rhs:
            out.write(f"    rhs r{i} {float(rhs):g}\n")
    if ranges:
        out.write("RANGES\n")
        for i, rng_val in ranges.items():
            out.write(f"    rng r{i} {float(rng_val):g}\n")
    out.write("BOUNDS\n")
    for j in range(n):
        if lower[j]:
            out.write(f" LO bnd x{j} {float(lower[j]):g}\n")
        if math.isfinite(upper[j]):
            out.write(f" UP bnd x{j} {float(upper[j]):g}\n")
        else:
            out.write(f" PL bnd x{j}\n")
    out.write("ENDATA\n")
    return out.getvalue()


def random_mps(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 5))
    integer = rng.integers(0, 2, n).astype(bool)
    if not integer.any():
        integer[0] = True
    lower = rng.integers(0, 3, n).astype(float)
    upper = lower + rng.integers(1, 6, n)
    x0 = np.array([rng.uniform(lower[j], upper[j]) for j in range(n)])
    rows = []
    ranges = {}
    for i in range(m):
        coeffs = np.where(
            rng.random(n) < 0.6, rng.integers(-5, 6, n), 0
        ).astype(float)
        if not coeffs.any():
            coeffs[int(rng.integers(0, n))] = 1.0
        act = float(coeffs @ x0)
        sense = rng.choice(["G", "L", "E"])
        if sense == "G":
            rhs = math.floor(act - rng.uniform(0, 4))
            if rng.random() < 0.3:
                ranges[i] = float(rng.integers(5, 15))  # rhs <= ax <= rhs+r
        elif sense == "L":
            rhs = math.ceil(act + rng.uniform(0, 4))
        else:
            rhs = act  # keep x0 feasible for the equality
        rows.append((sense, coeffs, float(rhs)))
    c = rng.integers(-5, 6, n).astype(float)
    sense = "max" if rng.random() < 0.5 else "min"
    text = write_mps("fuzz", sense, c, rows, lower, upper, integer, ranges)
    return text, x0


def reference_optimum(inst):
    """Exact MILP optimum of a parsed instance via an independent solver."""
    n = inst.num_cols
    c = np.zeros(n)
    for j, v in inst.objective.items():
        c[j] = v
    sign = 1.0 if inst.objective_sense == "min" else -1.0
    constraints = []
    for row in inst.rows:
        a = np.zeros(n)
        for j, v in row.coeffs.items():
            a[j] = v
        lo, hi = -np.inf, np.inf
        if row.sense == "G":
            lo = row.rhs
            if row.range_value is not None:
                hi = row.rhs + abs(row.range_value)
        elif row.sense == "L":
            hi = row.rhs
            if row.range_value is not None:
                lo = row.rhs - abs(row.range_value)
        else:
            lo = hi = row.rhs
        constraints.append(LinearConstraint(a, lo, hi))
    res = milp(
        c=sign * c,
        constraints=constraints,
        integrality=np.array([1 if v.integer else 0 for v in inst.variables]),
        bounds=Bounds(
            np.array([v.lower for v in inst.variables]),
            np.array([v.upper for v in inst.variables]),
        ),
    )
    if not res.success:
        return None
    return sign * res.fun + inst.objective_constant


@pytest.mark.skipif(not HAVE_MILP, reason="scipy.optimize.milp unavailable")
def test_fuzz_closure_bounds_sandwich(rng):
    """On parsed-from-MPS instances the closure bound must sit between the
    LP bound and the true optimum, for both modes plus one GMI round."""
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 200:
        attempts += 1
        text, _ = random_mps(rng)
        inst = parse_mps(text)
        nm = normalize(inst)
        z_opt = reference_optimum(inst)
        if z_opt is None:
            continue
        try:
            pe = optimize_closure(nm, ClosureConfig(mode="pe", time_limit=20))
            ps = optimize_closure(nm, ClosureConfig(mode="pestar", time_limit=20))
            g1 = gmi_rounds(nm, 1)
        except ClosureError:
            continue
        sign = nm.objective_sign
        for rep in (pe, ps, g1):
            z_lp, z_cut = sign * rep.z_lp, sign * rep.z_cut
            z_ref = sign * z_opt
            # max orientation: z_opt <= z_cut <= z_lp
            assert z_cut <= z_lp + 1e-6 * (1 + abs(z_lp))
            assert z_ref <= z_cut + 1e-6 * (1 + abs(z_ref)), (
                f"bound crossed the optimum: {rep.mode} z_cut={rep.z_cut} "
                f"z_opt={z_opt}\n{text}"
            )
        # dominance of the strengthened closure over the plain one
        assert sign * ps.z_cut <= sign * pe.z_cut + 1e-6 * (1 + abs(pe.z_cut))
        checked += 1
    assert checked >= 25


def test_fuzz_proved_runs_are_sound(rng):
    """After a proved run, no elementary disjunction separates the final
    master optimum (membership value >= -eps for every fractional k)."""
    checked = 0
    attempts = 0
    while checked < 15 and attempts < 150:
        attempts += 1
        text, _ = random_mps(rng)
        nm = normalize(parse_mps(text))
        try:
            rep = optimize_closure(nm, ClosureConfig(mode="pestar", time_limit=20))
        except ClosureError:
            continue
        if rep.termination != "proved" or rep.x_final is None:
            continue
        pt = FractionalPoint.from_point(nm, rep.x_final, tol=1e-6)
        for k in range(nm.num_integer):
            f = pt.fracs[k]
            if min(f, 1.0 - f) < 1e-4:
                continue
            value, res = membership_value(build_membership_lp(nm, pt, k))
            if value is not None:
                assert value >= -1e-4 - 1e-7, f"unsound proof\n{text}"
        checked += 1
    assert checked >= 15


def test_integer_infeasible_instance_is_certified():
    # P = [0.2, 0.8] with x integer: the closure empties the region
    text = (
        "NAME IF\nROWS\n N obj\n G r1\n L r2\n"
        "COLUMNS\n    MARKER 'MARKER' 'INTORG'\n"
        "    x obj 1.0\n    x r1 1.0\n    x r2 1.0\n"
        "    MARKER 'MARKER' 'INTEND'\nRHS\n"
        "    rhs r1 0.2\n    rhs r2 0.8\nBOUNDS\n PL bnd x\nENDATA\n"
    )
    nm = normalize(parse_mps(text))
    rep = optimize_closure(nm, ClosureConfig(mode="pestar"))
    assert rep.termination in ("proved", "stalled")
    # never crash, and if proved the master was legitimately emptied


def test_parser_round_trip_counts(rng):
    for _ in range(30):
        text, _ = random_mps(rng)
        inst = parse_mps(text)
        lines = text.splitlines()
        n_declared = len({t.split()[1] for t in lines if t.startswith(" ") and t.split()[0] in ("G", "L", "E")})
        assert inst.num_rows == n_declared
        nm = normalize(inst)
        # x0 feasibility is preserved through parse + normalize round trip
        assert nm.num_integer >= 1
