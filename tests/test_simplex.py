from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import linprog

from liftproject import simplex
from liftproject.simplex import BoundedLp, Status, solve
from liftproject.standard_form import (
    Basis,
    BasisFactors,
    SingularBasisError,
    to_standard,
)


def dual_objective(lp, result):
    """Dual value y d plus the reduced costs times the active bounds, which
    equals the primal objective at any basic solution."""
    active = np.where(result.basis.at_upper, lp.upper, lp.lower)
    nonbasic = np.ones(lp.num_cols, dtype=bool)
    nonbasic[result.basis.basic] = False
    return float(
        result.duals @ lp.rhs + result.reduced_costs[nonbasic] @ active[nonbasic]
    )


def make_lp(sense, c, a, d, lower=None, upper=None):
    c = np.asarray(c, float)
    a = np.asarray(a, float).reshape(-1, len(c)) if np.size(a) else np.zeros((0, len(c)))
    d = np.asarray(d, float)
    lower = np.zeros(len(c)) if lower is None else np.asarray(lower, float)
    upper = np.full(len(c), np.inf) if upper is None else np.asarray(upper, float)
    return BoundedLp(sense=sense, objective=c, a_eq=a, rhs=d, lower=lower, upper=upper)


def test_t1_relaxation_optimum(t1):
    slp = to_standard(t1)
    lp = make_lp("max", slp.c, slp.a, slp.b)
    res = solve(lp, start=slp.slack_basis())
    assert res.status is Status.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(res.x[2:], [0.5, 1.0], atol=1e-9)


def test_infeasible_system():
    # x >= 1 and -x >= 0 in slack form
    lp = make_lp(
        "max",
        [0.0, 0.0, 1.0],
        [[-1.0, 0.0, 1.0], [0.0, -1.0, -1.0]],
        [1.0, 0.0],
    )
    assert solve(lp).status is Status.INFEASIBLE


def assert_farkas_ray(lp: BoundedLp, res) -> None:
    """``res.farkas`` is a y with min y A x > y d over the bounds of x,
    up to the rounding of y A."""
    g = res.farkas @ lp.a_eq
    g[np.abs(g) <= 1e-9 * (1.0 + np.abs(res.farkas).max())] = 0.0
    assert np.all(np.isfinite(lp.upper[g < 0.0]))  # bounded below
    low = np.where(g > 0.0, lp.lower, np.where(g < 0.0, lp.upper, 0.0))
    assert g @ low > res.farkas @ lp.rhs + 1e-9


def test_infeasible_lps_return_a_farkas_ray():
    # every INFEASIBLE ends at a dual row that no column can repair; that
    # row of the inverse, signed by the bound it violates, proves it
    a = [[-1.0, 0.0, 1.0], [0.0, -1.0, -1.0]]  # x >= 1 and -x >= 0
    lp = make_lp("max", [0.0, 0.0, 1.0], a, [1.0, 0.0])
    res = solve(lp)
    assert res.status is Status.INFEASIBLE
    assert_farkas_ray(lp, res)
    draws = [(degenerate_lp(seed), None) for seed in range(16)]
    draws += [(cut, start) for _, cut, start in reoptimization_draws()]
    infeasible = 0
    for lp, start in draws:
        res = solve(lp, start=start)
        if res.status is Status.INFEASIBLE:
            assert_farkas_ray(lp, res)
            infeasible += 1
        else:
            assert res.farkas is None
    assert infeasible >= 4


def test_unbounded_no_rows():
    lp = make_lp("max", [1.0], np.zeros((0, 1)), [])
    assert solve(lp).status is Status.UNBOUNDED


def test_unbounded_with_rows():
    # max x1 with x1 - x2 = 0: both can grow forever
    lp = make_lp("max", [1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert solve(lp).status is Status.UNBOUNDED


def test_min_sense_sign_conventions():
    # min x subject to x + s = 3, x in [1, 5]
    lp = make_lp(
        "min",
        [1.0, 0.0],
        [[1.0, 1.0]],
        [3.0],
        lower=[1.0, 0.0],
        upper=[5.0, np.inf],
    )
    res = solve(lp)
    assert res.status is Status.OPTIMAL
    assert res.value == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(1.0)


def test_iteration_limit():
    lp = make_lp("max", [1.0, 1.0, 0.0], [[1.0, 2.0, 1.0]], [4.0])
    res = solve(lp, max_iter=0)
    assert res.status is Status.ITERATION_LIMIT


def test_time_limit_cap():
    lp = make_lp("max", [1.0, 1.0, 0.0], [[1.0, 2.0, 1.0]], [4.0])
    res = solve(lp, time_limit=0.0)
    assert res.status is Status.ITERATION_LIMIT
    # a generous budget does not change the optimum
    ok = solve(lp, time_limit=60.0)
    assert ok.status is Status.OPTIMAL


def enumerate_optimum(lp: BoundedLp):
    """Brute-force optimum over all basic solutions (exact for tiny LPs)."""
    r, c = lp.a_eq.shape
    best = None
    if r == 0:
        cmax = lp.objective if lp.sense == "max" else -lp.objective
        if np.any((cmax > 0) & ~np.isfinite(lp.upper)):
            return "unbounded"
        x = np.where(cmax > 0, lp.upper, lp.lower)
        val = float(cmax @ x)
        return val if lp.sense == "max" else -val
    feasible_seen = False
    for basis_cols in combinations(range(c), r):
        bmat = lp.a_eq[:, basis_cols]
        if abs(np.linalg.det(bmat)) < 1e-9:
            continue
        nonbasic = [j for j in range(c) if j not in basis_cols]
        finite_up = [j for j in nonbasic if np.isfinite(lp.upper[j])]
        for flags in product(
            *[[False, True] if j in finite_up else [False] for j in nonbasic]
        ):
            x = lp.lower.copy()
            for j, up in zip(nonbasic, flags):
                x[j] = lp.upper[j] if up else lp.lower[j]
            rhs = lp.rhs - lp.a_eq[:, nonbasic] @ x[list(nonbasic)]
            xb = np.linalg.solve(bmat, rhs)
            x[list(basis_cols)] = xb
            if np.any(x < lp.lower - 1e-7) or np.any(x > lp.upper + 1e-7):
                continue
            feasible_seen = True
            val = float(lp.objective @ x)
            if best is None:
                best = val
            elif lp.sense == "max":
                best = max(best, val)
            else:
                best = min(best, val)
    if not feasible_seen:
        return "infeasible"
    return best


def test_against_vertex_enumeration(rng):
    agree = 0
    for trial in range(200):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(r, 5))
        a = rng.integers(-4, 5, size=(r, c)).astype(float)
        if np.linalg.matrix_rank(a) < r:  # solver requires full row rank
            continue
        d = rng.integers(-4, 5, size=r).astype(float)
        lower = np.zeros(c)
        upper = rng.integers(1, 6, size=c).astype(float)  # bounded domain
        sense = "max" if rng.integers(0, 2) else "min"
        obj = rng.integers(-4, 5, size=c).astype(float)
        lp = BoundedLp(sense, obj, a, d, lower, upper)
        expected = enumerate_optimum(lp)
        res = solve(lp)
        if expected == "infeasible":
            assert res.status is Status.INFEASIBLE, f"trial {trial}"
        else:
            assert res.status is Status.OPTIMAL, f"trial {trial}: {res.status}"
            assert res.value == pytest.approx(expected, abs=1e-7), f"trial {trial}"
            agree += 1
    assert agree > 50  # the corpus must actually exercise optimality


def test_determinism_bit_for_bit(t1):
    slp = to_standard(t1)
    lp = make_lp("max", slp.c, slp.a, slp.b)
    r1 = solve(lp, start=slp.slack_basis())
    r2 = solve(lp, start=slp.slack_basis())
    assert r1.value == r2.value  # exact float equality
    np.testing.assert_array_equal(r1.basis.basic, r2.basis.basic)
    np.testing.assert_array_equal(r1.x, r2.x)
    np.testing.assert_array_equal(r1.reduced_costs, r2.reduced_costs)


def test_warm_start_from_arbitrary_basis(rng):
    singular = 0
    for _ in range(25):
        c = int(rng.integers(2, 6))
        r = int(rng.integers(1, c))
        a = rng.integers(-3, 4, size=(r, c)).astype(float)
        if np.linalg.matrix_rank(a) < r:
            continue
        d = rng.integers(-3, 4, size=r).astype(float)
        upper = rng.integers(1, 5, size=c).astype(float)
        lp = BoundedLp("max", rng.integers(-3, 4, size=c).astype(float), a, d,
                       np.zeros(c), upper)
        cold = solve(lp)
        cols = np.sort(rng.permutation(c)[:r])
        start = Basis(cols, rng.integers(0, 2, size=c).astype(bool))
        warm = solve(lp, start=start)
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert warm.value == pytest.approx(cold.value, abs=1e-7)
        # a factored start acts bit for bit like its basis and leaves its
        # cached inverse untouched; for another matrix object it counts as
        # the plain basis; a singular one cannot be factored and the
        # caller starts from the crash basis instead, as the plain basis
        # does
        try:
            factored = BasisFactors(lp.a_eq, start)
        except SingularBasisError:
            singular += 1
            res = solve(lp, start=None)
            assert (res.status, res.pivots) == (warm.status, warm.pivots)
            assert res.x.tobytes() == warm.x.tobytes()
            continue
        kept = factored.inverse().copy()
        for fs in (factored, BasisFactors(lp.a_eq.copy(), start)):
            res = solve(lp, start=fs)
            assert (res.status, res.pivots) == (warm.status, warm.pivots)
            assert res.x.tobytes() == warm.x.tobytes()
        assert factored.inverse().tobytes() == kept.tobytes()
    assert singular > 0


def test_optimality_certificates(rng):
    # complementary slackness + strong duality at reported optima
    for _ in range(50):
        c = int(rng.integers(2, 6))
        r = int(rng.integers(1, c))
        a = rng.integers(-3, 4, size=(r, c)).astype(float)
        if np.linalg.matrix_rank(a) < r:
            continue
        d = rng.integers(-3, 4, size=r).astype(float)
        upper = rng.integers(1, 6, size=c).astype(float)
        lp = BoundedLp("max", rng.integers(-3, 4, size=c).astype(float), a, d,
                       np.zeros(c), upper)
        res = solve(lp)
        if res.status is not Status.OPTIMAL:
            continue
        gap = abs(res.value - dual_objective(lp, res))
        assert gap <= 1e-7 * (1.0 + abs(res.value))
        # dual feasibility signs (maximization)
        in_basis = np.zeros(c, bool)
        in_basis[res.basis.basic] = True
        for j in range(c):
            if in_basis[j] or lp.upper[j] - lp.lower[j] <= 0:
                continue
            if res.basis.at_upper[j]:
                assert res.reduced_costs[j] >= -1e-7
            else:
                assert res.reduced_costs[j] <= 1e-7
        # complementary slackness: basic reduced costs are zeroed exactly
        assert np.all(res.reduced_costs[res.basis.basic] == 0.0)


def test_phase1_repairs_stale_basis(monkeypatch):
    # x1 + x2 + x3 + s1 = b1, x1 - x2 + s2 = 1 with 0 <= x1, x2 <= 2 and
    # x3, s >= 0.  The slack basis with x1 and x2 at upper is optimal for
    # max x1 + x2 - x3 at b1 = 6; after b1 falls to 3 and the objective
    # turns to x1 + 2 x2 + x3 it is primal infeasible (s1 = -1) and the
    # unboxed x3 prices dual infeasible, so no bound flip can repair it:
    # its cost is shifted instead, and phase 1 is the dual simplex
    a = [[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0, 1.0]]
    upper = [2.0, 2.0, np.inf, np.inf, np.inf]
    stale = Basis(np.array([3, 4]), np.array([True, True, False, False, False]))
    old = make_lp("max", [1.0, 1.0, -1.0, 0.0, 0.0], a, [6.0, 1.0], upper=upper)
    opt = solve(old, start=stale)
    assert (opt.status, opt.pivots) == (Status.OPTIMAL, 0)
    lp = make_lp("max", [1.0, 2.0, 1.0, 0.0, 0.0], a, [3.0, 1.0], upper=upper)
    runs = record_dual_runs(monkeypatch)
    res = solve(lp, start=opt.basis)
    assert [(run.status, run.shifted.tolist()) for run in runs] == [
        (Status.OPTIMAL, [2])
    ]
    assert res.phase1_pivots == runs[0].pivots > 0
    assert_matches_highs(lp, res, highs(lp), "stale basis")
    assert res.value == pytest.approx(5.0)


def test_bound_flip_path():
    # optimum requires a nonbasic variable at its upper bound
    lp = make_lp(
        "max",
        [1.0, 1.0, 0.0],
        [[1.0, 1.0, 1.0]],
        [3.0],
        lower=[0.0, 0.0, 0.0],
        upper=[2.0, 2.0, np.inf],
    )
    res = solve(lp)
    assert res.status is Status.OPTIMAL
    assert res.value == pytest.approx(3.0)


def covering_lp(rng) -> BoundedLp:
    """min 1·x over A x - s = 1 with 0/1 rows of at least two ones,
    0 <= x <= 1, s >= 0: unit costs make many ties."""
    m = int(rng.integers(20, 41))
    n = int(rng.integers(m, 2 * m))
    a = (rng.random((m, n)) < 0.12).astype(float)
    for row in a:
        if row.sum() < 2:
            row[rng.choice(n, 2, replace=False)] = 1.0
    return BoundedLp(
        "min",
        np.concatenate([np.zeros(m), np.ones(n)]),
        np.hstack([-np.eye(m), a]),
        np.ones(m),
        np.zeros(m + n),
        np.concatenate([np.full(m, np.inf), np.ones(n)]),
    )


def boxed_lp(rng) -> BoundedLp:
    """max c x over A x + s = d with small integer data, 0 <= x <= u."""
    m = int(rng.integers(20, 41))
    n = int(rng.integers(m // 2, m + 1))
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    return BoundedLp(
        "max",
        np.concatenate([rng.integers(-1, 3, size=n).astype(float), np.zeros(m)]),
        np.hstack([a, np.eye(m)]),
        rng.integers(-1, 4, size=m).astype(float),
        np.zeros(n + m),
        np.concatenate([rng.integers(1, 3, size=n).astype(float), np.full(m, np.inf)]),
    )


def highs(lp: BoundedLp):
    sign = 1.0 if lp.sense == "max" else -1.0
    ref = linprog(
        -sign * lp.objective,
        A_eq=lp.a_eq,
        b_eq=lp.rhs,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    assert ref.status in (0, 2), ref.message
    return ref


def assert_matches_highs(lp: BoundedLp, res, ref, label: str) -> bool:
    """Status and optimum agree with HiGHS, the duals certify the optimum
    and every nonbasic reduced cost has its optimal sign.  Returns whether
    the LP is feasible."""
    if ref.status == 2:
        assert res.status is Status.INFEASIBLE, label
        return False
    assert res.status is Status.OPTIMAL, f"{label}: {res.status}"
    sign = 1.0 if lp.sense == "max" else -1.0
    z = -sign * ref.fun
    tol = 1e-7 * (1.0 + abs(z))
    assert abs(res.value - z) <= tol, label
    assert abs(dual_objective(lp, res) - res.value) <= tol, label
    nonbasic = np.ones(lp.num_cols, bool)
    nonbasic[res.basis.basic] = False
    nonbasic &= lp.upper > lp.lower
    rc = sign * res.reduced_costs
    up = res.basis.at_upper
    assert np.all(rc[nonbasic & ~up] <= 1e-7), label
    assert np.all(rc[nonbasic & up] >= -1e-7), label
    return True


def degenerate_lp(seed: int) -> BoundedLp:
    rng = np.random.default_rng([2024, seed])
    return covering_lp(rng) if seed % 2 == 0 else boxed_lp(rng)


def check_degenerate_lps() -> int:
    """Solve the degenerate LPs from the crash basis, the slack basis and
    two random stale bases, checking each against HiGHS.  Returns the
    most phase-2 pivots one solve took."""
    most_pivots = 0
    optimal = 0
    for seed in range(16):
        lp = degenerate_lp(seed)
        ref = highs(lp)
        slack = np.flatnonzero(np.isinf(lp.upper))
        rng = np.random.default_rng([2030, seed])
        starts = [None, Basis(slack, np.zeros(lp.num_cols, bool))]
        for i, start in enumerate(starts + list(random_starts(lp, rng, 2))):
            res = solve(lp, start=start)
            most_pivots = max(most_pivots, res.pivots - res.phase1_pivots)
            optimal += assert_matches_highs(lp, res, ref, f"seed {seed} start {i}")
    assert optimal >= 16
    return most_pivots


def test_degenerate_lps_match_highs():
    # degenerate, tie-rich LPs: status and optimum agree with HiGHS, the
    # duals certify the optimum and every nonbasic reduced cost has its
    # optimal sign.  The stale starts price some unboxed columns dual
    # infeasible; phase 2 undoes their cost shifts
    assert check_degenerate_lps() >= 20  # phase 2, where devex pricing runs


def reoptimization_draws():
    """The LPs of ``test_degenerate_lps_match_highs`` that have an optimum,
    each cut by 1-3 new rows ``g x - s = h`` (``s >= 0``) over its bounded
    columns that the optimum violates.  Yields the cut LP and the old
    optimal basis with the new slacks basic: primal infeasible and dual
    feasible."""
    for seed in range(16):
        lp = degenerate_lp(seed)
        opt = solve(lp)
        if opt.status is not Status.OPTIMAL:
            continue
        rng = np.random.default_rng([2025, seed])
        k = int(rng.integers(1, 4))
        n = lp.num_cols
        g = rng.integers(-2, 3, size=(k, n)) * (rng.random((k, n)) < 0.4)
        g = g * np.isfinite(lp.upper)
        h = g @ opt.x + rng.uniform(0.05, 0.5, size=k)
        cut = BoundedLp(
            lp.sense,
            np.concatenate([lp.objective, np.zeros(k)]),
            np.block([[lp.a_eq, np.zeros((lp.num_rows, k))], [g, -np.eye(k)]]),
            np.concatenate([lp.rhs, h]),
            np.concatenate([lp.lower, np.zeros(k)]),
            np.concatenate([lp.upper, np.full(k, np.inf)]),
        )
        start = Basis(
            np.concatenate([opt.basis.basic, n + np.arange(k)]),
            np.concatenate([opt.basis.at_upper, np.zeros(k, bool)]),
        )
        yield seed, cut, start


@dataclass
class DualRun:
    status: Status
    pivots: int  # dual pivots this run took
    shifted: np.ndarray  # columns whose private cost ended off the true one


def record_dual_runs(monkeypatch) -> list[DualRun]:
    """Each run of the dual phase, in order."""
    runs = []
    run_dual = simplex._Worker._dual

    def recording(self):
        before = self.phase1_pivots
        st = run_dual(self)
        shifted = np.flatnonzero(self.cost != self.cmax)
        runs.append(DualRun(st, self.phase1_pivots - before, shifted))
        return st

    monkeypatch.setattr(simplex._Worker, "_dual", recording)
    return runs


def check_reoptimization(monkeypatch) -> list:
    draws = list(reoptimization_draws())
    runs = record_dual_runs(monkeypatch)
    feasible = infeasible = 0
    for seed, lp, start in draws:
        res = solve(lp, start=start)
        if assert_matches_highs(lp, res, highs(lp), f"seed {seed}"):
            feasible += 1
        else:
            infeasible += 1
    assert feasible >= 8 and infeasible >= 1
    # a warm start after new rows is dual feasible: the dual simplex runs
    assert len(runs) == feasible + infeasible
    return runs


def test_dual_reoptimization_matches_highs(monkeypatch):
    runs = check_reoptimization(monkeypatch)
    assert any(run.status is Status.INFEASIBLE for run in runs)
    # a dual feasible start shifts no cost
    assert not any(run.shifted.size for run in runs)


def test_dual_stall_perturbs_costs(monkeypatch):
    # with no stall allowed, every dual pivot that does not lower the
    # objective perturbs the private costs; phase 2 on the true costs
    # still ends at the HiGHS optimum on every draw and degenerate LP
    monkeypatch.setattr(simplex, "BLAND_WINDOW", 0)
    perturbed = []
    perturb = simplex._Worker._perturb

    def recording(self):
        perturbed.append(self)
        return perturb(self)

    monkeypatch.setattr(simplex._Worker, "_perturb", recording)
    check_reoptimization(monkeypatch)
    assert perturbed
    before = len(perturbed)
    check_degenerate_lps()
    assert len(perturbed) > before


def test_forced_drift_reentry_matches_highs(monkeypatch):
    # the phase-2 drift check fires once per solve, at its first phase-2
    # pivot: the basis goes through the dual phase again (flips, shifts,
    # dual pivots) and phase 2 then ends at the HiGHS optimum
    drifted = simplex._Worker._drifted
    forced = []  # per forced check: the worker and its count of dual runs
    runs = record_dual_runs(monkeypatch)

    def once(self):
        if all(worker is not self for worker, _ in forced):
            forced.append((self, len(runs)))
            return True
        return drifted(self)

    monkeypatch.setattr(simplex._Worker, "_drifted", once)
    check_degenerate_lps()
    assert len(forced) >= 20
    assert len(runs) == 16 * 4 + len(forced)  # one re-entry per forced check
    reentries = [runs[at] for _, at in forced]
    assert all(run.status is Status.OPTIMAL for run in reentries)
    assert any(run.pivots > 0 for run in reentries)


def test_phase1_repairs_stale_dual_infeasible_basis(monkeypatch):
    # a stale basis that is neither primal nor dual feasible: boxed
    # columns flip, unboxed ones have their costs shifted, and the dual
    # simplex repairs it
    runs = record_dual_runs(monkeypatch)
    repaired = shifted = 0
    for seed in range(1, 16, 2):  # the boxed LPs
        lp = degenerate_lp(seed)
        opt = solve(lp)
        if opt.status is not Status.OPTIMAL:
            continue
        rng = np.random.default_rng([2026, seed])
        lp2 = BoundedLp(
            lp.sense,
            -lp.objective,
            lp.a_eq,
            lp.rhs + rng.integers(-3, 4, size=lp.num_rows),
            lp.lower,
            lp.upper,
        )
        before = len(runs)
        res = solve(lp2, start=opt.basis)
        assert_matches_highs(lp2, res, highs(lp2), f"seed {seed}")
        repaired += res.phase1_pivots > 0
        shifted += runs[before].shifted.size > 0
    assert repaired >= 3
    assert shifted >= 3


def implied_box(lp: BoundedLp) -> BoundedLp:
    """``lp`` with each unbounded slack given the upper bound its row
    implies over the box of the other columns: the feasible set is the
    same and every column is boxed."""
    upper = lp.upper.copy()
    for j in np.flatnonzero(np.isinf(lp.upper)):
        i = int(np.argmax(np.abs(lp.a_eq[:, j])))
        coef = -lp.a_eq[i] / lp.a_eq[i, j]
        coef[j] = 0.0
        on = coef != 0.0
        reach = np.maximum(coef[on] * lp.lower[on], coef[on] * lp.upper[on]).sum()
        upper[j] = max(lp.rhs[i] / lp.a_eq[i, j] + reach, lp.lower[j])
    return BoundedLp(lp.sense, lp.objective, lp.a_eq, lp.rhs, lp.lower, upper)


def random_starts(lp: BoundedLp, rng, count: int):
    """``count`` nonsingular bases reached from the slack basis by random
    well-conditioned column swaps, with random bound statuses."""
    slack = np.flatnonzero(np.isinf(lp.upper))
    for _ in range(count):
        basic = slack.copy()
        for _ in range(int(rng.integers(1, lp.num_rows + 1))):
            j = int(rng.choice(np.setdiff1d(np.arange(lp.num_cols), basic)))
            w = np.linalg.solve(lp.a_eq[:, basic], lp.a_eq[:, j])
            rows = np.flatnonzero(np.abs(w) > 0.1)
            if rows.size:
                basic[rng.choice(rows)] = j
        yield Basis(np.sort(basic), rng.random(lp.num_cols) < 0.5)


def start_kind(lp: BoundedLp, start: Basis) -> tuple[bool, np.ndarray]:
    """Whether ``start`` is primal feasible, and its dual infeasible
    nonbasic columns."""
    a, basic = lp.a_eq, start.basic
    up = start.at_upper & np.isfinite(lp.upper)
    x = np.where(up, lp.upper, lp.lower)
    x[basic] = 0.0
    bmat = a[:, basic]
    xb = np.linalg.solve(bmat, lp.rhs - a @ x)
    feasible = np.all(xb >= lp.lower[basic] - 1e-9) and np.all(
        xb <= lp.upper[basic] + 1e-9
    )
    cmax = lp.objective if lp.sense == "max" else -lp.objective
    cbar = cmax - np.linalg.solve(bmat.T, cmax[basic]) @ a
    score = np.where(up, -cbar, cbar)
    score[basic] = -np.inf
    score[lp.upper <= lp.lower] = -np.inf
    return bool(feasible), score > 1e-7


def record_walks(monkeypatch) -> list:
    """(columns passed, whether a column entered) per ratio test."""
    walks = []
    walk = simplex._Worker._bound_flipping_ratio_test

    def recording(self, *args):
        out = walk(self, *args)
        walks.append((out[0].size, out[1] is not None))
        return out

    monkeypatch.setattr(simplex._Worker, "_bound_flipping_ratio_test", recording)
    return walks


def test_boxed_start_from_any_basis_matches_highs(monkeypatch):
    # every column boxed: the start flips each dual infeasible column to
    # its other bound and the dual simplex solves from there, whatever the
    # basis; no cost is shifted.  Starts: random bases, and the optimal
    # basis for a redrawn objective (primal feasible)
    runs = record_dual_runs(monkeypatch)
    walks = record_walks(monkeypatch)
    kinds = set()
    exhausted = 0
    for seed in range(16):
        lp = implied_box(degenerate_lp(seed))
        ref = highs(lp)
        rng = np.random.default_rng([2027, seed])
        starts = list(random_starts(degenerate_lp(seed), rng, 3))
        other = BoundedLp(lp.sense, rng.integers(-2, 3, size=lp.num_cols),
                          lp.a_eq, lp.rhs, lp.lower, lp.upper)
        found = solve(other)
        if found.status is Status.OPTIMAL:
            starts.append(found.basis)
        for i, start in enumerate(starts):
            feasible, wrong = start_kind(lp, start)
            kinds.add("feasible" if feasible else "infeasible")
            if wrong.any():
                kinds.add("dual infeasible")
            before = len(walks)
            res = solve(lp, start=start)
            if not assert_matches_highs(lp, res, ref, f"seed {seed} start {i}"):
                passed, entered = walks[-1]
                exhausted += passed > 0 and not entered
            # one walk per dual pivot, whatever it flips, and one more for
            # the row that proves infeasibility; start flips are no pivots
            infeasible = res.status is Status.INFEASIBLE
            assert len(walks) - before == res.phase1_pivots + infeasible
    assert not any(run.shifted.size for run in runs)
    assert kinds == {"feasible", "infeasible", "dual infeasible"}
    assert any(passed and entered for passed, entered in walks)
    assert exhausted > 0


def test_unboxed_dual_infeasible_start_shifts_costs(monkeypatch):
    # an unbounded slack that prices dual infeasible keeps its status and
    # has its cost shifted; only unboxed columns are shifted, and the dual
    # simplex and phase 2 reach the HiGHS optimum
    runs = record_dual_runs(monkeypatch)
    checked = 0
    for seed in range(16):
        lp = degenerate_lp(seed)
        ref = highs(lp)
        unboxed = np.isinf(lp.upper)
        rng = np.random.default_rng([2028, seed])
        for i, start in enumerate(random_starts(lp, rng, 3)):
            _, wrong = start_kind(lp, start)
            if not np.any(wrong & unboxed):
                continue
            before = len(runs)
            res = solve(lp, start=start)
            assert_matches_highs(lp, res, ref, f"seed {seed} start {i}")
            shifted = runs[before].shifted
            assert set(np.flatnonzero(wrong & unboxed)) <= set(shifted)
            assert np.all(unboxed[shifted])
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("refresh", [2, simplex.REFRESH_EVERY])
def test_dual_updates_reduced_costs_along_the_pivot_row(monkeypatch, refresh):
    # the dual simplex prices once per factorization and then updates the
    # reduced costs from the pivot row; each ratio test must see the
    # reduced costs a fresh pricing gives, and each pivot counts as dual
    monkeypatch.setattr(simplex, "REFRESH_EVERY", refresh)
    seen = []
    walk = simplex._Worker._bound_flipping_ratio_test

    def checking(self, cand, gain, cbar, viol):
        fresh = self._price(self.cost)[0]
        off = ~self.inb
        scale = 1.0 + np.abs(self.cmax).max()
        assert np.abs(cbar[off] - fresh[off]).max() <= 1e-9 * scale
        out = walk(self, cand, gain, cbar, viol)
        seen.append(out[1] is not None)
        return out

    monkeypatch.setattr(simplex._Worker, "_bound_flipping_ratio_test", checking)
    longest = 0
    for seed in range(16):
        lp = implied_box(degenerate_lp(seed))
        rng = np.random.default_rng([2029, seed])
        for start in random_starts(degenerate_lp(seed), rng, 3):
            before = len(seen)
            res = solve(lp, start=start)
            assert res.phase1_pivots == sum(seen[before:])
            longest = max(longest, res.phase1_pivots)
    assert longest > 2  # updates chain, across refactorizations at refresh 2


def test_crash_basis_is_the_pivoted_qr_choice():
    # the crash basis reads only R and the column permutation of a pivoted
    # QR, so it must be the basis that the full economic QR picks
    import scipy.linalg

    rng = np.random.default_rng(2031)
    for _ in range(60):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 16))
        a = np.hstack([-np.eye(m), rng.integers(-5, 6, size=(m, n)).astype(float)])
        if rng.random() < 0.5:  # no identity block: the columns compete
            a = a[:, rng.permutation(m + n)] @ np.diag(rng.uniform(0.5, 2.0, m + n))
        lp = make_lp("max", np.zeros(m + n), a, np.zeros(m))
        basic = simplex._Worker(lp, None, max_iter=1).basic
        _, _, perm = scipy.linalg.qr(a, pivoting=True, mode="economic")
        np.testing.assert_array_equal(basic, np.sort(perm[:m]))


def test_crash_basis_rejects_a_rank_deficient_matrix():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
    lp = make_lp("max", [1.0, 0.0, 0.0], a, [1.0, 1.0, 2.0], upper=[5.0] * 3)
    with pytest.raises(ValueError, match="rank deficient"):
        solve(lp)
