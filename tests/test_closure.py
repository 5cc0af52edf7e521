import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from liftproject import closure, membership, simplex
from liftproject.cli import main
from liftproject.closure import (
    ClosureConfig,
    ClosureError,
    CutPool,
    gap_closed,
    gmi_rounds,
    optimize_closure,
)
from liftproject.cuts import (
    CutRow,
    DynamismError,
    EmptyDisjunctionError,
    FractionalityError,
    eliminate_slacks,
    gmi_cut,
    same_cut,
)
from liftproject.instances import normalize, parse_mps, read_mps
from liftproject.membership import (
    DualContractError,
    FractionalPoint,
    certificate_from_basis,
    membership_problem,
    membership_value,
)
from liftproject.simplex import BoundedLp, Status
from liftproject.standard_form import (
    Basis,
    BasisFactors,
    SingularBasisError,
    StandardLp,
    tableau_row,
    to_standard,
)
from liftproject.verify import assemble_cut, random_milp, strengthen

from conftest import T1_MPS, crash_basis
from test_membership import build_membership_lp, interval_milp, plain_milp
from test_simplex import record_dual_runs
from test_standard_form import basic_point, canonical, canonical_columns, kept_basis

GENERATORS = Path(__file__).resolve().parent.parent / "perfbench" / "generators.py"


def test_t1_pe_closes_everything(t1):
    rep = optimize_closure(t1, ClosureConfig(mode="pe"))
    assert rep.termination == "proved"
    assert rep.z_lp == pytest.approx(-1.0, abs=1e-9)
    assert rep.z_cut == pytest.approx(0.0, abs=1e-9)
    assert rep.cuts_active + rep.cuts_parked == 1  # exactly one cut needed
    assert gap_closed(rep.z_lp, rep.z_cut, 0.0) == pytest.approx(100.0, abs=1e-6)


def test_t1_pestar_matches_pe(t1):
    pe = optimize_closure(t1, ClosureConfig(mode="pe"))
    ps = optimize_closure(t1, ClosureConfig(mode="pestar"))
    assert ps.termination == "proved"
    assert ps.z_cut == pytest.approx(pe.z_cut, abs=1e-9)


def test_integral_lp_optimum_proved_without_cuts():
    # max x1 + x2 over x <= 1 boxes: LP optimum integral
    nm = plain_milp([[-1.0, 0.0], [0.0, -1.0]], [-1.0, -1.0], [1.0, 1.0], p=2)
    rep = optimize_closure(nm, ClosureConfig(mode="pe"))
    assert rep.termination == "proved"
    assert rep.num_cuts == 0
    assert rep.z_cut == pytest.approx(rep.z_lp)
    assert gap_closed(rep.z_lp, rep.z_cut, rep.z_lp) == 100.0


def test_infeasible_relaxation_raises():
    nm = plain_milp([[1.0], [-1.0]], [2.0, -1.0], [1.0], p=1)  # x>=2, x<=1
    with pytest.raises(ClosureError):
        optimize_closure(nm, ClosureConfig(mode="pe"))


def test_unbounded_relaxation_raises():
    nm = plain_milp([[1.0]], [0.0], [1.0], p=1)  # max x, x >= 0
    with pytest.raises(ClosureError, match="unbounded"):
        optimize_closure(nm, ClosureConfig(mode="pe"))


def test_gap_closed_conventions():
    assert gap_closed(1.0, 0.0, 0.0) == pytest.approx(100.0)
    assert gap_closed(1.0, 1.0, 0.0) == pytest.approx(0.0)
    assert gap_closed(1.0, 0.5, 0.0) == pytest.approx(50.0)
    # minimization orientation works with the same formula
    assert gap_closed(-1.0, 0.0, 0.0) == pytest.approx(100.0)
    assert gap_closed(10.0, 12.0, 14.0) == pytest.approx(50.0)
    # clamping
    assert gap_closed(1.0, -0.5, 0.0) == 100.0
    # conventions at zero integrality gap
    assert gap_closed(5.0, 5.0, 5.0) == 100.0
    with pytest.raises(ValueError):
        gap_closed(5.0, 4.0, 5.0)
    assert gap_closed(1.0, 0.5, None) is None


def test_config_bounds_eps_by_mode():
    # a membership value is at least (f - 1) f >= -0.25, so above 0.25 no
    # cut could ever be emitted; in gmi eps is only a fractionality
    # threshold
    with pytest.raises(ValueError, match="at most 0.25 in pe and pestar"):
        ClosureConfig(mode="pe", eps=0.26)
    with pytest.raises(ValueError, match="at most 0.25 in pe and pestar"):
        ClosureConfig(mode="pestar", eps=0.3)
    assert ClosureConfig(mode="gmi", eps=0.3).eps == 0.3
    assert ClosureConfig(mode="pe", eps=0.25).eps == 0.25


def test_config_rejects_fractional_rounds():
    # the CLI parses --rounds as an int; a direct caller may pass a float
    with pytest.raises(ValueError, match="rounds must be an integer"):
        ClosureConfig(mode="gmi", rounds=1.5)


def test_gmi_rounds_t1(t1):
    rep = gmi_rounds(t1, 1)
    assert rep.termination == "rounds_done"
    assert rep.num_cuts == 1
    assert rep.z_cut == pytest.approx(0.0, abs=1e-9)
    rep0 = gmi_rounds(t1, 0)
    assert rep0.num_cuts == 0
    assert rep0.z_cut == pytest.approx(rep0.z_lp)


def test_gmi_rounds_rank_grows(t1):
    # with enough rounds the bound cannot be worse than one round
    r1 = gmi_rounds(t1, 1)
    r3 = gmi_rounds(t1, 3)
    assert r3.z_cut <= r1.z_cut + 1e-9


def test_master_objective_monotone(rng):
    for _ in range(10):
        inst = random_milp(rng)
        try:
            rep = optimize_closure(inst.nm, ClosureConfig(mode="pestar"))
        except ClosureError:
            continue
        objs = [it.objective for it in rep.iterations if it.separations >= 0]
        # original sense here is max: non-increasing within tolerance
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-7 * (1 + abs(a))


def test_pestar_dominates_pe(rng):
    checked = 0
    while checked < 12:
        inst = random_milp(rng)
        try:
            pe = optimize_closure(inst.nm, ClosureConfig(mode="pe"))
            ps = optimize_closure(inst.nm, ClosureConfig(mode="pestar"))
        except ClosureError:
            continue
        # compare bounds directly (max sense): strengthened cuts dominate
        assert ps.z_cut <= pe.z_cut + 0.5 * max(1.0, abs(pe.z_cut)) * 0.01 + 1e-6
        checked += 1


def test_pe_soundness_on_proof(rng):
    # proved runs leave no separating elementary disjunction behind
    checked = 0
    while checked < 8:
        inst = random_milp(rng)
        try:
            rep = optimize_closure(inst.nm, ClosureConfig(mode="pe"))
        except ClosureError:
            continue
        if rep.termination != "proved":
            continue
        pt = FractionalPoint.from_point(inst.nm, rep.x_final, tol=1e-6)
        for k in range(inst.nm.num_integer):
            f = pt.fracs[k]
            if min(f, 1 - f) < 1e-4:
                continue
            prob = build_membership_lp(inst.nm, pt, k)
            value, res = membership_value(prob, crash_basis(prob.lp.a_eq))
            if value is not None:
                assert value >= -1e-4 - 1e-7
        checked += 1


def test_cut_pool_parking_and_reactivation():
    pool = CutPool(slack_threshold=1e-6, park_after=2)
    cut = CutRow(coeffs=np.array([1.0, 0.0]), rhs=0.0, space="structural")
    assert pool.add(cut) == "added"
    assert pool.add(cut.normalized()) == "duplicate_active"
    # scaled duplicate is detected too
    scaled = CutRow(coeffs=np.array([2.0, 0.0]), rhs=0.0, space="structural")
    assert pool.add(scaled) == "duplicate_active"

    basis = Basis(np.array([0]), np.zeros(3, bool))  # slack of the cut row basic
    x_loose = np.array([5.0, 0.0])  # slack 5 > threshold
    assert pool.maintain(x_loose, basis, 0, eps=1e-4) == (0, 0)  # counter 1
    assert pool.maintain(x_loose, basis, 0, eps=1e-4) == (1, 0)  # parked
    assert len(pool.active) == 0 and len(pool.parked) == 1
    # a violating point reactivates it
    x_viol = np.array([-1.0, 0.0])
    parked, reactivated = pool.maintain(x_viol, None, 0, eps=1e-4)
    assert reactivated == 1
    assert len(pool.active) == 1

    # tight points keep the counter at zero
    x_tight = np.array([0.0, 0.0])
    basis1 = Basis(np.array([0]), np.zeros(3, bool))
    pool.maintain(x_tight, basis1, 0, eps=1e-4)
    pool.maintain(x_tight, basis1, 0, eps=1e-4)
    pool.maintain(x_tight, basis1, 0, eps=1e-4)
    assert len(pool.active) == 1  # never parked while tight

    # a pair on either side of a 5-decimal rounding boundary is one cut
    pool = CutPool(slack_threshold=1e-6, park_after=2)
    assert pool.add(CutRow(coeffs=np.array([1.0, 0.1234549999]), rhs=0.0)) == "added"
    twin = CutRow(coeffs=np.array([1.0, 0.1234550001]), rhs=0.0)
    assert pool.add(twin) == "duplicate_active"


def test_cut_pool_duplicate_of_parked_cut_reactivates():
    # regression: membership tests against the parked list must use object
    # identity, not elementwise array equality
    pool = CutPool(slack_threshold=1e-6, park_after=1)
    cut = CutRow(coeffs=np.array([1.0, -1.0, 0.5]), rhs=0.25, space="structural")
    assert pool.add(cut) == "added"
    basis = Basis(np.array([0]), np.zeros(4, bool))
    loose = np.array([9.0, 0.0, 0.0])
    pool.maintain(loose, basis, 0, eps=1e-4)  # parks immediately
    assert pool.parked and not pool.active
    dup = CutRow(coeffs=np.array([2.0, -2.0, 1.0]), rhs=0.5, space="structural")
    assert pool.add(dup) == "reactivated"
    assert pool.active and not pool.parked


def _structured_covering(seed=9, npts=15, ntriples=34, floor_card=7):
    rng = np.random.default_rng(seed)
    triples, seen = [], set()
    while len(triples) < ntriples:
        t = tuple(sorted(rng.choice(npts, 3, replace=False)))
        if t not in seen:
            seen.add(t)
            triples.append(t)
    rows = np.zeros((ntriples, npts))
    for i, t in enumerate(triples):
        rows[i, list(t)] = 1.0
    a = np.vstack([rows, np.ones((1, npts)), -np.eye(npts)])
    b = np.concatenate([np.ones(ntriples), [float(floor_card)], -np.ones(npts)])
    return plain_milp(a, b, -np.ones(npts), p=npts, name="cover")


def test_covering_structure_closes_no_gap():
    # covering + cardinality instances are immune to elementary
    # disjunctive cuts: the proved bound equals the LP bound
    nm = _structured_covering()
    rep = optimize_closure(nm, ClosureConfig(mode="pestar", time_limit=60))
    assert rep.termination == "proved"
    assert rep.z_cut == pytest.approx(rep.z_lp, abs=1e-6)


def test_knapsack_structure_partial_closure(rng):
    # multi-knapsack over binaries: strengthening closes strictly more
    nm = _knapsack(rng)
    pe = optimize_closure(nm, ClosureConfig(mode="pe", time_limit=60))
    ps = optimize_closure(nm, ClosureConfig(mode="pestar", time_limit=60))
    assert pe.termination == "proved" and ps.termination == "proved"
    assert pe.z_cut < pe.z_lp - 1e-6  # some gap is closed
    assert ps.z_cut <= pe.z_cut + 1e-6  # strengthening dominates


def test_time_limit_reported(t1):
    rep = optimize_closure(t1, ClosureConfig(mode="pe", time_limit=0.0))
    assert rep.termination == "time_limit"


def test_report_dict_shape(t1):
    rep = optimize_closure(t1, ClosureConfig(mode="pe"))
    d = rep.to_dict()
    assert d["separations"]["cut"] == rep.num_cuts
    assert d["pivots"]["total"] == rep.master_pivots + rep.separation_pivots
    assert d["config"]["mode"] == "pe"


def test_closure_runs_are_deterministic(rng):
    inst = random_milp(rng)
    r1 = optimize_closure(inst.nm, ClosureConfig(mode="pestar"))
    r2 = optimize_closure(inst.nm, ClosureConfig(mode="pestar"))
    assert r1.z_cut == r2.z_cut  # exact float equality
    assert r1.num_separations == r2.num_separations
    assert [it.objective for it in r1.iterations] == [
        it.objective for it in r2.iterations
    ]


def _permute_columns(nm, rng):
    """Same model with the integer and the continuous columns shuffled
    within their blocks (integers must stay first)."""
    p, n = nm.num_integer, nm.num_cols
    perm = np.concatenate([rng.permutation(p), p + rng.permutation(n - p)])
    return dataclasses.replace(
        nm,
        objective=nm.objective[perm],
        a=nm.a[:, perm],
        perm=nm.perm[perm],
        shift=nm.shift[perm],
        col_names=[nm.col_names[j] for j in perm],
    )


def test_pe_bound_invariant_under_column_permutation(rng):
    # the elementary closure optimum is path independent: reordering the
    # columns changes the separation order and the simplex paths, not the
    # proved bound
    checked = 0
    for _ in range(40):
        inst = random_milp(rng, n_range=(4, 7), m_range=(3, 7))
        try:
            pe = optimize_closure(inst.nm, ClosureConfig(mode="pe"))
            pe_perm = optimize_closure(
                _permute_columns(inst.nm, rng), ClosureConfig(mode="pe")
            )
        except ClosureError:
            continue
        if pe.termination != "proved" or pe_perm.termination != "proved":
            continue
        assert pe_perm.z_cut == pytest.approx(
            pe.z_cut, abs=1e-5 * (1 + abs(pe.z_cut))
        )
        checked += 1
        if checked == 5:
            break
    assert checked == 5


def _knapsack(rng, rows=4, nb=40):
    w = rng.integers(20, 900, size=(rows, nb)).astype(float)
    cap = w.sum(axis=1) * 0.35
    profit = rng.integers(10, 300, nb).astype(float)
    return plain_milp(
        np.vstack([-w, -np.eye(nb)]),
        np.concatenate([-cap, -np.ones(nb)]),
        profit,
        p=nb,
        name="knap",
    )


def test_first_pass_separations_need_no_phase1(rng, monkeypatch):
    # before any cut the master's optimal basis is a basis of every
    # membership LP, and y = f * xhat is its basic feasible solution
    seps = []
    separate = membership.separate

    def recording(*args, **kwargs):
        seps.append(separate(*args, **kwargs))
        return seps[-1]

    monkeypatch.setattr(membership, "separate", recording)
    models = [_knapsack(rng, rows=8)] + [
        random_milp(rng, n_range=(5, 9)).nm for _ in range(8)
    ]
    first_pass = 0
    for nm in models:
        seps.clear()
        try:
            rep = optimize_closure(nm, ClosureConfig(mode="pe"))
        except ClosureError:
            continue
        first = seps[: rep.iterations[0].separations]
        assert all(sep.phase1_pivots == 0 for sep in first)
        first_pass += len(first)
        assert rep.separation_phase1_pivots == sum(s.phase1_pivots for s in seps)
        assert rep.separation_pivots == sum(s.pivots for s in seps)
        pivots = rep.to_dict()["pivots"]
        assert pivots["separation_phase1"] == rep.separation_phase1_pivots
    assert first_pass >= 10


def _cold_solve(slp, upper):
    lp = BoundedLp("max", slp.c, slp.a, slp.b, np.zeros(slp.num_cols), upper)
    return simplex.solve(lp, crash_basis(lp.a_eq))


def _record_master_solves(monkeypatch):
    """Every master solve's simplex result, next to a cold solve of the
    same LP (the master's rows and column bounds) from the crash basis and
    a cold solve of the canonical rows plus the same cuts, bound rows kept
    as rows."""
    solves = []
    warm_solve = closure._Master.solve

    def recording(self, cuts, time_limit=None):
        warm = warm_solve(self, cuts, time_limit=time_limit)
        every_row = canonical(self.nm, cuts)
        solves.append(
            (
                warm,
                _cold_solve(self.slp, self.slp.column_upper()),
                _cold_solve(every_row, every_row.column_upper()),
            )
        )
        return warm

    monkeypatch.setattr(closure._Master, "solve", recording)
    return solves


def _warm_start_models():
    return [
        _knapsack(np.random.default_rng(7), rows=4, nb=30),
        random_milp(np.random.default_rng(11), n_range=(8, 8), m_range=(6, 6)).nm,
    ]


def test_master_phase1_pivots_are_summed(monkeypatch):
    solves = _record_master_solves(monkeypatch)
    for nm in _warm_start_models():
        for run in (
            lambda: optimize_closure(nm, ClosureConfig(mode="pestar")),
            lambda: gmi_rounds(nm, 5),
        ):
            solves.clear()
            rep = run()
            phase1 = sum(warm.phase1_pivots for warm, _, _ in solves)
            assert rep.master_phase1_pivots == phase1 > 0
            assert rep.master_pivots == sum(warm.pivots for warm, _, _ in solves)
            pivots = rep.to_dict()["pivots"]
            assert pivots["master_phase1"] == rep.master_phase1_pivots
            assert pivots["total"] == rep.master_pivots + rep.separation_pivots


def test_warm_master_matches_cold_solve(monkeypatch):
    # the carried master basis is dual feasible, so the re-solves after
    # new cuts run the dual simplex; each optimum must be the one a cold
    # solve of the same rows and column bounds finds, and the one of the
    # canonical rows, whose bound rows the master reads as column bounds
    solves = _record_master_solves(monkeypatch)
    duals = record_dual_runs(monkeypatch)
    for nm in _warm_start_models():
        optimize_closure(nm, ClosureConfig(mode="pestar"))
        gmi_rounds(nm, 5)
    assert len(solves) >= 10 and len(duals) >= 5
    for warm, *colds in solves:
        for cold in colds:
            assert warm.status is cold.status
            if warm.status is Status.OPTIMAL:
                tol = 1e-9 * (1.0 + abs(cold.value))
                assert abs(warm.value - cold.value) <= tol


def _multi_knapsack(rng, rows, nb):
    """Binary multi-dimensional knapsack, W ~ U{5..39}, half-full rows."""
    w = rng.integers(5, 40, size=(rows, nb)).astype(float)
    profit = rng.integers(10, 60, size=nb).astype(float)
    cap = np.floor(0.5 * w.sum(axis=1))
    return plain_milp(
        np.vstack([-w, -np.eye(nb)]),
        np.concatenate([-cap, -np.ones(nb)]),
        profit,
        p=nb,
        name="mkp",
    )


def _bound_row_models():
    # a column bounded twice (the tighter second row stays a row), and a
    # fixed column with a positive objective next to free ones
    twice = plain_milp(
        [[-2.0, -3.0, -1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        [-7.5, -3.0, -1.5, -2.0],
        [3.0, 2.0, 1.0],
        p=3,
        name="twice",
    )
    fixed = plain_milp(
        [[-3.0, -2.0, -4.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        [-9.5, 0.0, -2.0, -1.0],
        [2.0, 5.0, 3.0],
        p=3,
        name="fixed",
    )
    return [
        _knapsack(np.random.default_rng(3), rows=3, nb=20),
        random_milp(np.random.default_rng(5), n_range=(8, 8), m_range=(5, 5)).nm,
        twice,
        fixed,
    ]


def test_column_bounds_read_only_unit_bound_rows():
    nm = plain_milp(
        [
            [-1.0, 0.0, 0.0],  # x0 <= 3
            [-1.0, 0.0, 0.0],  # second bound on x0: stays a row
            [0.0, -2.0, 0.0],  # not a unit coefficient
            [0.0, 0.0, -1.0],  # b > 0: stays a row
            [0.0, -1.0, -1.0],  # two nonzeros
            [0.0, -1.0, 0.0],  # x1 <= 0: fixed
        ],
        [-3.0, -1.0, -4.0, 1.0, -5.0, 0.0],
        [1.0, 1.0, 1.0],
        p=3,
    )
    slp = to_standard(nm)
    assert slp.bound_rows.tolist() == [0, 5]
    assert slp.bound_cols.tolist() == [0, 1]
    assert slp.keep.tolist() == [1, 2, 3, 4]
    assert slp.upper.tolist() == [3.0, 0.0, np.inf]
    assert slp.num_original_rows == nm.num_rows
    assert slp.structural_part().tobytes() == nm.a[[1, 2, 3, 4]].tobytes()


def test_fractional_bound_on_an_integer_column_stays_a_row():
    # read as a column bound, the fractional bound of an integer column
    # would take the cut x <= floor(u) with its slack; it stays a row, and
    # a continuous column still reads its fractional bound as a bound
    nm = plain_milp([[-1.0, 0.0], [0.0, -1.0]], [-2.5, -2.5], [1.0, 1.0], p=1)
    slp = to_standard(nm)
    assert (slp.keep.tolist(), slp.bound_rows.tolist()) == ([0], [1])
    assert slp.upper.tolist() == [np.inf, 2.5]
    for upper in (2.5, 3.7):
        for mode in ("pe", "pestar"):
            report = optimize_closure(interval_milp(upper), ClosureConfig(mode=mode))
            assert report.termination == "proved", report.termination_reason
            assert report.z_cut == pytest.approx(np.floor(upper), abs=1e-9)


def _fractional_ks(master):
    x = master.result.x[master.slp.num_rows :]
    f = x[: master.nm.num_integer] - np.floor(x[: master.nm.num_integer])
    return np.flatnonzero(np.minimum(f, 1.0 - f) >= ClosureConfig().eps)


def reference_start(master, pt):
    """The pass start chosen over every canonical row: the master vertex's
    canonical columns, trimmed by the pivoted QR over all of them when they
    are too many, then mapped onto the kept rows.  Returns the canonical
    columns, the weighted matrix the QR ran on (None without a trim), the
    canonical basis and its image on the kept rows."""
    sep_slp = canonical(master.nm)
    m0 = sep_slp.num_rows
    cols = canonical_columns(master.slp, master.basis, master.result.reduced_costs)
    matrix, basic = None, cols
    if cols.size > m0:
        ranges = np.concatenate([pt.activities, pt.x])[cols]
        weight = np.maximum(ranges, closure.RANK_FILL * max(float(ranges.max()), 1.0))
        matrix = sep_slp.a[:, cols] * weight
        _, perm = scipy.linalg.qr(matrix, pivoting=True, mode="r")
        basic = np.sort(cols[perm[:m0]])
    every_row = Basis(basic, np.zeros(sep_slp.num_cols, dtype=bool))
    return cols, matrix, every_row, kept_basis(master.slp, every_row)


def _check_separation_start(master):
    """The start equals the reference chosen over every canonical row
    (``reference_start``), basic columns and bound statuses, and is
    nonsingular; the reference names m0 of the master vertex's canonical
    columns.  A trim runs over exactly the reference's matrix without the
    set-aside bound rows, those whose column is no candidate, and their
    slacks, sign bits of its zeros included.  When no trim is needed
    (every cut slack basic), the start's basic solution is
    f * (activities, xhat) for every fractional k.  Returns whether that
    solution was checked, False after a trim, and how many rows the trim
    set aside."""
    sep_slp = canonical(master.nm)
    pt = FractionalPoint.from_point(
        master.nm, master.result.x[master.slp.num_rows :], tol=1e-6
    )
    cols, reference, every_row, want = reference_start(master, pt)
    built, qr = [], closure.pivoted_qr

    def recording(a, **kwargs):
        built.append(a.copy())
        return qr(a, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closure, "pivoted_qr", recording)
        start = closure._separation_start(master, pt)
    assert start.basic.tolist() == want.basic.tolist()
    assert start.at_upper.tolist() == want.at_upper.tolist()
    m0 = sep_slp.num_rows
    base = master.base
    aside = base.bound_rows[~np.isin(m0 + base.bound_cols, cols)]
    if reference is not None:
        rows = np.setdiff1d(np.arange(m0), aside)
        reduced = reference[np.ix_(rows, np.flatnonzero(~np.isin(cols, aside)))]
        assert len(built) == 1
        assert built[0].tobytes() == reduced.tobytes()
        assert np.array_equal(np.signbit(built[0]), np.signbit(reduced))
    else:
        assert not built
    assert every_row.basic.size == m0 and np.isin(every_row.basic, cols).all()
    factors = BasisFactors(sep_slp.a, every_row)  # raises when singular
    # the start the LP is solved from, over the kept rows
    assert start.basic.size == base.num_rows
    assert np.all(np.diff(start.basic) > 0)
    kept_factors = BasisFactors(base.a, start)  # raises when singular
    if reference is not None:
        return False, aside.size
    yhat = np.concatenate([pt.activities, pt.x])
    kept_cols = np.concatenate([base.keep, m0 + np.arange(pt.x.size)])
    for k in _fractional_ks(master):
        f = pt.fracs[k]
        y = np.zeros(sep_slp.num_cols)
        y[every_row.basic] = factors.solve(f * sep_slp.b)
        assert np.abs(y - f * yhat).max() <= 1e-9
        # the same point, inside the kept LP's bounds: its basic point
        lp = membership_problem(base, pt, k).lp
        x = np.where(start.at_upper, lp.upper, lp.lower)
        x[start.basic] = 0.0
        x[start.basic] = kept_factors.solve(lp.rhs - lp.a_eq @ x)
        assert np.abs(x - f * yhat[kept_cols]).max() <= 1e-9
    return True, 0


def _loose_cuts(nm):
    # each original row relaxed by one: valid, and slack at every master
    # optimum, so the cut slacks stay basic
    return [CutRow(nm.a[i], nm.b[i] - 1.0) for i in range(nm.num_rows)]


def test_separation_start_is_a_basis_at_the_master_vertex(monkeypatch):
    # separation starts straight from the master's own basis, bound rows
    # included: the twice-bounded column and the fixed column too
    checked = []
    warm_solve = closure._Master.solve

    def checking(self, cuts, time_limit=None):
        res = warm_solve(self, cuts, time_limit=time_limit)
        if res.status is Status.OPTIMAL and cuts:
            checked.append((self.nm.name, *_check_separation_start(self)))
        return res

    monkeypatch.setattr(closure._Master, "solve", checking)
    for nm in _bound_row_models():
        assert to_standard(nm).bound_rows.size
        for mode in ("pe", "pestar"):
            optimize_closure(nm, ClosureConfig(mode=mode))
        master = closure._Master(nm)
        master.solve(_loose_cuts(nm))
    names = {name for name, _, _ in checked}
    assert names == {"knap", "random", "twice", "fixed"}
    assert len(checked) >= 20
    assert {name for name, exact, _ in checked if exact} == names
    assert any(not exact for _, exact, _ in checked)  # trimmed starts
    assert sum(aside for _, _, aside in checked) >= 50  # set-aside bound rows
    # small random models, bound rows on every column
    checked.clear()
    rng = np.random.default_rng(5)
    for _ in range(30):
        nm = random_milp(rng).nm
        for mode in ("pe", "pestar"):
            optimize_closure(nm, ClosureConfig(mode=mode))
    assert sum(not exact for _, exact, _ in checked) >= 60  # trimmed starts
    assert sum(aside for _, _, aside in checked) >= 30
    # a far bound on a column at 0: its set-aside slack has the largest
    # range, so it sets the RANK_FILL floor of the columns with none
    checked.clear()
    knap = _knapsack(np.random.default_rng(3), rows=3, nb=20)
    a = np.hstack([knap.a, np.zeros((knap.num_rows, 1))])
    a[:3, -1] = -1.0
    nm = plain_milp(
        np.vstack([a, -np.eye(21)[-1:]]),
        np.append(knap.b, -1e6),
        np.append(knap.objective, -1.0),
        p=20,
        name="far",
    )
    for mode in ("pe", "pestar"):
        optimize_closure(nm, ClosureConfig(mode=mode))
    assert sum(not exact for _, exact, _ in checked) >= 5


def test_bounded_membership_lp_matches_the_canonical_one(monkeypatch):
    # each separation solves its LP over the rows that are not bounds and
    # reads its certificate from that LP's own basis, the columns at a
    # bound their bound-row slack sets complemented: the optimum is the
    # canonical LP's, every factorization is over the kept rows, and the
    # certificate's multipliers over every original row assemble the
    # emitted cuts (Theorems 3 and 4) with u0 = ceil_k - rhs
    lps, certs, seps, sizes, inside = [], [], [], [], []
    value_of, separate = membership.membership_value, membership.separate
    read, factor = membership.certificate_from_basis, BasisFactors.__init__

    def solving(prob, start, **kwargs):
        value, result = value_of(prob, start=start, **kwargs)
        lps.append((prob, result))
        return value, result

    def reading(basis, prob):
        certs.append((prob, read(basis, prob)))
        return certs[-1][1]

    def separating(slp, pt, k, *args, **kwargs):
        before = len(certs)
        sizes.append([])  # rows of each basis factored inside this call
        inside.append(True)
        try:
            sep = separate(slp, pt, k, *args, **kwargs)
        finally:
            inside.pop()
        seps.append((pt, k, sep, certs[before:]))
        return sep

    def factoring(self, a, basis):
        if inside:
            sizes[-1].append(a.shape[0])
        factor(self, a, basis)

    monkeypatch.setattr(membership, "membership_value", solving)
    monkeypatch.setattr(membership, "certificate_from_basis", reading)
    monkeypatch.setattr(membership, "separate", separating)
    monkeypatch.setattr(BasisFactors, "__init__", factoring)
    models = _bound_row_models() + [
        random_milp(np.random.default_rng(seed), n_range=(6, 10)).nm
        for seed in range(10)
    ]
    cuts = complemented = 0
    for nm in models:
        rows = to_standard(nm).num_rows
        every_row = canonical(nm)
        for mode in ("pe", "pestar"):
            lps.clear()
            seps.clear()
            sizes.clear()
            try:
                optimize_closure(nm, ClosureConfig(mode=mode))
            except ClosureError:
                continue
            assert len(lps) == len(seps) == len(sizes)
            assert {size for sizes_of in sizes for size in sizes_of} <= {rows}
            for (pt, k, _, _), (prob, result) in zip(seps, lps):
                assert prob.lp.num_rows == rows
                canonical_lp = build_membership_lp(nm, pt, k, slp=every_row)
                value, exact = membership_value(
                    canonical_lp, crash_basis(canonical_lp.lp.a_eq)
                )
                assert result.status is exact.status is Status.OPTIMAL
                z = prob.constant + result.value
                assert abs(z - value) <= 1e-9 * (1.0 + abs(value))
            for (_, _, sep, read_here), sizes_of in zip(seps, sizes):
                if not sep.found:
                    continue
                cuts += 1
                assert sizes_of  # the LU of the row of y_k, over the kept rows
                [(prob, cert)] = read_here
                assert cert.u.size == cert.v.size == nm.num_rows
                assert cert.s.size == cert.t.size == nm.num_cols
                assert cert.u0 == prob.ceil_k - cert.row.rhs
                u0 = prob.ceil_k + float((cert.v - cert.u) @ nm.b)
                assert abs(cert.u0 - u0) <= 1e-9 * (1.0 + np.abs(nm.b).max())
                complemented += cert.complemented.size > 0
                plain = assemble_cut(cert, nm)
                strong = strengthen(cert, plain, nm)
                for got, want in ((sep.plain, plain), (sep.strengthened, strong)):
                    want = want.normalized()
                    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-9
                    assert abs(got.rhs - want.rhs) <= 1e-9
    assert cuts >= 50 and complemented >= 10


def test_no_bound_rows_separate_as_the_canonical_lp(monkeypatch):
    # without bound rows the kept rows are every row: the separation
    # system, every membership LP and every cut are a canonical solve's,
    # bit for bit
    rng = np.random.default_rng(6)
    w = rng.integers(20, 900, size=(4, 12)).astype(float)
    cap = np.floor(0.35 * w.sum(axis=1))
    nm = plain_milp(-w, -cap, rng.integers(10, 300, 12), p=12)
    assert not to_standard(nm).bound_rows.size
    calls, lps = [], []
    separate, value_of = membership.separate, membership.membership_value

    def separating(*args, **kwargs):
        calls.append((args, kwargs, separate(*args, **kwargs)))
        return calls[-1][2]

    def solving(prob, start, **kwargs):
        lps.append((prob, start, value_of(prob, start=start, **kwargs)[1]))
        return lps[-1][2].value + prob.constant, lps[-1][2]

    monkeypatch.setattr(membership, "separate", separating)
    monkeypatch.setattr(membership, "membership_value", solving)
    rep = optimize_closure(nm, ClosureConfig(mode="pestar"))
    monkeypatch.undo()
    assert rep.num_cuts > 0 and len(calls) == len(lps) == rep.num_separations
    every_row = canonical(nm)
    found = 0
    for (args, kwargs, sep), (prob, start, result) in zip(calls, lps):
        slp, pt, k = args
        assert slp.a.tobytes() == every_row.a.tobytes()
        assert slp.b.tobytes() == every_row.b.tobytes()
        exact = build_membership_lp(nm, pt, k, slp=slp)
        for name in ("objective", "rhs", "lower", "upper"):
            assert getattr(prob.lp, name).tobytes() == getattr(exact.lp, name).tobytes()
        assert prob.lp.a_eq is exact.lp.a_eq
        _, again = membership_value(exact, start=start)
        assert again.x.tobytes() == result.x.tobytes()
        assert (again.pivots, again.value) == (result.pivots, result.value)
        if not sep.found:
            continue
        found += 1
        cert = certificate_from_basis(again.basis, exact)
        integer_cols = np.zeros(every_row.num_cols, dtype=bool)
        integer_cols[every_row.num_rows : every_row.num_rows + nm.num_integer] = True
        plain = eliminate_slacks(gmi_cut(cert.row, eps=1e-12), every_row)
        strong = eliminate_slacks(gmi_cut(cert.row, integer_cols, eps=1e-12), every_row)
        for got, want in ((sep.plain, plain), (sep.strengthened, strong)):
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.rhs == want.rhs
    assert found == rep.num_cuts


def test_first_gmi_round_matches_the_canonical_tableau():
    # the master's basis mapped by the tests' ``canonical_columns`` is an
    # optimal basis of the canonical rows at the same vertex, and the first
    # round's cuts, read from the master's own tableau with the columns at
    # upper complemented, are the GMI cuts of that canonical basis
    for nm in _bound_row_models():
        master = closure._Master(nm)
        res = master.solve([])
        slp = canonical(nm)
        m = slp.num_rows
        cols = canonical_columns(master.slp, master.basis, res.reduced_costs)
        basis = Basis(cols, np.zeros(slp.num_cols, dtype=bool))
        factors = BasisFactors(slp.a, basis)  # raises when singular
        x = basic_point(slp, basis)
        assert np.abs(x[m:] - res.x[master.slp.num_rows :]).max() <= 1e-9
        # every canonical column sits at its lower bound 0 when nonbasic,
        # so dual feasibility asks for nonpositive reduced costs (max sense)
        y = factors.solve_transpose(slp.c[basis.basic])
        cbar = slp.c - y @ slp.a
        assert cbar[~basis.in_basis_mask()].max(initial=0.0) <= 1e-9 * (
            1.0 + np.abs(slp.c).max()
        )
        integer_cols = np.zeros(slp.num_cols, dtype=bool)
        integer_cols[m : m + nm.num_integer] = True
        expected = []
        for k in _fractional_ks(master):
            if m + k not in cols:
                continue
            row = tableau_row(slp, basis, m + k, factors)
            try:
                cut = eliminate_slacks(gmi_cut(row, integer_cols), slp)
            except (FractionalityError, DynamismError, EmptyDisjunctionError):
                continue
            if not any(same_cut(cut, c) for c in expected):
                expected.append(cut)
        rep = gmi_rounds(nm, 1)
        assert len(rep.cut_rows) == len(expected) == rep.num_cuts
        for got, want in zip(rep.cut_rows, expected):
            assert np.abs(got.coeffs - want.coeffs).max() <= 1e-9
            assert abs(got.rhs - want.rhs) <= 1e-9
        assert expected and master.slp.at_upper(master.basis, res.reduced_costs).any()


def test_first_master_solve_flips_bounds_instead_of_pivoting():
    # 65 canonical rows, 60 of them bound rows; over the canonical rows
    # the first solve took 45 pivots
    master = closure._Master(_multi_knapsack(np.random.default_rng(0), 5, 60))
    res = master.solve([])
    assert res.status is Status.OPTIMAL
    assert master.slp.num_rows == 5
    assert res.pivots <= 15


def test_gmi_rounds_build_one_system_per_master_solve(monkeypatch):
    # without bound rows the master's system is the canonical one; with
    # them, GMI rows still come from the master's own system, so no round
    # builds a second one
    nm = plain_milp(
        [[-3.0, -5.0, -4.0], [-6.0, -2.0, -3.0]], [-10.5, -11.5], [4.0, 6.0, 5.0], p=3
    )
    built = []
    with_cuts = StandardLp.with_cuts

    def counting(*args, **kwargs):
        built.append(with_cuts(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(StandardLp, "with_cuts", counting)
    master = closure._Master(nm)
    assert not master.base.bound_rows.size
    master.solve([])
    every_row = canonical(nm)
    assert master.slp.a.tobytes() == every_row.a.tobytes()
    assert master.slp.b.tobytes() == every_row.b.tobytes()
    for model in [nm, *_bound_row_models()]:
        built.clear()
        rep = gmi_rounds(model, 3)
        assert rep.num_cuts > 0
        assert len(built) == rep.num_master_solves


def test_dual_pivots_are_counted_as_phase1(monkeypatch):
    solves = _record_master_solves(monkeypatch)
    seps = []
    separate = membership.separate

    def recording(*args, **kwargs):
        seps.append(separate(*args, **kwargs))
        return seps[-1]

    monkeypatch.setattr(membership, "separate", recording)
    rep = optimize_closure(
        _multi_knapsack(np.random.default_rng(1), 4, 30), ClosureConfig(mode="pe")
    )
    warm = [w for w, _, _ in solves]
    # the relaxation solve flips the profitable columns to their upper
    # bounds and repairs the rows they overfill by the dual simplex, whose
    # pivots are the phase-1 pivots
    assert warm[0].phase1_pivots > 0
    assert rep.master_phase1_pivots == sum(w.phase1_pivots for w in warm)
    assert rep.separation_phase1_pivots == sum(s.phase1_pivots for s in seps) > 0
    pivots = rep.to_dict()["pivots"]
    assert pivots["master_phase1"] == rep.master_phase1_pivots
    assert pivots["separation_phase1"] == rep.separation_phase1_pivots
    assert not {"master_dual", "separation_dual"} & set(pivots)


def test_loose_cuts_are_parked_by_their_master_slack(monkeypatch):
    # a loose cut has a positive, hence basic, slack in the master, which
    # ``maintain`` finds after the master's kept rows, not after every
    # original row
    monkeypatch.setattr(closure, "POOL_PARK_AFTER", 1)
    seen = []
    maintain = CutPool.maintain

    def maintaining(self, x, basis, num_base_rows, eps):
        out = maintain(self, x, basis, num_base_rows, eps)
        seen.append(out[0])
        slacks = [cut.coeffs @ x - cut.rhs for cut in self.active]
        assert max(slacks, default=0.0) <= self.slack_threshold
        return out

    monkeypatch.setattr(CutPool, "maintain", maintaining)
    optimize_closure(_knapsack(np.random.default_rng(2), rows=3, nb=20), ClosureConfig())
    assert sum(seen) >= 3


def test_carried_master_start_needs_no_flips(monkeypatch):
    # the first solve flips the profitable columns to their upper bounds;
    # every re-solve starts from the carried basis, statuses included,
    # which is dual feasible as it stands
    wrong, in_master = [], []
    warm_solve = closure._Master.solve
    dual = simplex._Worker._dual

    def solving(self, cuts, time_limit=None):
        in_master.append(True)
        try:
            return warm_solve(self, cuts, time_limit=time_limit)
        finally:
            in_master.pop()

    def flipping(self):
        if in_master:
            scores = self._scores(self._price(self.cmax)[0])
            wrong.append(int(np.count_nonzero(scores > self.dtol)))
            assert not np.any(scores[~self.boxed] > self.dtol)  # no shift
        return dual(self)

    monkeypatch.setattr(closure._Master, "solve", solving)
    monkeypatch.setattr(simplex._Worker, "_dual", flipping)
    nm = _knapsack(np.random.default_rng(4), rows=3, nb=20)
    rep = optimize_closure(nm, ClosureConfig(mode="pe"))
    assert len(wrong) == rep.num_master_solves >= 3
    assert wrong[0] > 0 and not any(wrong[1:])


def test_warm_membership_matches_cold_solve(monkeypatch):
    # every membership LP starts from the master's basis, flipped to dual
    # feasibility by the simplex; each optimum must be the one a solve of
    # the same LP from the crash basis finds, and the one of the canonical
    # LP, whose bound rows the solved LP reads as column bounds
    solves = []
    warm_value = membership.membership_value

    def recording(prob, start, **kwargs):
        value, warm = warm_value(prob, start=start, **kwargs)
        canonical = build_membership_lp(nm, prob.point, prob.k).lp
        solves.append(
            (
                isinstance(start, BasisFactors),
                warm,
                simplex.solve(prob.lp, crash_basis(prob.lp.a_eq)),
                simplex.solve(canonical, crash_basis(canonical.a_eq)),
                prob.lp.num_rows,
            )
        )
        return value, warm

    monkeypatch.setattr(membership, "membership_value", recording)
    knapsack = _warm_start_models()[0]
    milp = random_milp(np.random.default_rng(4), n_range=(12, 12), m_range=(8, 8)).nm
    for nm, mode in ((knapsack, "pe"), (milp, "pestar")):
        solves.clear()
        optimize_closure(nm, ClosureConfig(mode=mode))
        assert len(solves) >= 20 and all(started for started, *_ in solves)
        rows = to_standard(nm).num_rows
        for _, warm, cold, canonical, lp_rows in solves:
            assert warm.status is cold.status is canonical.status is Status.OPTIMAL
            assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
            tol = 1e-9 * (1.0 + abs(canonical.value))
            assert abs(warm.value - canonical.value) <= tol
            assert lp_rows == rows < nm.num_rows


@pytest.mark.parametrize(
    "target, error",
    [("tableau_row", SingularBasisError), ("certificate_from_basis", DualContractError)],
)
def test_separation_errors_end_inconclusive(t1, monkeypatch, target, error):
    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(membership, target, broken)
    pt = FractionalPoint.from_point(t1, [0.5, 1.0])
    slp = to_standard(t1)
    sep = membership.separate(slp, pt, 0, crash_basis(slp.a))
    assert sep.inconclusive and not sep.found
    assert error.__name__ in sep.reason
    rep = optimize_closure(t1, ClosureConfig(mode="pe"))
    assert rep.num_inconclusive > 0
    assert rep.termination == "stalled"


def test_no_integer_variables_is_immediately_proved():
    nm = plain_milp([[-1.0, -1.0]], [-4.0], [1.0, 2.0], p=0)
    rep = optimize_closure(nm, ClosureConfig(mode="pestar"))
    assert rep.termination == "proved"
    assert rep.num_separations == 0
    assert rep.z_cut == pytest.approx(rep.z_lp)


def test_separation_start_is_factored_once_per_pass(rng, monkeypatch):
    # the separations of a pass that start from the master's basis share
    # one factored start, whose explicit inverse the simplex computes once
    # for the whole pass, and that start behaves bit for bit like the plain
    # basis it came from; a variable whose last separation ended no-cut
    # starts from that LP's terminal factors instead, with no LU at the
    # start unless they carry REFRESH_EVERY updates, and reaches the
    # optimum a solve from the plain remembered basis reaches
    events, calls, opened = [], [], []
    init, inverse = BasisFactors.__init__, BasisFactors.inverse
    init_basis = simplex._Worker._init_basis
    separate = membership.separate

    def recording_init(self, a, basis):
        events.append(("factor", self, a, basis.basic.copy()))
        init(self, a, basis)

    def recording_inverse(self):
        if self._inverse is None:
            events.append(("invert", self, self.a, self.basis.basic.copy()))
        return inverse(self)

    def recording_init_basis(self, start):
        before = len(events)
        init_basis(self, start)
        lus = sum(kind == "factor" for kind, *_ in events[before:])
        opened.append((start, lus))

    def recording_separate(*args, **kwargs):
        calls.append((args, kwargs, separate(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(BasisFactors, "__init__", recording_init)
    monkeypatch.setattr(BasisFactors, "inverse", recording_inverse)
    monkeypatch.setattr(simplex._Worker, "_init_basis", recording_init_basis)
    monkeypatch.setattr(membership, "separate", recording_separate)
    rep = optimize_closure(_knapsack(rng, rows=3, nb=15), ClosureConfig(mode="pe"))
    monkeypatch.undo()

    factored = {id(obj) for kind, obj, _, _ in events if kind == "factor"}
    assert all(isinstance(kw["start"], BasisFactors) for _, kw, _ in calls)
    # every start is a basis of the kept rows the LPs share
    assert all(kw["start"].a is args[0].a for args, kw, _ in calls)
    assert calls[0][0][0].num_rows == 3
    shared = [c for c in calls if id(c[1]["start"]) in factored]
    own = [c for c in calls if id(c[1]["start"]) not in factored]
    starts = list({id(kw["start"]): kw["start"] for _, kw, _ in shared}.values())
    passes = [it for it in rep.iterations if it.separations]
    assert len(starts) == sum(it.separations > it.remembered for it in passes) >= 2
    assert len(own) == rep.num_remembered > 0
    assert rep.num_separations > len(passes)
    marks = [
        next(i for i, (_, obj, _, _) in enumerate(events) if obj is fs)
        for fs in starts
    ]
    for fs, lo, hi in zip(starts, marks, marks[1:] + [len(events)]):
        assert [
            obj for kind, obj, a, basic in events[lo:hi]
            if kind == "invert"
            and a is fs.a
            and np.array_equal(basic, fs.basis.basic)
        ] == [fs]
    moved = 0
    for args, kwargs, _ in shared:
        fs = kwargs["start"]
        plain = membership.separate(*args, **{**kwargs, "start": fs.basis})
        again = membership.separate(*args, **kwargs)
        assert (again.value, again.pivots, again.phase1_pivots, again.found) == (
            plain.value, plain.pivots, plain.phase1_pivots, plain.found
        )
        if plain.found:
            for x, y in (
                (again.plain, plain.plain),
                (again.strengthened, plain.strengthened),
            ):
                assert x.coeffs.tobytes() == y.coeffs.tobytes() and x.rhs == y.rhs
        moved += plain.pivots > 0
    assert moved > 0
    lus = {id(start): n for start, n in opened}
    for args, kwargs, sep in own:
        fs = kwargs["start"]
        assert lus[id(fs)] == (fs.updates >= simplex.REFRESH_EVERY)
        plain = membership.separate(*args, **{**kwargs, "start": fs.basis})
        assert sep.found == plain.found
        assert abs(sep.value - plain.value) <= 1e-9 * (1.0 + abs(plain.value))


def _perfbench_generators(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_generators", GENERATORS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_steiner_cover_separates_each_variable_once_per_master_point(
    tmp_path, monkeypatch
):
    # the Steiner triple covering on 15 points in pestar ends with passes
    # that find no cut; the master is not solved again over the same rows,
    # and no variable is separated twice at one master point
    gen = _perfbench_generators(monkeypatch)
    path = tmp_path / "stein15.mps"
    gen.write_mps(gen.bose_steiner(2, "stein15"), path)
    nm = normalize(read_mps(path))
    row_sets, seen = [], []
    solve, separate = closure._Master.solve, membership.separate

    def solving(self, cuts, time_limit=None):
        row_sets.append([id(cut) for cut in cuts])
        return solve(self, cuts, time_limit=time_limit)

    def separating(slp, pt, k, *args, **kwargs):
        seen.append((len(row_sets), k))
        return separate(slp, pt, k, *args, **kwargs)

    monkeypatch.setattr(closure._Master, "solve", solving)
    monkeypatch.setattr(membership, "separate", separating)
    rep = optimize_closure(nm, ClosureConfig(mode="pestar"))
    assert rep.termination == "proved"
    assert rep.z_cut == pytest.approx(45.0 / 7.0, rel=0.0, abs=1e-9)
    assert len(seen) == len(set(seen)) == rep.num_separations
    assert all(a != b for a, b in zip(row_sets, row_sets[1:]))
    assert rep.num_master_solves == len(row_sets)
    assert rep.num_reused > 0


def test_remembered_starts_refactor_past_the_refresh_interval(monkeypatch):
    # a remembered start carries the product-form updates of the LP that
    # left it; once they reach REFRESH_EVERY the next LP factors its basis
    # afresh, below that it takes the inverse as it is, and either way it
    # reaches the optimum a cold solve finds.  The interval alternates
    # between 100 and 2 from pass to pass, so the starts left by a pass at
    # 100 may carry 2 updates or more into a pass at 2.
    factored, opened, solves = set(), [], []
    init = BasisFactors.__init__
    init_basis = simplex._Worker._init_basis
    value_of, run = membership.membership_value, closure._run_separations

    def recording_init(self, a, basis):
        factored.add(id(self))
        init(self, a, basis)
        kept.append(self)  # keeps every id unique

    def recording_init_basis(self, start):
        before = len(kept)
        init_basis(self, start)
        if isinstance(start, BasisFactors) and id(start) not in factored:
            opened.append((start.updates, simplex.REFRESH_EVERY, len(kept) - before))

    def recording_value(prob, start, **kwargs):
        value, result = value_of(prob, start=start, **kwargs)
        if isinstance(start, BasisFactors) and id(start) not in factored:
            solves.append((result, simplex.solve(prob.lp, crash_basis(prob.lp.a_eq))))
        return value, result

    def alternating(*args):
        out = run(*args)
        monkeypatch.setattr(simplex, "REFRESH_EVERY", 102 - simplex.REFRESH_EVERY)
        return out

    kept = []
    monkeypatch.setattr(BasisFactors, "__init__", recording_init)
    monkeypatch.setattr(simplex._Worker, "_init_basis", recording_init_basis)
    monkeypatch.setattr(membership, "membership_value", recording_value)
    monkeypatch.setattr(closure, "_run_separations", alternating)
    models = _bound_row_models() + [
        random_milp(
            np.random.default_rng(seed), n_range=(12, 16), m_range=(8, 10)
        ).nm
        for seed in range(10)
    ]
    for nm in models:
        for mode in ("pe", "pestar"):
            monkeypatch.setattr(simplex, "REFRESH_EVERY", 100)
            try:
                optimize_closure(nm, ClosureConfig(mode=mode))
            except ClosureError:
                continue
    assert all(lus == (updates >= limit) for updates, limit, lus in opened)
    assert any(lus for *_, lus in opened) and not all(lus for *_, lus in opened)
    assert len(solves) == len(opened)
    for warm, cold in solves:
        assert warm.status is cold.status is Status.OPTIMAL
        assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))


def test_relaxation_violation_ends_numerical(t1, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("point violates the relaxation by 1.0e+04 (> 1e-06)")

    monkeypatch.setattr(membership.FractionalPoint, "from_point", broken)
    rep = optimize_closure(t1, ClosureConfig(mode="pe"))
    assert rep.termination == "numerical"
    assert rep.z_cut == rep.z_lp  # the last master value
    path = tmp_path / "t1.mps"
    path.write_text(T1_MPS)
    assert main(["close", str(path), "--mode", "pe"]) == 2


def big_bound_mps(upper: str) -> str:
    """Five columns, one continuous bound ``upper`` on x2 (ROADMAP item 7).
    HiGHS gives an LP optimum of 7.0667 and an integer optimum of 6.4.
    From about 1e10 the simplex's feasibility tolerance, grown by the
    bound, lets the master end at a vertex with x3 = -1.67, below its
    lower bound 0, worth 8.4 (15 at 1e16)."""
    return "\n".join([
        "NAME BIG", "OBJSENSE", "    MAX", "ROWS", " N obj",
        " G r1", " G r2", " L r3", " E r4",
        "COLUMNS",
        "    MARKER 'MARKER' 'INTORG'",
        "    x0 obj 3 r1 -5", "    x0 r2 5 r3 -3", "    x0 r4 -5",
        "    x1 obj -2 r1 3", "    x1 r2 -5 r3 -1",
        "    x3 obj 1 r1 -2", "    x3 r2 3 r3 -5", "    x3 r4 1",
        "    MARKER 'MARKER' 'INTEND'",
        "    x2 obj -2 r1 -1", "    x2 r2 4 r3 -1", "    x2 r4 4",
        "    x4 obj -1 r1 5", "    x4 r2 -5 r3 -5", "    x4 r4 5",
        "RHS", "    rhs r1 -6 r2 6", "    rhs r3 4.5 r4 -2",
        "BOUNDS",
        " UP bnd x0 2", " LO bnd x1 -3", " UP bnd x1 -1", " UP bnd x3 3",
        f" UP bnd x2 {upper}", " UP bnd x4 3",
        "ENDATA", "",
    ])


def _big_bound_run(upper, mode):
    nm = normalize(parse_mps(big_bound_mps(upper)))
    if mode == "gmi-rounds":
        return gmi_rounds(nm, 1)
    return optimize_closure(nm, ClosureConfig(mode=mode))


@pytest.mark.parametrize("mode", ["pe", "pestar", "gmi-rounds"])
def test_big_bound_model_at_1e6_keeps_its_values(mode):
    rep = _big_bound_run("1e6", mode)
    assert rep.z_lp == pytest.approx(106 / 15, abs=1e-6)
    if mode == "gmi-rounds":
        assert rep.termination == "rounds_done"
        assert 6.4 - 1e-6 <= rep.z_cut <= rep.z_lp + 1e-9
    else:
        assert rep.termination == "proved"
        assert rep.z_cut == pytest.approx(6.4, abs=1e-6)


@pytest.mark.parametrize("mode", ["pe", "pestar", "gmi-rounds"])
@pytest.mark.parametrize("upper", ["1e10", "1e16"])
def test_big_bound_vertex_below_a_lower_bound_ends_numerical(tmp_path, upper, mode):
    # the master vertex satisfies every row of nm.a but has x3 < 0; a run
    # that reported it proved or rounds_done gave a wrong z_lp and z_cut
    rep = _big_bound_run(upper, mode)
    assert rep.termination == "numerical"
    assert rep.termination_reason.startswith(
        "master optimum rejected: point violates the relaxation by"
    )
    path = tmp_path / "big.mps"
    path.write_text(big_bound_mps(upper))
    assert main(["close", str(path), "--mode", mode]) == 2


def test_row_scaled_knapsack_raises_nothing():
    # one row scaled by 1e5 made the relaxation check raise out of the
    # loop, and the GMI rounds' tableau factorization out of gmi_rounds in
    # round 3; how the run ends depends on the BLAS build, so only that
    # nothing escapes is asserted
    rng = np.random.default_rng(1001)
    w = rng.integers(5, 40, (8, 25)).astype(float)
    cap = np.floor(w.sum(1) * rng.uniform(0.3, 0.6, 8))
    profit = rng.integers(10, 100, 25).astype(float)
    a = np.vstack([-w, -np.eye(25)])
    b = np.concatenate([-cap, -np.ones(25)])
    a[1] *= 1e5
    b[1] *= 1e5
    nm = plain_milp(a, b, profit, p=25, name="scaled")
    for mode in ("pe", "pestar"):
        rep = optimize_closure(nm, ClosureConfig(mode=mode))
        assert rep.termination in ("proved", "stalled", "numerical", "time_limit")
        assert rep.termination_reason
    rep = gmi_rounds(nm, 5)
    assert rep.termination in ("rounds_done", "numerical", "time_limit")
    assert rep.termination_reason


def _repeat_a_column(basis: Basis) -> Basis:
    """``basis`` with its last basic column replaced by its first: no
    basis, since its matrix is singular."""
    basic = basis.basic.copy()
    basic[-1] = basic[0]
    return Basis(basic, basis.at_upper)


def test_singular_pass_start_falls_back_to_the_slack_basis(monkeypatch):
    # a pass start that does not factor gives way to the kept rows' slack
    # basis, -I: every LP that does not start from its own factors starts
    # there, and the run proves the bound it proves from the real start
    nm = _warm_start_models()[0]
    cfg = ClosureConfig(mode="pe")
    ref = optimize_closure(nm, cfg)
    assert ref.termination == "proved"
    start_of, separate = closure._separation_start, membership.separate
    starts, own = [], []  # own: every no-cut LP's factors, kept alive

    def separating(*args, **kwargs):
        starts.append(kwargs["start"])
        sep = separate(*args, **kwargs)
        own.append(sep.factors)
        return sep

    monkeypatch.setattr(
        closure, "_separation_start", lambda *args: _repeat_a_column(start_of(*args))
    )
    monkeypatch.setattr(membership, "separate", separating)
    rep = optimize_closure(nm, cfg)
    slack = to_standard(nm).slack_basis()
    passed = [start for start in starts if not any(start is f for f in own)]
    assert passed and len(passed) < len(starts)  # remembered factors too
    for start in passed:
        assert isinstance(start, BasisFactors) and start.updates == 0
        assert start.basis.basic.tolist() == slack.basic.tolist()
        assert not start.basis.at_upper.any()
        assert start.basis.num_cols == slack.num_cols
    assert rep.termination == "proved"
    assert abs(rep.z_cut - ref.z_cut) <= cfg.eps


def test_singular_carried_master_basis_falls_back_to_the_slack_basis(monkeypatch):
    # a carried master basis that does not factor gives way to the slack
    # basis of the master's rows, and the master reaches the same optimum
    nm = _warm_start_models()[0]
    cuts = optimize_closure(nm, ClosureConfig(mode="pe")).cut_rows
    assert cuts
    ref = closure._Master(nm)
    ref.solve([])
    expected = ref.solve(cuts)
    master = closure._Master(nm)
    master.solve([])
    remap, solve = closure._Master._remap_basis, simplex.solve
    starts = []

    def solving(lp, start, **kwargs):
        starts.append(start)
        return solve(lp, start, **kwargs)

    monkeypatch.setattr(
        closure._Master,
        "_remap_basis",
        lambda self, *args: _repeat_a_column(remap(self, *args)),
    )
    monkeypatch.setattr(simplex, "solve", solving)
    res = master.solve(cuts)
    [start] = starts
    slack = master.slp.slack_basis()
    assert isinstance(start, Basis)
    assert start.basic.tolist() == slack.basic.tolist()
    assert not start.at_upper.any() and start.num_cols == slack.num_cols
    assert res.status is expected.status is Status.OPTIMAL
    assert abs(res.value - expected.value) <= 1e-9 * (1.0 + abs(expected.value))


def test_gmi_round_tableau_that_does_not_factor_ends_numerical(t1, monkeypatch):
    monkeypatch.setattr(closure, "BasisFactors", _raise(SingularBasisError("injected")))
    rep = gmi_rounds(t1, 1)
    assert rep.termination == "numerical"
    assert rep.termination_reason == "round 1 tableau: SingularBasisError('injected')"


INFEASIBLE_MPS = (
    "NAME IF\nROWS\n N obj\n G r1\n L r2\n"
    "COLUMNS\n    MARKER 'MARKER' 'INTORG'\n"
    "    x obj 1.0\n    x r1 1.0\n    x r2 1.0\n"
    "    MARKER 'MARKER' 'INTEND'\nRHS\n"
    "    rhs r1 0.2\n    rhs r2 0.8\nBOUNDS\n PL bnd x\nENDATA\n"
)


def _raise(error):
    def broken(*args, **kwargs):
        raise error

    return broken


def _pe(nm):
    return optimize_closure(nm, ClosureConfig(mode="pe"))


def _emptied(t1, monkeypatch):
    nm = normalize(parse_mps(INFEASIBLE_MPS))
    return optimize_closure(nm, ClosureConfig(mode="pestar"))


def _inconclusive(t1, monkeypatch):
    monkeypatch.setattr(membership, "tableau_row", _raise(SingularBasisError("x")))
    return _pe(t1)


def _all_active(t1, monkeypatch):
    monkeypatch.setattr(CutPool, "add", lambda self, cut: "duplicate_active")
    return _pe(t1)


def _numerical(t1, monkeypatch):
    monkeypatch.setattr(
        FractionalPoint, "from_point", _raise(ValueError("violates by 1e4"))
    )
    return _pe(t1)


def _time_limit(t1, monkeypatch):
    return optimize_closure(t1, ClosureConfig(mode="pe", time_limit=0.0))


def _gmi_time_limit(t1, monkeypatch):
    return gmi_rounds(t1, 1, ClosureConfig(mode="gmi", time_limit=0.0))


# every ending the other tests reach, with the start of its stated reason
TERMINATIONS = {
    "proved": (lambda t1, mp: _pe(t1), {"proved": "a full pass found no"}),
    # the other ending is the one test_integer_infeasible_instance_is_certified
    # allows
    "emptied": (_emptied, {"proved": "master LP infeasible", "stalled": ""}),
    "inconclusive": (_inconclusive, {"stalled": "1 inconclusive separations"}),
    "all_active": (_all_active, {"stalled": "every violated cut already active"}),
    "numerical": (_numerical, {"numerical": "master optimum rejected: violates"}),
    "time_limit": (_time_limit, {"time_limit": "time limit of 0 s reached"}),
    "gmi_time_limit": (_gmi_time_limit, {"time_limit": "time limit of 0 s"}),
    "rounds": (lambda t1, mp: gmi_rounds(t1, 1), {"rounds_done": "round limit 1"}),
    "no_new_gmi_cut": (
        lambda t1, mp: gmi_rounds(t1, 3),
        {"rounds_done": "round 2 added no new cut"},
    ),
}


@pytest.mark.parametrize("case", sorted(TERMINATIONS))
def test_every_termination_states_its_reason(t1, monkeypatch, case):
    run, expected = TERMINATIONS[case]
    rep = run(t1, monkeypatch)
    assert rep.termination in expected
    assert rep.termination_reason
    assert rep.termination_reason.startswith(expected[rep.termination])
    assert rep.to_dict()["termination_reason"] == rep.termination_reason
