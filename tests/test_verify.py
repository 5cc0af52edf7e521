import math

import numpy as np
import pytest

from liftproject.closure import ClosureError
from liftproject.cuts import CutRow
from liftproject.membership import FractionalPoint
from liftproject.verify import (
    EnumerationDomain,
    check_duality,
    check_proposition3,
    check_theorem3,
    check_theorem4,
    check_validity,
    random_milp,
    run_suite,
)

from test_standard_form import canonical, canonical_columns


def test_validity_passes_on_t1_cut(t1):
    cut = CutRow(coeffs=np.array([0.0, -1.0]), rhs=0.0, space="structural")
    dom = EnumerationDomain(caps=[1])
    rec = check_validity(t1, [cut], dom)
    assert rec.passed


def test_validity_catches_planted_fault(t1):
    # tightening the valid cut -x2 >= 0 cuts off the feasible point (0, 0)
    bad = CutRow(coeffs=np.array([0.0, -1.0]), rhs=0.1, space="structural")
    dom = EnumerationDomain(caps=[1])
    rec = check_validity(t1, [bad], dom)
    assert not rec.passed
    assert "(0,)" in rec.detail


def test_validity_respects_cap(t1):
    cut = CutRow(coeffs=np.array([0.0, -1.0]), rhs=0.0, space="structural")
    dom = EnumerationDomain(caps=[100], max_points=10)
    rec = check_validity(t1, [cut], dom)
    assert rec.skipped is not None


def test_suites_pass_small_runs():
    for suite in ("theorem3", "theorem4", "duality", "proposition3"):
        res = run_suite(suite, count=20, seed=5)
        assert res.failed == 0, res.failures[:3]
        assert res.passed > 0
    res = run_suite("validity", count=6, seed=5)
    assert res.failed == 0, res.failures[:3]
    assert res.passed > 0


def test_fault_injection_trips_validity():
    res = run_suite("validity", count=4, seed=3, corrupt_rhs=0.4)
    assert res.failed > 0


def test_fault_injection_reference_run():
    # the self-test of `verify --suite validity --count 30 --seed 7
    # --corrupt-rhs 0.5`: pruning must not hide a single counterexample
    res = run_suite("validity", count=30, seed=7, corrupt_rhs=0.5)
    assert (res.cases, res.failed) == (30, 29)
    assert res.failures[0].endswith(
        "16 violations; first: integer part (3, 0, 3, 3, 0) violates cut #0"
    )


@pytest.mark.parametrize(
    "error, skipped",
    [(ClosureError("LP relaxation not solved: infeasible"), True),
     (RuntimeError("closure bug"), False)],
    ids=["closure-error", "runtime-error"],
)
def test_validity_case_skips_only_a_closure_error(monkeypatch, error, skipped):
    # an infeasible or unbounded relaxation is a draw to skip; any other
    # exception of the closure code is a failure that names its type
    from liftproject import verify

    def raising(nm, config):
        raise error

    monkeypatch.setattr(verify, "optimize_closure", raising)
    inst = random_milp(np.random.default_rng(7))
    [rec] = verify._validity_case(inst)
    if skipped:
        assert rec.skipped == f"closure: {error}"
    else:
        assert rec.skipped is None and not rec.passed
        assert rec.detail == "pe closure raised RuntimeError: closure bug"
        result = verify.SuiteResult("validity")
        result.record(rec)
        assert result.failed == 1 and not result.ok


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", count=1)


def test_random_milp_is_feasible_and_bounded(rng):
    from liftproject.closure import ClosureConfig, optimize_closure

    inst = random_milp(rng)
    # the seeded point satisfies every row
    acts = inst.nm.a @ inst.x_seed - inst.nm.b
    assert acts.min() >= -1e-9
    rep = optimize_closure(inst.nm, ClosureConfig(mode="pe", time_limit=5))
    assert np.isfinite(rep.z_lp)


def test_check_records_report_deviation(t1):
    from liftproject.verify import OracleSystem, _kept_membership

    oracle = OracleSystem.of(t1)
    pt = FractionalPoint.from_point(t1, np.array([0.5, 1.0]))
    prob, _, res = _kept_membership(oracle, pt, 0)
    rec3 = check_theorem3(t1, res.basis, prob)
    rec4 = check_theorem4(t1, res.basis, prob)
    assert rec3.passed and rec3.deviation < 1e-12
    assert rec4.passed and rec4.deviation < 1e-12
    rec_d = check_duality(t1, pt, 0, oracle)
    assert rec_d.passed
    rec_p = check_proposition3(pt, 0, oracle)
    assert rec_p.passed


def test_lemma3_regime_is_skipped():
    # membership of an interior point ends with the variable at its upper
    # bound: the Theorem 3 and 4 oracles record a skip, not a failure.  The
    # model's only row is an integral bound, so the kept LP has no row; no
    # oracle may raise on it.  A fractional bound of an integer column
    # stays a row: at the vertex x = 2.5 of [0, 2.5] y_0 is basic at the
    # Proposition 3 point f u = 1.25, its row gives the cut x <= 2, and
    # every oracle passes.
    from liftproject.verify import OracleSystem, _kept_membership
    from test_membership import interval_milp

    for upper, x, vertex in ((3.0, 1.5, False), (2.5, 2.5, True)):
        nm = interval_milp(upper)
        oracle = OracleSystem.of(nm)
        pt = FractionalPoint.from_point(nm, np.array([x]))
        prob, _, res = _kept_membership(oracle, pt, 0)
        assert prob.lp.num_rows == int(vertex)
        for check in (check_theorem3, check_theorem4):
            rec = check(nm, res.basis, prob)
            if vertex:
                assert rec.skipped is None and rec.passed, rec.detail
            else:
                assert rec.skipped == "auxiliary variable nonbasic at its upper bound"
        assert check_duality(nm, pt, 0, oracle).passed
        if vertex:
            assert check_proposition3(pt, 0, oracle).passed


def test_oracle_lps_are_the_kept_and_compact_lps(monkeypatch):
    # the four membership oracles solve the LP that separation solves, over
    # the rows to_standard keeps, each from the terminal factors of its
    # instance's first vertex LP, made over that LP's own matrix; the
    # duality oracle's multiplier LP has n rows and starts from the
    # complement of that vertex LP's basis over the canonical rows
    from liftproject import simplex, verify
    from liftproject.standard_form import to_standard

    membership_lps, cglps, vertices, starts = [], [], [], {}
    value_of, cglp_of, solve = verify.membership_value, verify.solve_cglp, simplex.solve
    vertex_lp = verify._vertex_lp

    def membership(prob, start, **kwargs):
        membership_lps.append(prob.lp)
        return value_of(prob, start=start, **kwargs)

    def cglp(problem, start=None, **kwargs):
        cglps.append(problem)
        return cglp_of(problem, start, **kwargs)

    def vertex(slp, objective=None):
        vertices.append(vertex_lp(slp, objective))
        return vertices[-1]

    def solving(lp, start, **kwargs):
        starts[id(lp)] = start
        return solve(lp, start=start, **kwargs)

    monkeypatch.setattr(verify, "membership_value", membership)
    monkeypatch.setattr(verify, "solve_cglp", cglp)
    monkeypatch.setattr(verify, "_vertex_lp", vertex)
    monkeypatch.setattr(simplex, "solve", solving)
    rng = np.random.default_rng(7)
    counts = {}
    for suite in ("theorem3", "theorem4", "duality", "proposition3"):
        for _ in range(12):
            inst = random_milp(rng)
            nm = inst.nm
            membership_lps.clear()
            cglps.clear()
            vertices.clear()
            verify._run_instance(suite, inst, rng)
            slp = to_standard(nm)
            keep = slp.num_rows
            assert keep < nm.num_rows
            for lp in membership_lps:
                assert lp.num_rows == keep
                start = starts[id(lp)]
                assert start is vertices[0].factors
                assert start.a is lp.a_eq
            vertex = vertices[0]
            basic = canonical_columns(slp, vertex.basis, vertex.reduced_costs)
            nonbasic = np.setdiff1d(np.arange(nm.num_rows + nm.num_cols), basic)
            rows = nonbasic[nonbasic < nm.num_rows]
            cols = nonbasic[nonbasic >= nm.num_rows] - nm.num_rows
            for problem in cglps:
                assert problem.lp.num_rows == nm.num_cols
                start = starts[id(problem.lp)]
                complement = problem.complement_basis(rows, cols)
                assert np.array_equal(np.sort(start.basic), np.sort(complement.basic))
            counts[suite] = counts.get(suite, 0) + len(membership_lps)
            counts["cglp"] = counts.get("cglp", 0) + len(cglps)
    assert min(counts.values()) >= 5, counts


def test_membership_lps_from_the_vertex_factors_match_the_slack_start(monkeypatch):
    # each oracle membership LP starts from the factors of its instance's
    # vertex LP; solved again from the slack basis of the kept rows it must
    # reach the same optimum, at the vertex and at the midpoint alike.  At
    # the vertex that start is an optimal basis (Proposition 3): no pivot
    from liftproject import verify

    value_of, case_points = verify.membership_value, verify._case_points
    kinds, pivots = {}, {True: 0, False: 0}
    solved = dict(pivots)

    def points(inst, rng, **kwargs):
        oracle, pts = case_points(inst, rng, **kwargs)
        kinds.update((id(pt), is_vertex) for pt, is_vertex in pts)
        return oracle, pts

    def both_starts(prob, start, **kwargs):
        value, res = value_of(prob, start=start, **kwargs)
        ref_value, ref = value_of(prob, start=prob.slp.slack_basis(), **kwargs)
        assert res.status is ref.status
        if ref_value is not None:
            assert abs(value - ref_value) <= 1e-9 * (1.0 + abs(ref_value))
        kind = kinds[id(prob.point)]
        pivots[kind] += res.pivots
        solved[kind] += 1
        return value, res

    monkeypatch.setattr(verify, "_case_points", points)
    monkeypatch.setattr(verify, "membership_value", both_starts)
    rng = np.random.default_rng(3)
    for suite in ("theorem3", "duality", "proposition3"):
        for _ in range(40):
            verify._run_instance(suite, random_milp(rng), rng)
    assert pivots[True] == 0, pivots
    assert min(solved.values()) >= 40, solved


def test_multiplier_lps_from_the_vertex_complement_match_the_trivial_start(
    monkeypatch,
):
    # each duality multiplier LP starts from the complement of its
    # instance's vertex basis; solved again from the trivial cut it must
    # reach the same optimum, at the vertex and at the midpoint alike.  At
    # the vertex that complement is an optimal basis: no pivot
    from liftproject import verify

    solve_cglp, build_cglp = verify.solve_cglp, verify.build_cglp
    case_points = verify._case_points
    kinds, pivots = {}, {True: 0, False: 0}
    solved = dict(pivots)

    def points(inst, rng, **kwargs):
        oracle, pts = case_points(inst, rng, **kwargs)
        kinds.update((id(pt), is_vertex) for pt, is_vertex in pts)
        return oracle, pts

    def build(nm, pt, pi, pi0, **kwargs):
        cglp = build_cglp(nm, pt, pi, pi0, **kwargs)
        kinds[id(cglp)] = kinds[id(pt)]
        return cglp

    def both_starts(cglp, start=None, **kwargs):
        assert start is not None
        value, res = solve_cglp(cglp, start, **kwargs)
        ref_value, ref = solve_cglp(cglp, **kwargs)
        assert res.status is ref.status is verify.Status.OPTIMAL
        assert abs(value - ref_value) <= 1e-9 * (1.0 + abs(ref_value))
        kind = kinds[id(cglp)]
        pivots[kind] += res.pivots
        solved[kind] += 1
        return value, res

    monkeypatch.setattr(verify, "_case_points", points)
    monkeypatch.setattr(verify, "build_cglp", build)
    monkeypatch.setattr(verify, "solve_cglp", both_starts)
    rng = np.random.default_rng(7)
    for _ in range(40):
        verify._run_instance("duality", random_milp(rng), rng)
    assert pivots[True] == 0, pivots
    assert min(solved.values()) >= 20, solved


def test_one_separation_system_per_instance(monkeypatch):
    # an instance's vertex LPs and every membership LP and certificate of
    # its oracles share one system of ``to_standard``
    from liftproject import verify

    standard, calls = verify.to_standard, []

    def counting(nm):
        calls.append(nm)
        return standard(nm)

    monkeypatch.setattr(verify, "to_standard", counting)
    rng = np.random.default_rng(5)
    for suite in ("theorem3", "theorem4", "duality", "proposition3"):
        executed = 0
        for _ in range(10):
            inst = random_milp(rng)
            calls.clear()
            recs = verify._run_instance(suite, inst, rng)
            assert len(calls) == 1 and calls[0] is inst.nm, (suite, len(calls))
            executed += sum(rec.skipped is None for rec in recs)
        assert executed >= 5, (suite, executed)


HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _brute_force_minima(nm, caps, cuts):
    """min alpha x over the fiber of every lattice point, by HiGHS; None
    for an empty fiber."""
    from itertools import product

    from scipy.optimize import linprog

    p = nm.num_integer
    a_int, a_cont = nm.a[:, :p], nm.a[:, p:]
    minima = []
    for assignment in product(*(range(c + 1) for c in caps)):
        xi = np.array(assignment, dtype=float)
        residual = nm.b - a_int @ xi
        row = []
        for cut in cuts:
            res = linprog(
                cut.coeffs[p:], A_ub=-a_cont, b_ub=-residual, bounds=(0, None),
                method="highs", options=HIGHS_TIGHT,
            )
            if res.status == 2:  # empty fiber
                row = None
                break
            assert res.status == 0, res.message
            row.append(float(cut.coeffs[:p] @ xi) + res.fun)
        minima.append(row)
    return minima


def _brute_force_draws():
    """Ten mixed draws with their closure cuts and lattice domain, small
    enough for a HiGHS solve per (lattice point, cut)."""
    from liftproject.closure import ClosureConfig, optimize_closure

    rng = np.random.default_rng(2024)
    draws = 0
    while draws < 10:
        inst = random_milp(rng, n_range=(3, 5), m_range=(2, 4), box_range=(1, 3))
        nm = inst.nm
        if nm.num_integer == nm.num_cols:
            continue  # no continuous fiber: nothing for the duals to prove
        caps = [int(b) for b in inst.box[: nm.num_integer]]
        cuts = []
        try:
            for mode in ("pe", "pestar"):
                cuts += optimize_closure(nm, ClosureConfig(mode=mode)).cut_rows
        except ValueError:
            continue  # infeasible or unbounded relaxation
        dom = EnumerationDomain(caps=caps)
        if not cuts or dom.num_points * len(cuts) > 120:
            continue
        draws += 1
        yield nm, caps, cuts, dom


def test_validity_agrees_with_highs_brute_force():
    # weak-duality and Farkas pruning may skip fiber LPs but must never
    # change the verdict or the number of (lattice point, cut) violations
    from liftproject.verify import VALIDITY_TOL

    violated = 0
    for nm, caps, cuts, dom in _brute_force_draws():
        minima = _brute_force_minima(nm, caps, cuts)
        for shift in (0.0, 1e-5, 0.5):
            shifted = [
                CutRow(coeffs=c.coeffs.copy(), rhs=c.rhs + shift) for c in cuts
            ]
            expected = sum(
                value < cut.rhs - VALIDITY_TOL
                for row in minima if row is not None
                for value, cut in zip(row, shifted)
            )
            rec = check_validity(nm, shifted, dom)
            count = 0 if rec.passed else int(rec.detail.split()[0])
            assert rec.passed == (expected == 0), (shift, rec.detail)
            assert count == expected, (shift, rec.detail)
            violated += expected > 0
    assert violated >= 10


def test_one_farkas_ray_proves_every_empty_fiber(monkeypatch):
    # integer x in {0..4}^3 and continuous y >= 0 with y <= 7 - x1 - x2 - x3:
    # the fibers with x1 + x2 + x3 > 7 are empty, and the row multiplier
    # e_0 proves them all.  The cut involves x only, so LP duals prove it
    # nowhere the fiber is empty; an oracle that pays one LP per empty
    # fiber makes at least as many LPs as there are empty fibers.
    from liftproject import simplex
    from liftproject.instances import NormalizedMilp
    from liftproject.verify import VALIDITY_TOL

    nm = NormalizedMilp(
        name="one-ray",
        objective=np.ones(4),
        a=np.vstack([-np.ones(4), -np.eye(4)]),
        b=np.array([-7.0, -4.0, -4.0, -4.0, -10.0]),
        num_integer=3,
        objective_offset=0.0,
        objective_sign=1.0,
        perm=np.arange(4),
        shift=np.zeros(4),
        col_names=["x1", "x2", "x3", "y"],
        row_labels=["sum", "box1", "box2", "box3", "box4"],
    )
    caps = [4, 4, 4]
    solves = [0]
    solve = simplex.solve

    def counting_solve(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve", counting_solve)
    for rhs in (-7.0, -6.5):  # valid, then violated on the 18 points of sum 7
        cut = CutRow(coeffs=np.array([-1.0, -1.0, -1.0, 0.0]), rhs=rhs)
        minima = _brute_force_minima(nm, caps, [cut])
        empty = sum(row is None for row in minima)
        expected = sum(
            row[0] < rhs - VALIDITY_TOL for row in minima if row is not None
        )
        solves[0] = 0
        rec = check_validity(nm, [cut], EnumerationDomain(caps=caps))
        count = 0 if rec.passed else int(rec.detail.split()[0])
        assert (empty, count) == (35, expected), rec.detail
        assert (expected == 0) == (rhs == -7.0)
        assert solves[0] < empty, (rhs, solves[0])


def _free_column_case():
    """Integers x1, x2 in {0..3} and a continuous y >= 0 with no upper
    bound, linked by y >= x1 - 2, with four valid cuts.  The dual of the
    link row proves the first cut and the third, whose y coefficients pay
    for it, but neither the second, where g_y = 1 > 0 on the free column,
    nor the last, where g_y = 2**-30 > 0."""
    from liftproject.instances import NormalizedMilp

    nm = NormalizedMilp(
        name="free-column",
        objective=np.ones(3),
        a=np.array(
            [[-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        ),
        b=np.array([-2.0, -5.0, -3.0, -3.0]),
        num_integer=2,
        objective_offset=0.0,
        objective_sign=1.0,
        perm=np.arange(3),
        shift=np.zeros(3),
        col_names=["x1", "x2", "y"],
        row_labels=["link", "sum", "box1", "box2"],
    )
    cuts = [
        CutRow(coeffs=np.array([-1.0, 0.0, 1.0]), rhs=-2.0),
        CutRow(coeffs=np.array([-1.0, -1.0, 0.0]), rhs=-5.0),
        CutRow(coeffs=np.array([0.0, -1.0, 2.0]), rhs=-3.0),
        CutRow(coeffs=np.array([-1.0, 0.0, 1.0 - 2.0**-30]), rhs=-2.0 - 2.0**-30),
    ]
    caps = [3, 3]
    return nm, caps, cuts, EnumerationDomain(caps=caps)


@pytest.mark.parametrize(
    "bounds, caps, empty", [((-3.0, -3.0), [3, 3], 1), ((-3.0, -2.0), [4, 4], 13)]
)
def test_free_column_case_agrees_with_highs(bounds, caps, empty):
    # the cuts of _free_column_case are valid, and shifted up they are
    # violated; the verdict and the violation count match HiGHS over every
    # original row.  In the second case the domain reaches x = 4 on
    # columns whose bound rows say x1 <= 3 and x2 <= 2: those points break
    # a bound row, so their fibers are empty (the fiber LP fixes x by
    # bounds, which would cross there)
    from liftproject.verify import VALIDITY_TOL

    nm, _, cuts, _ = _free_column_case()
    nm.b[2:] = bounds
    minima = _brute_force_minima(nm, caps, cuts)
    assert sum(row is None for row in minima) == empty
    for shift in (0.0, 0.5):
        shifted = [CutRow(coeffs=c.coeffs.copy(), rhs=c.rhs + shift) for c in cuts]
        expected = sum(
            value < cut.rhs - VALIDITY_TOL
            for row in minima if row is not None
            for value, cut in zip(row, shifted)
        )
        rec = check_validity(nm, shifted, EnumerationDomain(caps=caps))
        count = 0 if rec.passed else int(rec.detail.split()[0])
        assert count == expected and (expected > 0) == (shift > 0), rec.detail


def test_a_cut_unbounded_on_its_fiber_is_a_violation():
    # y >= x - 2 leaves y unbounded above, so y <= 5 removes points of
    # every fiber: the fiber LP min -y is unbounded, and no lattice point
    # may pass for it
    from liftproject.instances import NormalizedMilp

    nm = NormalizedMilp(
        name="unbounded-fiber",
        objective=np.ones(2),
        a=np.array([[-1.0, 1.0], [-1.0, 0.0]]),
        b=np.array([-2.0, -3.0]),
        num_integer=1,
        objective_offset=0.0,
        objective_sign=1.0,
        perm=np.arange(2),
        shift=np.zeros(2),
        col_names=["x", "y"],
        row_labels=["link", "box"],
    )
    rec = check_validity(
        nm, [CutRow(coeffs=np.array([0.0, -1.0]), rhs=-5.0)], EnumerationDomain([3])
    )
    assert not rec.passed
    assert rec.detail == "4 violations; first: integer part (0,) violates cut #0"


def test_stored_duals_prove_their_cuts_exactly(monkeypatch):
    # a fiber LP's row duals pi over the kept rows K are kept for every cut
    # they prove.  Each stored pi is >= 0.  For every cut it is stored
    # for, g = pi A'_{K,C} - alpha_C is <= 0 with no tolerance on every
    # continuous column with no upper bound, and its stored box term is
    # sum_j max(g_j, 0) u_j; for every other cut some such g_j is > 0.
    # Some duals prove more than one cut, and some prove only a part
    from liftproject import verify
    from liftproject.standard_form import to_standard

    made = []

    class Recorded(verify._DualProofs):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify, "_DualProofs", Recorded)
    stored = shared = partial = 0
    for nm, _, cuts, dom in [*_brute_force_draws(), _free_column_case()]:
        made.clear()
        check_validity(nm, cuts, dom)
        (proofs,) = made
        slp = to_standard(nm)
        p, m = nm.num_integer, slp.num_rows
        upper = slp.upper[p:]
        free = np.isinf(upper)
        assert len(proofs.duals) == len(proofs.box)
        for pi, box in zip(proofs.duals, proofs.box):
            assert pi.shape == (m,) and np.all(pi >= 0.0)
            proves = np.isfinite(box)
            for cut, kept, term in zip(cuts, proves, box):
                g = pi @ slp.a[:, m + p :] - cut.coeffs[p:]
                assert np.all(g[free] <= 0.0) == kept
                if kept:
                    want = math.fsum(np.maximum(g[~free], 0.0) * upper[~free])
                    assert term == pytest.approx(want, rel=1e-12, abs=1e-12)
                else:
                    assert term == np.inf
            stored += int(proves.sum())
            shared += int(proves.sum()) > 1
            partial += not proves.all()
    assert stored > 0 and shared > 0 and partial > 0, (stored, shared, partial)


def test_stored_rays_prove_their_fibers_empty_exactly(monkeypatch):
    # every Farkas ray the oracle keeps is a pi in [0, 1]^K with
    # h = pi A'_{K,C} <= 0 with no tolerance on every continuous column
    # with no upper bound, and pi r - sum_j max(h_j, 0) u_j > tol at the
    # point it was read at; its box term is that sum
    from liftproject import verify
    from liftproject.standard_form import to_standard

    fiber_ray, kept = verify._fiber_ray, []

    def recording(farkas, a_cont, upper, residual, tol):
        ray = fiber_ray(farkas, a_cont, upper, residual, tol)
        if ray is not None:
            kept.append((*ray, a_cont, upper, residual, tol))
        return ray

    monkeypatch.setattr(verify, "_fiber_ray", recording)
    draws = [*_brute_force_draws(), _free_column_case()]
    for nm, _, cuts, dom in draws:
        slp = to_standard(nm)
        p, m = nm.num_integer, slp.num_rows
        before = len(kept)
        check_validity(nm, cuts, dom)
        for pi, box, a_cont, upper, residual, tol in kept[before:]:
            assert np.array_equal(a_cont, slp.a[:, m + p :])
            assert np.array_equal(upper, slp.upper[p:])
            assert pi.shape == (m,) and pi.min() >= 0.0 and pi.max() == 1.0
            h = pi @ a_cont
            free = np.isinf(upper)
            assert np.all(h[free] <= 0.0)
            want = math.fsum(np.maximum(h[~free], 0.0) * upper[~free])
            assert box == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert pi @ residual - box > tol
    assert len(kept) >= 5, len(kept)


def test_fiber_lps_solve_the_kept_rows(monkeypatch):
    # every fiber LP of the validity suite solves the rows to_standard
    # keeps, with the integer columns fixed at their lattice point by
    # bounds and the continuous ones in [0, u]; every start, the slack
    # basis or a cut's carried factors, is made over that LP's own matrix
    from liftproject import simplex, verify
    from liftproject.standard_form import BasisFactors, to_standard

    solve, check = simplex.solve, verify.check_validity
    fiber_lps, checks = [], []

    def recording_check(nm, cuts, dom, **kwargs):
        checks.append(nm)
        with monkeypatch.context() as mp:
            mp.setattr(simplex, "solve", solving)
            return check(nm, cuts, dom, **kwargs)

    def solving(lp, start, **kwargs):
        fiber_lps.append((checks[-1], lp, start))
        return solve(lp, start=start, **kwargs)

    monkeypatch.setattr(verify, "check_validity", recording_check)
    rng = np.random.default_rng(7)
    carried = 0
    for _ in range(30):
        verify._run_instance("validity", random_milp(rng), rng)
    for nm, lp, start in fiber_lps:
        slp = to_standard(nm)
        m, p = slp.num_rows, nm.num_integer
        assert m < nm.num_rows
        assert lp.num_rows == m and lp.num_cols == slp.num_cols
        assert np.array_equal(lp.a_eq, slp.a) and np.array_equal(lp.rhs, slp.b)
        ints, conts = slice(m, m + p), slice(m + p, None)
        assert np.array_equal(lp.lower[ints], lp.upper[ints])
        assert np.all(lp.upper[ints] <= slp.upper[:p])
        assert not lp.lower[:m].any() and np.all(np.isinf(lp.upper[:m]))
        assert not lp.lower[conts].any()
        assert np.array_equal(lp.upper[conts], slp.upper[p:])
        assert isinstance(start, BasisFactors) and start.a is lp.a_eq
        carried += not np.array_equal(start.basis.basic, np.arange(m))
    assert len(checks) >= 10 and len(fiber_lps) >= 20, (len(checks), len(fiber_lps))
    assert carried > 0


def test_fiber_lps_from_per_cut_starts_match_the_slack_start(monkeypatch):
    # each fiber LP of a cut starts from that cut's last optimal fiber
    # factors; solved again from the slack basis it must end with the same
    # status and value
    from liftproject import simplex
    from liftproject.standard_form import Basis

    solve = simplex.solve
    carried = [0]

    def both_starts(lp, start, **kwargs):
        res = solve(lp, start=start, **kwargs)
        m = lp.num_rows
        slack = Basis(np.arange(m), np.zeros(lp.num_cols, dtype=bool))
        ref = solve(lp, start=slack, **kwargs)
        assert res.status is ref.status
        if ref.status is simplex.Status.OPTIMAL:
            assert abs(res.value - ref.value) <= 1e-9 * (1.0 + abs(ref.value))
        carried[0] += not np.array_equal(start.basis.basic, np.arange(m))
        return res

    for nm, _, cuts, dom in _brute_force_draws():
        for shift in (0.0, 0.5):
            shifted = [
                CutRow(coeffs=c.coeffs.copy(), rhs=c.rhs + shift) for c in cuts
            ]
            with monkeypatch.context() as mp:
                mp.setattr(simplex, "solve", both_starts)
                check_validity(nm, shifted, dom)
    assert carried[0] > 0  # some fiber LPs start from a carried basis


def test_master_vertex_is_a_vertex_of_the_canonical_rows():
    # the vertex LP solves the kept rows with bound rows as column bounds;
    # its point must be an optimal vertex of the canonical system, which
    # Proposition 3 needs
    from liftproject import simplex
    from test_membership import _master_vertex

    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(40):
        nm = random_milp(rng).nm
        n = nm.num_cols
        for objective in (None, rng.integers(-5, 6, size=n).astype(float)):
            x = _master_vertex(nm, objective)
            slp = canonical(nm)
            c = slp.c if objective is None else np.concatenate(
                [np.zeros(slp.num_rows), objective]
            )
            every_row = simplex.solve(
                simplex.BoundedLp(
                    "max", c, slp.a, slp.b,
                    np.zeros(slp.num_cols), np.full(slp.num_cols, np.inf),
                ),
                start=slp.slack_basis(),
            )
            assert (x is None) == (every_row.status is not simplex.Status.OPTIMAL)
            if x is None:
                continue
            activity = nm.a @ x - nm.b
            assert activity.min() >= -1e-9 and x.min() >= -1e-9
            z = every_row.value
            assert abs(c[slp.num_rows :] @ x - z) <= 1e-9 * (1.0 + abs(z))
            active = np.vstack([nm.a[np.abs(activity) <= 1e-9], np.eye(n)[x <= 1e-9]])
            assert np.linalg.matrix_rank(active) == n
            checked += 1
    assert checked >= 60


def test_the_lattice_screen_keeps_every_fiber_lp(monkeypatch):
    # with an infinite margin the screen clears no point and every point
    # takes the per-point test; the screen must leave every record, every
    # fiber LP and their order as they are, while sparing per-point tests
    from liftproject import simplex, verify

    checks, check = [], verify.check_validity
    monkeypatch.setattr(
        verify, "check_validity", lambda *args: checks.append(args) or check(*args)
    )
    rng = np.random.default_rng(7)
    for _ in range(30):
        verify._run_instance("validity", random_milp(rng), rng)
    monkeypatch.undo()
    assert any(nm.num_integer == nm.num_cols for nm, _, _ in checks)
    assert any(nm.num_integer < nm.num_cols for nm, _, _ in checks)
    solve, bounds = simplex.solve, verify._DualProofs.bounds

    def run(margin):
        lps, tests = [], [0]

        def solving(lp, start, **kwargs):
            lps.append((lp.objective.tobytes(), lp.lower.tobytes()))
            return solve(lp, start, **kwargs)

        def testing(self, residual):
            tests[0] += 1
            return bounds(self, residual)

        with monkeypatch.context() as mp:
            mp.setattr(verify, "SCREEN_MARGIN", margin)
            mp.setattr(simplex, "solve", solving)
            mp.setattr(verify._DualProofs, "bounds", testing)
            records = [
                check_validity(nm, [CutRow(c.coeffs, c.rhs + shift) for c in cuts], dom)
                for nm, cuts, dom in checks
                for shift in (0.0, 0.5)
            ]
        return [(rec.passed, rec.detail) for rec in records], lps, tests[0]

    screened, every_point = run(verify.SCREEN_MARGIN), run(np.inf)
    assert screened[:2] == every_point[:2]
    assert any(not passed for passed, _ in screened[0])
    assert screened[2] < every_point[2] / 2
