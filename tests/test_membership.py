import math

import numpy as np
import pytest

from liftproject import simplex
from liftproject.cuts import FractionalityError, gmi_cut, eliminate_slacks
from liftproject.instances import NormalizedMilp
from liftproject.membership import (
    DualCertificate,
    FractionalPoint,
    MembershipProblem,
    NoCut,
    certificate_from_basis,
    membership_problem,
    membership_value,
    separate,
)
from liftproject.simplex import BoundedLp, Status
from liftproject.standard_form import tableau_row, to_standard
from liftproject.verify import (
    _fractional_ks,
    _vertex_lp,
    _vertex_point,
    assemble_cut,
    build_cglp,
    random_milp,
    solve_cglp,
)

from test_standard_form import canonical


def plain_milp(a, b, c, p, name="adhoc"):
    a = np.asarray(a, float)
    n = a.shape[1]
    return NormalizedMilp(
        name=name,
        objective=np.asarray(c, float),
        a=a,
        b=np.asarray(b, float),
        num_integer=p,
        objective_offset=0.0,
        objective_sign=1.0,
        perm=np.arange(n),
        shift=np.zeros(n),
        col_names=[f"x{j}" for j in range(n)],
        row_labels=[f"r{i}" for i in range(a.shape[0])],
    )


@pytest.fixture
def t1_point(t1):
    return FractionalPoint.from_point(t1, np.array([0.5, 1.0]))


def interval_milp(upper):
    # P = {0 <= x <= upper} with the bound as a row
    return plain_milp([[-1.0]], [-float(upper)], [1.0], p=1)


def build_membership_lp(nm, pt, k, slp=None):
    """The membership LP over every original row, the canonical reference
    for ``membership_problem``:

        max  y_k - ceil(xh_k) f   s.t.  A y = b f,
             0 <= y_slacks <= A'xh - b,  0 <= y_struct <= xh,

    over ``slp`` (default ``canonical(nm)``), which reads no row as a
    bound, so ``certificate_from_basis`` complements no column.
    """
    if slp is None:
        slp = canonical(nm)
    m = slp.num_rows
    f = float(pt.fracs[k])
    upper = np.concatenate([pt.activities, pt.x])
    obj = np.zeros(upper.size)
    obj[m + k] = 1.0
    lp = BoundedLp("max", obj, slp.a, slp.b * f, np.zeros(upper.size), upper)
    floor_k = math.floor(pt.x[k])
    return MembershipProblem(
        lp, k, f, floor_k, floor_k + 1.0, -(floor_k + 1.0) * f, pt, slp
    )


def _master_vertex(nm, objective=None):
    """A vertex of the relaxation maximizing ``objective`` (default: the
    instance's own), or None (``verify._vertex_lp``)."""
    slp = to_standard(nm)
    return _vertex_point(slp, _vertex_lp(slp, objective))


def test_build_membership_bounds_t1(t1, t1_point):
    # T1 has no bound row: the kept rows are every row
    prob = membership_problem(to_standard(t1), t1_point, 0)
    np.testing.assert_allclose(prob.lp.upper[:2], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(prob.lp.upper[2:], [0.5, 1.0])
    np.testing.assert_allclose(prob.lp.rhs, t1.b * 0.5)
    assert prob.constant == pytest.approx(-0.5)
    assert prob.f == pytest.approx(0.5)


def test_same_constraint_system_for_equal_values():
    nm = plain_milp([[1.0, 1.0], [-1.0, -1.0]], [0.0, -3.0], [1.0, 1.0], p=2)
    pt = FractionalPoint.from_point(nm, np.array([0.5, 0.5]))
    slp = to_standard(nm)
    p0 = membership_problem(slp, pt, 0)
    p1 = membership_problem(slp, pt, 1)
    np.testing.assert_array_equal(p0.lp.a_eq, p1.lp.a_eq)
    np.testing.assert_array_equal(p0.lp.rhs, p1.lp.rhs)
    np.testing.assert_array_equal(p0.lp.lower, p1.lp.lower)
    np.testing.assert_array_equal(p0.lp.upper, p1.lp.upper)
    assert not np.array_equal(p0.lp.objective, p1.lp.objective)


def test_interior_point_gives_positive_slack_bounds():
    nm = interval_milp(2.0)
    pt = FractionalPoint.from_point(nm, np.array([0.5]))
    prob = build_membership_lp(nm, pt, 0)
    assert np.all(prob.lp.upper[:1] > 0)


def test_membership_value_t1(t1, t1_point):
    prob = membership_problem(to_standard(t1), t1_point, 0)
    value, res = membership_value(prob)
    assert value == pytest.approx(-0.25, abs=1e-9)
    m = prob.slp.num_rows
    np.testing.assert_allclose(res.x[m:], [0.25, 0.5], atol=1e-9)


def test_membership_value_interval():
    # P = [0, 2], xh = 0.5 lies in conv({0} u [1, 2])
    nm = interval_milp(2.0)
    pt = FractionalPoint.from_point(nm, np.array([0.5]))
    value, _ = membership_value(build_membership_lp(nm, pt, 0))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_integral_coordinate_rejected(t1):
    pt = FractionalPoint.from_point(t1, np.array([0.0, 0.0]))
    with pytest.raises(FractionalityError):
        membership_problem(to_standard(t1), pt, 0)


def test_extract_certificate_t1(t1, t1_point):
    prob = membership_problem(to_standard(t1), t1_point, 0)
    _, res = membership_value(prob)
    assert res.status is Status.OPTIMAL
    cert = certificate_from_basis(res.basis, prob)
    assert isinstance(cert, DualCertificate)
    np.testing.assert_allclose(cert.u, [0.0, 0.25], atol=1e-9)
    np.testing.assert_allclose(cert.v, [0.25, 0.0], atol=1e-9)
    np.testing.assert_allclose(cert.s, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(cert.t, [0.0, 0.0], atol=1e-12)
    assert cert.u0 == pytest.approx(0.5)
    assert cert.v0 == pytest.approx(0.5)
    cut = assemble_cut(cert, t1)
    # -0.25 x2 >= 0, the split cut of T1 up to positive scaling
    np.testing.assert_allclose(cut.coeffs, [0.0, -0.25], atol=1e-9)
    assert cut.rhs == pytest.approx(0.0, abs=1e-9)


def test_nonbasic_at_upper_gives_nocut():
    # xh = 1.5 inside conv of [0,1] u [2,3] slice of P = [0, 3]
    nm = interval_milp(3.0)
    pt = FractionalPoint.from_point(nm, np.array([1.5]))
    prob = build_membership_lp(nm, pt, 0)
    value, res = membership_value(prob)
    assert res.status is Status.OPTIMAL
    outcome = certificate_from_basis(res.basis, prob)
    assert isinstance(outcome, NoCut)
    # dual value floor(xh) (ceil(xh) - xh) >= 0
    assert value == pytest.approx(1.0 * (2.0 - 1.5), abs=1e-9)


def test_certificate_feasibility_residual_on_random_instances(rng):
    # (u - v)^T A' + (s - t) = e_k within 1e-7 across 100 separations
    checked = 0
    while checked < 100:
        inst = random_milp(rng)
        nm = inst.nm
        x = _master_vertex(nm)
        if x is None:
            continue
        try:
            pt = FractionalPoint.from_point(nm, x)
        except ValueError:
            continue
        for k in _fractional_ks(pt)[:2]:
            prob = build_membership_lp(nm, pt, k)
            _, res = membership_value(prob)
            if res.status is not Status.OPTIMAL:
                continue
            cert = certificate_from_basis(res.basis, prob)
            if not isinstance(cert, DualCertificate):
                continue
            resid = (cert.u - cert.v) @ nm.a + cert.s - cert.t
            resid[k] -= 1.0
            assert np.abs(resid).max() < 1e-7
            checked += 1


def test_assembled_violation_equals_negated_value(rng):
    checked = 0
    while checked < 40:
        inst = random_milp(rng)
        nm = inst.nm
        x = _master_vertex(nm)
        if x is None:
            continue
        try:
            pt = FractionalPoint.from_point(nm, x)
        except ValueError:
            continue
        for k in _fractional_ks(pt)[:1]:
            prob = build_membership_lp(nm, pt, k)
            value, res = membership_value(prob)
            if res.status is not Status.OPTIMAL:
                continue
            cert = certificate_from_basis(res.basis, prob)
            if not isinstance(cert, DualCertificate):
                continue
            cut = assemble_cut(cert, nm)
            violation = cut.rhs - cut.coeffs @ pt.x
            assert violation == pytest.approx(-value, abs=1e-7 * (1 + abs(value)))
            checked += 1


def test_scaled_point_always_feasible(t1, t1_point):
    # y = f xh satisfies the membership bounds and rows by construction
    prob = membership_problem(to_standard(t1), t1_point, 0)
    f = prob.f
    y = np.concatenate([f * t1_point.activities, f * t1_point.x])
    assert np.all(y >= prob.lp.lower - 1e-12)
    assert np.all(y <= prob.lp.upper + 1e-12)
    np.testing.assert_allclose(prob.lp.a_eq @ y, prob.lp.rhs, atol=1e-9)
    # and its objective value is (f-1) f
    m = prob.slp.num_rows
    assert y[m + 0] + prob.constant == pytest.approx((f - 1.0) * f, abs=1e-12)


def test_terminal_bases_are_master_bases(rng):
    # every terminal separation basis factorizes over the master system
    from liftproject.standard_form import BasisFactors

    checked = 0
    while checked < 30:
        inst = random_milp(rng)
        nm = inst.nm
        x = _master_vertex(nm)
        if x is None:
            continue
        try:
            pt = FractionalPoint.from_point(nm, x)
        except ValueError:
            continue
        slp = canonical(nm)
        for k in _fractional_ks(pt)[:1]:
            prob = build_membership_lp(nm, pt, k, slp=slp)
            _, res = membership_value(prob)
            if res.status is not Status.OPTIMAL:
                continue
            BasisFactors(slp.a, res.basis)  # raises if singular
            checked += 1


def test_certificate_value_and_complementarity(t1, t1_point):
    prob = membership_problem(to_standard(t1), t1_point, 0)
    _, res = membership_value(prob)
    assert res.status is Status.OPTIMAL
    cert = certificate_from_basis(res.basis, prob)
    assert isinstance(cert, DualCertificate)
    # complementarity: u pairs with slacks at their upper bound, v with
    # slacks at zero, s with structurals at xh, t with structurals at zero
    m = prob.slp.num_rows
    y_m, y_n = res.x[:m], res.x[m:]
    assert abs(cert.u @ (t1_point.activities - y_m)) < 1e-7
    assert abs(cert.v @ y_m) < 1e-7
    assert abs(cert.s @ (t1_point.x - y_n)) < 1e-7
    assert abs(cert.t @ y_n) < 1e-7


def test_assemble_refuses_window_violations(t1, t1_point):
    prob = membership_problem(to_standard(t1), t1_point, 0)
    _, res = membership_value(prob)
    assert res.status is Status.OPTIMAL
    cert = certificate_from_basis(res.basis, prob)
    # forge the trivial multiplier choice u = v = 0, s = e_k: its u0 is
    # ceil(xh_k) = 1 so v0 = 0, outside the window
    cert.u = np.zeros(2)
    cert.v = np.zeros(2)
    cert.s = np.array([1.0, 0.0])
    cert.t = np.zeros(2)
    cert.u0, cert.v0 = 1.0, 0.0
    with pytest.raises(ValueError, match="window"):
        assemble_cut(cert, t1)


def test_build_cglp_duality_t1(t1, t1_point):
    cglp = build_cglp(t1, t1_point, np.array([1.0, 0.0]), 0.0)
    value, res = solve_cglp(cglp)
    assert res.status is Status.OPTIMAL
    assert value == pytest.approx(-0.25, abs=1e-9)
    parts = cglp.unsplit(res.x)
    # recovered multipliers satisfy both disjunctive sides
    lhs_u = parts["u"] @ t1.a + parts["s"] - parts["u0"] * np.array([1.0, 0.0])
    lhs_v = parts["v"] @ t1.a + parts["t"] + parts["v0"] * np.array([1.0, 0.0])
    np.testing.assert_allclose(lhs_u, parts["alpha"], atol=1e-8)
    np.testing.assert_allclose(lhs_v, parts["alpha"], atol=1e-8)
    assert parts["u0"] + parts["v0"] == pytest.approx(1.0, abs=1e-9)


def test_build_cglp_rejects_integral_split(t1):
    pt = FractionalPoint.from_point(t1, np.array([0.5, 1.0]))
    with pytest.raises(FractionalityError):
        build_cglp(t1, pt, np.array([0.0, 1.0]), 1.0)  # pi.x = 1 exactly


def hull_membership_by_union_lp(nm, x, pi, pi0):
    """Independent oracle: x in conv(P n {pi x <= pi0} u P n {pi x >= pi0+1})?

    Uses the standard union-of-polyhedra feasibility system in variables
    (z1, z2, lam): z1 + z2 = x, A'z1 >= lam b, pi z1 <= lam pi0,
    A'z2 >= (1-lam) b, pi z2 >= (1-lam)(pi0+1), z >= 0, 0 <= lam <= 1.
    """
    n = nm.num_cols
    m = nm.num_rows
    # columns: z1 (n), z2 (n), lam (1), slacks for the 2m+2 inequality rows
    n_ineq = 2 * m + 2
    ncols = 2 * n + 1 + n_ineq
    rows = n + n_ineq
    a = np.zeros((rows, ncols))
    rhs = np.zeros(rows)
    a[:n, :n] = np.eye(n)
    a[:n, n : 2 * n] = np.eye(n)
    rhs[:n] = x
    r = n
    for block in (0, n):
        # A' z - lam-side b >= 0   (lam for z1, (1 - lam) for z2)
        for i in range(m):
            a[r, block : block + n] = nm.a[i] if block == 0 else 0.0
            if block == n:
                a[r, n : 2 * n] = nm.a[i]
            a[r, 2 * n] = -nm.b[i] if block == 0 else nm.b[i]
            rhs[r] = 0.0 if block == 0 else nm.b[i]
            a[r, 2 * n + 1 + (r - n)] = -1.0  # surplus
            r += 1
        if block == 0:
            # pi z1 <= lam pi0  ->  lam pi0 - pi z1 >= 0
            a[r, :n] = -pi
            a[r, 2 * n] = pi0
            a[r, 2 * n + 1 + (r - n)] = -1.0
            r += 1
        else:
            # pi z2 >= (1-lam)(pi0+1)
            a[r, n : 2 * n] = pi
            a[r, 2 * n] = pi0 + 1.0
            rhs[r] = pi0 + 1.0
            a[r, 2 * n + 1 + (r - n)] = -1.0
            r += 1
    lower = np.zeros(ncols)
    upper = np.full(ncols, np.inf)
    upper[2 * n] = 1.0  # lam
    lp = BoundedLp("max", np.zeros(ncols), a, rhs, lower, upper)
    res = simplex.solve(lp)
    return res.status is Status.OPTIMAL


def test_general_split_cglp_sign_matches_union_oracle(rng):
    # the multiplier LP with a general split direction answers membership
    # exactly when the union-of-polyhedra system is feasible
    agree = disagree = 0
    attempts = 0
    while agree + disagree < 40 and attempts < 400:
        attempts += 1
        inst = random_milp(rng)
        nm = inst.nm
        x = _master_vertex(nm)
        if x is None:
            continue
        try:
            pt = FractionalPoint.from_point(nm, x)
        except ValueError:
            continue
        pi = np.zeros(nm.num_cols)
        support = rng.integers(1, nm.num_integer + 1)
        pi[:support] = rng.integers(-2, 3, size=support)
        if not pi.any():
            continue
        gap = float(pi @ pt.x)
        pi0 = math.floor(gap)
        if min(gap - pi0, 1.0 - (gap - pi0)) < 1e-4:
            continue
        cval, cres = solve_cglp(build_cglp(nm, pt, pi, pi0))
        if cval is None:
            continue
        inside = hull_membership_by_union_lp(nm, pt.x, pi, pi0)
        if (cval >= -1e-7) == inside:
            agree += 1
        else:
            disagree += 1
    assert agree >= 40 and disagree == 0


def test_separate_t1(t1, t1_point):
    sep = separate(t1, t1_point, 0)
    assert sep.found
    assert sep.value == pytest.approx(-0.25, abs=1e-9)
    np.testing.assert_allclose(sep.plain.coeffs, [0.0, -1.0], atol=1e-9)
    assert sep.plain.rhs == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sep.strengthened.coeffs, sep.plain.coeffs, atol=1e-9)
    assert sep.plain.violation_at(t1_point.x) > 0


def test_separate_vertex_matches_master_tableau_gmi(t1, t1_point):
    # at an LP vertex the emitted strengthened cut is the GMI cut read
    # from the optimal master tableau row of the same variable
    slp = to_standard(t1)
    lp = BoundedLp(
        sense="max",
        objective=slp.c,
        a_eq=slp.a,
        rhs=slp.b,
        lower=np.zeros(slp.num_cols),
        upper=np.full(slp.num_cols, np.inf),
    )
    res = simplex.solve(lp, start=slp.slack_basis())
    row = tableau_row(slp, res.basis, slp.num_rows + 0)
    integer_cols = np.zeros(slp.num_cols, bool)
    integer_cols[slp.num_rows : slp.num_rows + 1] = True
    reference = eliminate_slacks(gmi_cut(row, integer_cols), slp)
    sep = separate(t1, t1_point, 0)
    np.testing.assert_allclose(sep.strengthened.coeffs, reference.coeffs, atol=1e-9)
    assert sep.strengthened.rhs == pytest.approx(reference.rhs, abs=1e-9)


def test_separate_member_point_gives_nocut(t1):
    pt = FractionalPoint.from_point(t1, np.array([0.5, 0.0]))
    sep = separate(t1, pt, 0)
    assert not sep.found
    assert sep.value >= -1e-4


def test_separate_inconclusive_on_iteration_limit(t1, t1_point):
    sep = separate(t1, t1_point, 0, time_limit=0.0)
    assert not sep.found
    assert sep.inconclusive
    assert sep.reason == "simplex status iteration_limit"


def test_warm_start_reuses_basis_for_equal_values(monkeypatch):
    # two integer coordinates with the same fractional value share the
    # whole constraint system, so the previous terminal basis is a usable
    # start: it is kept (no crash basis) and made dual feasible by bound
    # flips alone (no cost shift), reaches the cold optimum and takes no
    # more pivots than the cold solve
    nm = plain_milp(
        [[1.0, 1.0, -1.0], [-1.0, -1.0, -1.0], [-1.0, 1.0, 2.0]],
        [0.0, -3.0, 0.2],
        [1.0, 1.0, 0.5],
        p=2,
    )
    pt = FractionalPoint.from_point(nm, np.array([0.5, 0.5, 0.4]))
    slp = to_standard(nm)
    prob0 = membership_problem(slp, pt, 0)
    _, res0 = membership_value(prob0)
    assert res0.status is Status.OPTIMAL
    prob1 = membership_problem(slp, pt, 1)
    cold_value, cold = membership_value(prob1)
    assert cold.status is Status.OPTIMAL
    calls = []
    crash = simplex._Worker._crash_basis
    dual = simplex._Worker._dual

    def crashing(self):
        calls.append("crash")
        return crash(self)

    def dualing(self):
        st = dual(self)
        if np.any(self.cost != self.cmax):
            calls.append("shift")
        return st

    monkeypatch.setattr(simplex._Worker, "_crash_basis", crashing)
    monkeypatch.setattr(simplex._Worker, "_dual", dualing)
    value1, res1 = membership_value(prob1, start=res0.basis)
    assert res1.status is Status.OPTIMAL
    assert not calls
    assert value1 == pytest.approx(cold_value, abs=1e-9)
    assert res1.pivots <= cold.pivots


def test_strengthening_changes_integer_nonbasic_coefficient(rng):
    # find a case where the strengthened cut actually differs, then check
    # it against the GMI coefficients from the same terminal row
    found = 0
    while found < 5:
        inst = random_milp(rng)
        nm = inst.nm
        if nm.num_integer < 2:
            continue
        x = _master_vertex(nm)
        if x is None:
            continue
        try:
            pt = FractionalPoint.from_point(nm, x)
        except ValueError:
            continue
        for k in _fractional_ks(pt)[:2]:
            sep = separate(nm, pt, k)
            if not sep.found:
                continue
            if np.abs(sep.strengthened.coeffs - sep.plain.coeffs).max() > 1e-9:
                found += 1
                assert sep.strengthened.violation_at(pt.x) > 0


def _cglp_crash_value(cglp):
    res = simplex.solve(cglp.lp)
    assert res.status is Status.OPTIMAL
    return res.value + cglp.constant


def _elementary_split_draws():
    """(nm, pt, pi, pi0) of every elementary split the duality suite draws:
    its random instances, points and first two fractional variables."""
    from liftproject.verify import _case_points

    rng = np.random.default_rng(7)
    for _ in range(60):
        inst = random_milp(rng)
        _, points = _case_points(inst, rng, midpoint=True)
        for pt, _ in points:
            for k in _fractional_ks(pt)[:2]:
                pi = np.zeros(inst.nm.num_cols)
                pi[k] = 1.0
                yield inst.nm, pt, pi, math.floor(pt.x[k])


def _negative_split_draws(count):
    """(nm, pt, pi, pi0) of ``count`` general splits with a negative entry
    at relaxation vertices."""
    rng = np.random.default_rng(11)
    drawn = 0
    while drawn < count:
        nm = random_milp(rng).nm
        x = _master_vertex(nm)
        if x is None:
            continue
        pt = FractionalPoint.from_point(nm, x)
        pi = rng.integers(-2, 3, size=nm.num_cols).astype(float)
        if pi.min() >= 0:
            continue
        gap = float(pi @ pt.x)
        pi0 = math.floor(gap)
        if min(gap - pi0, 1.0 - (gap - pi0)) < 1e-4:
            continue
        drawn += 1
        yield nm, pt, pi, pi0


def literal_cglp(nm, pt, pi, pi0):
    """The multiplier LP as the paper states it, the reference for
    ``build_cglp``: 2n + 3 rows over alpha, beta, u0 and v0 split into
    non-negative pairs and u, v, s, t >= 0,

        min alpha xh - beta
        s.t. alpha - A'^T u - s + u0 pi = 0,  alpha - A'^T v - t - v0 pi = 0,
             beta - u b + u0 pi0 = 0,  beta - v b - v0 (pi0 + 1) = 0,
             u0 + v0 = 1.

    Returns the LP and the map of a point of it onto its variables."""
    n, m = nm.num_cols, nm.num_rows
    sizes = {"ap": n, "am": n, "bp": 1, "bm": 1, "u": m, "v": m, "s": n,
             "t": n, "u0p": 1, "u0m": 1, "v0p": 1, "v0m": 1}
    at = dict(zip(sizes, np.cumsum([0, *sizes.values()])))
    a = np.zeros((2 * n + 3, sum(sizes.values())))

    def put(rows, name, block):
        a[rows, at[name] : at[name] + sizes[name]] = block

    top, bottom, col = slice(0, n), slice(n, 2 * n), pi[:, None]
    for rows in (top, bottom):
        put(rows, "ap", np.eye(n))
        put(rows, "am", -np.eye(n))
    put(top, "u", -nm.a.T)
    put(top, "s", -np.eye(n))
    put(top, "u0p", col)
    put(top, "u0m", -col)
    put(bottom, "v", -nm.a.T)
    put(bottom, "t", -np.eye(n))
    put(bottom, "v0p", -col)
    put(bottom, "v0m", col)
    for r, (mult, w0, c0) in enumerate(
        (("u", "u0", pi0), ("v", "v0", -(pi0 + 1.0))), start=2 * n
    ):
        put(r, "bp", 1.0)
        put(r, "bm", -1.0)
        put(r, mult, -nm.b)
        put(r, w0 + "p", c0)
        put(r, w0 + "m", -c0)
    for name, sign in (("u0p", 1.0), ("u0m", -1.0), ("v0p", 1.0), ("v0m", -1.0)):
        put(2 * n + 2, name, sign)
    rhs = np.zeros(2 * n + 3)
    rhs[-1] = 1.0
    obj = np.zeros(a.shape[1])
    for name, block in {"ap": pt.x, "am": -pt.x, "bp": -1.0, "bm": 1.0}.items():
        obj[at[name] : at[name] + sizes[name]] = block
    lp = BoundedLp(
        "min", obj, a, rhs, np.zeros(a.shape[1]), np.full(a.shape[1], np.inf)
    )

    def part(x, name):
        return x[at[name] : at[name] + sizes[name]]

    def unsplit(x):
        out = {name: part(x, name) for name in ("u", "v", "s", "t")}
        for name in ("alpha", "beta", "u0", "v0"):
            pair = {"alpha": "a", "beta": "b"}.get(name, name)
            out[name] = part(x, pair + "p") - part(x, pair + "m")
        return out

    def split(parts):
        x = np.zeros(a.shape[1])
        for name in ("u", "v", "s", "t"):
            x[at[name] : at[name] + sizes[name]] = parts[name]
        for name in ("alpha", "beta", "u0", "v0"):
            pair = {"alpha": "a", "beta": "b"}.get(name, name)
            value = np.atleast_1d(parts[name])
            x[at[pair + "p"] : at[pair + "p"] + value.size] = np.maximum(value, 0.0)
            x[at[pair + "m"] : at[pair + "m"] + value.size] = np.maximum(-value, 0.0)
        return x

    return lp, unsplit, split


def test_compact_cglp_matches_the_literal_encoding():
    # the n-row multiplier LP reaches the optimum of the literal 2n + 3-row
    # one, and its unsplit multipliers are an optimal point of the literal
    # LP (at ties the two LPs may end on different optimal points, so the
    # multipliers are compared through the literal LP, not entry by entry)
    checked = 0
    draws = list(_elementary_split_draws()) + list(_negative_split_draws(30))
    for nm, pt, pi, pi0 in draws:
        cglp = build_cglp(nm, pt, pi, pi0)
        assert cglp.lp.num_rows == nm.num_cols
        value, res = solve_cglp(cglp)
        lp, unsplit, split = literal_cglp(nm, pt, pi, pi0)
        ref = simplex.solve(lp)
        assert res.status is ref.status is Status.OPTIMAL
        tol = 1e-9 * (1.0 + abs(ref.value))
        assert abs(value - ref.value) <= tol
        parts = cglp.unsplit(res.x)
        x = split(parts)
        scale = 1.0 + np.abs(lp.a_eq).max() * np.abs(x).max()
        assert np.abs(lp.a_eq @ x - lp.rhs).max() <= 1e-9 * scale
        assert abs(lp.objective @ x - ref.value) <= tol
        assert min(parts[name].min(initial=0.0) for name in "uvst") >= -1e-9 * scale
        # and the literal optimum, unsplit, is feasible for the compact LP
        # at the same value
        back = unsplit(ref.x)
        y = np.concatenate([back[name] for name in "uvst"])
        assert np.abs(cglp.lp.a_eq @ y - pi).max() <= 1e-9 * scale
        assert abs(cglp.lp.objective @ y + cglp.constant - ref.value) <= tol
        checked += 1
    assert checked >= 150


def test_solve_cglp_starts_from_the_trivial_cut(t1, t1_point):
    # the default start, the complement of the slack basis, is the
    # trivial-cut basis: s_j basic where pi_j >= 0 and t_j where pi_j < 0,
    # for every sign pattern of pi.  For an elementary split it is primal
    # feasible, so the multiplier LP needs no dual pivot, and it ends at the
    # value of a crash-start solve
    def trivial(cglp):
        m, n = cglp.a.shape
        return 2 * m + np.arange(n) + n * (cglp.pi < 0.0)

    def check(nm, pt, pi, pi0):
        cglp = build_cglp(nm, pt, pi, pi0)
        start = cglp.complement_basis()
        assert np.array_equal(start.basic, trivial(cglp))
        assert not start.at_upper.any()
        value, res = solve_cglp(cglp)
        assert res.phase1_pivots == 0
        crash = _cglp_crash_value(cglp)
        assert abs(value - crash) <= 1e-9 * (1.0 + abs(crash))

    check(t1, t1_point, np.array([1.0, 0.0]), 0.0)
    checked = 0
    for draw in _elementary_split_draws():
        check(*draw)
        checked += 1
    assert checked >= 40
    negative = 0
    for nm, pt, pi, pi0 in _negative_split_draws(15):
        cglp = build_cglp(nm, pt, pi, pi0)
        assert np.array_equal(cglp.complement_basis().basic, trivial(cglp))
        negative += 1
    assert negative == 15


def test_solve_cglp_with_a_negative_split_reaches_the_crash_value():
    # a pi with a negative entry puts t_i in the start in place of s_i: the
    # start stays primal feasible, so no dual pivot is needed, and the
    # simplex reaches the crash-start optimum
    for nm, pt, pi, pi0 in _negative_split_draws(15):
        cglp = build_cglp(nm, pt, pi, pi0)
        value, res = solve_cglp(cglp)
        crash = _cglp_crash_value(cglp)
        assert value is not None
        assert res.phase1_pivots == 0
        assert abs(value - crash) <= 1e-9 * (1.0 + abs(crash))
