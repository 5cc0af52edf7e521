"""The `pe` bound against an exact, independent elementary-closure bound.

For a model max c'x, A'x >= b, x >= 0 (bound rows included in A'), the
elementary closure is the intersection over the integer variables k and
the integers t of conv(P ∩ {x_k <= t} ∪ P ∩ {x_k >= t + 1}); only
t = 0 ... u_k - 1, with u_k the ceiling of max x_k over P, can cut.  Balas,
Ceria and Cornuéjols (Math. Prog. 58, 1993) write it as one lifted LP: for
every split (k, t),

    x = y + z,  A'y >= b λ,  y_k <= t λ,
    A'z >= b (1 - λ),  z_k >= (t + 1)(1 - λ),  y, z >= 0,  0 <= λ <= 1.

For a binary k the only split is t = 0.  HiGHS solves it here, so the
reference shares no code with the package.
A proved Kelley run must land between that optimum and eps above it.  The
strengthened `pestar` cuts are valid for every integer point, and each is
at least as tight as its plain cut, so a `pestar` run must land between
the integer optimum (HiGHS's MILP solver) and that optimum plus eps.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from liftproject.closure import ClosureConfig, ClosureError, optimize_closure
from liftproject.verify import random_milp

from test_membership import plain_milp

EPS = ClosureConfig().eps
LP_TOL = 1e-6  # slack for the reference LP's own feasibility tolerance


def split_counts(nm) -> list[int]:
    """u_k per integer variable k: the ceiling of max x_k over P, by HiGHS.
    Splits t >= u_k leave P inside {x_k <= t}, and t < 0 inside
    {x_k >= t + 1}: neither cuts."""
    counts = []
    for k in range(nm.num_integer):
        c = np.zeros(nm.num_cols)
        c[k] = -1.0
        res = linprog(c, A_ub=-nm.a, b_ub=-nm.b, bounds=(0, None), method="highs")
        assert res.status == 0, res.message
        counts.append(int(np.ceil(-res.fun - LP_TOL)))
    return counts


def lifted_pe_bound(nm) -> float:
    """Optimum of the lifted LP, in the original objective sense."""
    a, b = nm.a, nm.b
    m, n = a.shape
    splits = [(k, t) for k, u in enumerate(split_counts(nm)) for t in range(u)]
    # variables: x, then per split the block (y, z, λ)
    width = 2 * n + 1
    nvar = n + len(splits) * width
    eq_rows, ub_rows, ub_rhs = [], [], []
    bounds = [(0, None)] * nvar
    for i, (k, t) in enumerate(splits):
        y0 = n + i * width
        z0, lam = y0 + n, y0 + 2 * n
        eq = np.zeros((n, nvar))
        eq[:, :n] = np.eye(n)
        eq[:, y0:z0] = -np.eye(n)
        eq[:, z0:lam] = -np.eye(n)
        eq_rows.append(eq)
        # -A'y + b λ <= 0
        ub = np.zeros((m, nvar))
        ub[:, y0:z0] = -a
        ub[:, lam] = b
        ub_rows.append(ub)
        ub_rhs.append(np.zeros(m))
        # -A'z - b λ <= -b
        ub = np.zeros((m, nvar))
        ub[:, z0:lam] = -a
        ub[:, lam] = -b
        ub_rows.append(ub)
        ub_rhs.append(-b)
        # y_k - t λ <= 0
        ub = np.zeros((1, nvar))
        ub[0, y0 + k] = 1.0
        ub[0, lam] = -t
        ub_rows.append(ub)
        ub_rhs.append(np.zeros(1))
        # -z_k - (t + 1) λ <= -(t + 1)
        ub = np.zeros((1, nvar))
        ub[0, z0 + k] = -1.0
        ub[0, lam] = -(t + 1.0)
        ub_rows.append(ub)
        ub_rhs.append(np.array([-(t + 1.0)]))
        bounds[lam] = (0, 1)
    c = np.zeros(nvar)
    c[:n] = -nm.objective  # linprog minimizes
    res = linprog(
        c,
        A_ub=np.vstack(ub_rows),
        b_ub=np.concatenate(ub_rhs),
        A_eq=np.vstack(eq_rows),
        b_eq=np.zeros(len(splits) * n),
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return nm.original_objective(-res.fun)


def milp_optimum(nm) -> float:
    """Integer optimum, in the original objective sense."""
    n = nm.num_cols
    res = milp(
        -nm.objective,  # milp minimizes
        constraints=LinearConstraint(nm.a, lb=nm.b, ub=np.inf),
        integrality=np.arange(n) < nm.num_integer,
        bounds=Bounds(0.0, np.inf),
    )
    assert res.status == 0, res.message
    return nm.original_objective(-res.fun)


def binary_knapsack(rng, rows, cols):
    w = rng.integers(5, 40, size=(rows, cols)).astype(float)
    cap = np.floor(w.sum(axis=1) / 2)
    profit = rng.integers(10, 60, cols).astype(float)
    return plain_milp(
        np.vstack([-w, -np.eye(cols)]),
        np.concatenate([-cap, -np.ones(cols)]),
        profit,
        p=cols,
        name=f"knap{rows}x{cols}",
    )


def random_binary_milp(rng, rows, binaries, continuous):
    """Random 0-1 MILP around a fractional interior point; continuous
    columns get a box of 2 so the relaxation stays bounded."""
    n = binaries + continuous
    a = rng.integers(-5, 6, size=(rows, n)).astype(float)
    box = np.concatenate([np.ones(binaries), np.full(continuous, 2.0)])
    x0 = rng.uniform(0.0, box)
    b = np.floor(a @ x0 - rng.uniform(0.0, 2.0, size=rows))
    c = rng.integers(-5, 6, size=n).astype(float)
    return plain_milp(
        np.vstack([a, -np.eye(n)]),
        np.concatenate([b, -box]),
        c,
        p=binaries,
        name=f"bin{rows}x{n}",
    )


def _models():
    rng = np.random.default_rng(2024)
    return [
        binary_knapsack(rng, 5, 20),
        binary_knapsack(rng, 3, 15),
        random_binary_milp(rng, 6, 10, 0),
        random_binary_milp(np.random.default_rng(5), 6, 8, 3),
    ]


@pytest.mark.parametrize("nm", _models(), ids=lambda nm: nm.name)
def test_pe_bound_matches_lifted_lp(nm):
    rep = optimize_closure(nm, ClosureConfig(mode="pe"))
    assert rep.termination == "proved"
    assert rep.num_cuts > 0  # the closure is tighter than the relaxation
    z_pe = lifted_pe_bound(nm)
    scale = 1.0 + abs(z_pe)
    # max sense: the Kelley bound approaches the closure optimum from above
    assert z_pe - LP_TOL * scale <= rep.z_cut <= z_pe + EPS * scale


@pytest.mark.parametrize("nm", _models(), ids=lambda nm: nm.name)
def test_pestar_bound_lies_between_the_optimum_and_the_pe_bound(nm):
    rep = optimize_closure(nm, ClosureConfig(mode="pestar"))
    assert rep.termination == "proved"
    z_pe = lifted_pe_bound(nm)
    scale = 1.0 + abs(z_pe)
    # max sense: no integer point is cut off, and the strengthened cuts
    # close at least as much as the plain ones
    assert milp_optimum(nm) - LP_TOL * scale <= rep.z_cut <= z_pe + EPS * scale


def test_pe_bound_matches_lifted_lp_with_general_integer_splits():
    # random models with general integer columns (boxes up to 4): the
    # lifted LP takes every split (k, t), the Kelley loop only those at
    # the points it visits, and the bounds still agree
    rng = np.random.default_rng(3)
    proved, general = 0, 0
    for _ in range(100):
        nm = random_milp(rng).nm
        try:
            rep = optimize_closure(nm, ClosureConfig(mode="pe"))
        except ClosureError:
            continue
        if rep.termination != "proved":
            continue
        z_pe = lifted_pe_bound(nm)
        scale = 1.0 + abs(z_pe)
        assert z_pe - LP_TOL * scale <= rep.z_cut <= z_pe + EPS * scale
        proved += 1
        general += max(split_counts(nm)) > 1
        if proved == 20:
            break
    assert proved == 20 and general >= 10
