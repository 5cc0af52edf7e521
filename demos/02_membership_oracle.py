"""The membership LP as a yes/no oracle, and its exact duality with the
explicit multiplier-space cut LP.

Three situations on the interval P = [0, 3] with x integer:
  * a point inside the disjunctive hull  -> non-negative optimum, no cut;
  * a vertex of the relaxation           -> optimum (f-1)f, a cut exists;
  * any separation                        -> membership optimum equals the
    multiplier LP optimum (they are duals of each other).
"""

import numpy as np

from liftproject import (
    FractionalPoint,
    membership_problem,
    membership_value,
    to_standard,
)
from liftproject.cuts import FRAC_EPS_DEFAULT
from liftproject.instances import NormalizedMilp
from liftproject.verify import OracleSystem, build_cglp, random_milp, solve_cglp


def interval(upper):
    return NormalizedMilp(
        name="interval",
        objective=np.array([1.0]),
        a=np.array([[-1.0]]),
        b=np.array([-float(upper)]),
        num_integer=1,
        objective_offset=0.0,
        objective_sign=1.0,
        perm=np.array([0]),
        shift=np.zeros(1),
        col_names=["x"],
        row_labels=["ub"],
    )


def membership(nm, pt, k):
    """The membership LP of k at pt, over the rows that are not bounds."""
    return membership_value(membership_problem(to_standard(nm), pt, k))[0]


nm = interval(3.0)

# x = 1.5 lies in conv([0,1] u [2,3]) = [0,3]: the oracle says inside
pt = FractionalPoint.from_point(nm, np.array([1.5]))
value = membership(nm, pt, 0)
print("x=1.5 on [0,3]: membership optimum", value, "(>= 0: inside, no cut)")

# x = 0.5 on [0, 0.8]: the hull of the disjunction is {0}, the point is out
nm2 = interval(0.8)
pt2 = FractionalPoint.from_point(nm2, np.array([0.5]))
value2 = membership(nm2, pt2, 0)
print("x=0.5 on [0,0.8]: membership optimum", value2, "(< 0: cut exists)")

# duality against the explicit multiplier LP on random instances
rng = np.random.default_rng(1)
print("\nmembership vs multiplier-LP optimum on random instances:")
shown = 0
while shown < 5:
    inst = random_milp(rng)
    x = OracleSystem.of(inst.nm).vertex
    if x is None:
        continue
    try:
        pt = FractionalPoint.from_point(inst.nm, x)
    except ValueError:
        continue
    ks = np.flatnonzero(np.minimum(pt.fracs, 1.0 - pt.fracs) >= FRAC_EPS_DEFAULT)
    if not ks.size:
        continue
    k = int(ks[0])
    mval = membership(inst.nm, pt, k)
    pi = np.zeros(inst.nm.num_cols)
    pi[k] = 1.0
    cval, _ = solve_cglp(build_cglp(inst.nm, pt, pi, np.floor(pt.x[k])))
    print(f"  n={inst.nm.num_cols} k={k}: membership {mval:+.6f}  multiplier {cval:+.6f}")
    shown += 1
