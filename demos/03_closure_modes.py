"""Compare the three bound-strengthening modes on a batch of random
instances: the elementary closure (plain cuts), its strengthened
approximation (GMI-strengthened cuts, same rank-1 discipline) and the
textbook tableau-GMI rounds whose rank grows round by round.

The strengthened closure always dominates the plain one; a single GMI
round never beats it.
"""

import numpy as np

from liftproject import ClosureConfig, gap_closed, gmi_rounds, optimize_closure
from liftproject.closure import ClosureError
from liftproject.verify import random_milp
from liftproject.simplex import BoundedLp, Status
from liftproject.standard_form import to_standard
from liftproject import simplex
from itertools import product


def exact_optimum(nm, box):
    """Lattice enumeration + LP completion: exact MILP optimum."""
    p, n = nm.num_integer, nm.num_cols
    slp = to_standard(nm)
    m = slp.num_rows
    best = None
    for asg in product(*(range(int(b) + 1) for b in box[:p])):
        lower = np.zeros(m + n)
        upper = slp.column_upper()
        lower[m : m + p] = asg
        upper[m : m + p] = asg
        res = simplex.solve(
            BoundedLp("max", slp.c, slp.a, slp.b, lower, upper),
            start=slp.slack_basis(),
        )
        if res.status is Status.OPTIMAL:
            best = res.value if best is None else max(best, res.value)
    return best


rng = np.random.default_rng(2024)
print(f"{'size':>10} {'gap Pe %':>9} {'gap Pe* %':>9} {'gap 1xGMI %':>11}")
shown = 0
while shown < 10:
    inst = random_milp(rng)
    z_opt = exact_optimum(inst.nm, inst.box)
    if z_opt is None:  # integer-infeasible draw
        continue
    try:
        pe = optimize_closure(inst.nm, ClosureConfig(mode="pe"))
        ps = optimize_closure(inst.nm, ClosureConfig(mode="pestar"))
        g1 = gmi_rounds(inst.nm, 1)
    except ClosureError:
        continue
    gaps = [
        gap_closed(r.z_lp, r.z_cut, z_opt) for r in (pe, ps, g1)
    ]
    label = f"{inst.nm.num_cols}v/{inst.nm.num_integer}i"
    print(f"{label:>10} {gaps[0]:9.2f} {gaps[1]:9.2f} {gaps[2]:11.2f}")
    shown += 1

print("\n(strengthening dominates the plain closure; one tableau round")
print(" of GMI cuts stays at or below the strengthened closure)")
