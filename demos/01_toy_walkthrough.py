"""Walk through every layer of the library on a two-variable toy.

The toy:  min -x2  s.t.  2 x1 + x2 <= 2,  -2 x1 + x2 <= 0,  x1 integer >= 0.
Its LP relaxation peaks at (0.5, 1) with value -1, but every integer-feasible
point has x2 = 0, so a single disjunctive cut closes the whole gap.
"""

import numpy as np

from liftproject import (
    BoundedLp,
    FractionalPoint,
    membership_problem,
    membership_value,
    normalize,
    parse_mps,
    separate,
    solve,
    to_standard,
)
from liftproject.membership import certificate_from_basis
from liftproject.verify import assemble_cut

T1 = """NAME          T1
ROWS
 N  COST
 L  R1
 L  R2
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    X1        R1             2.0   R2            -2.0
    MARKER                 'MARKER'                 'INTEND'
    X2        COST          -1.0   R1             1.0
    X2        R2             1.0
RHS
    RHS       R1             2.0
BOUNDS
 PL BND       X1
ENDATA
"""

# 1. parse and put into canonical form  max c'x, A'x >= b, x >= 0
nm = normalize(parse_mps(T1))
print("canonical A' =\n", nm.a)
print("canonical b  =", nm.b, "  objective c' =", nm.objective)

# 2. slack-augment and solve the LP relaxation
slp = to_standard(nm)
lp = BoundedLp(
    sense="max",
    objective=slp.c,
    a_eq=slp.a,
    rhs=slp.b,
    lower=np.zeros(slp.num_cols),
    upper=slp.column_upper(),
)
res = solve(lp, start=slp.slack_basis())
xhat = res.x[slp.num_rows :]
print("\nLP relaxation optimum:", xhat, "value", res.value)

# 3. the membership question for the fractional integer variable x1:
#    does (0.5, 1) lie in conv(P n {x1 <= 0}  u  P n {x1 >= 1})?
#    T1 has no row that only bounds a variable, so the LP keeps every row
pt = FractionalPoint.from_point(nm, xhat)
prob = membership_problem(slp, pt, 0)
value, mres = membership_value(prob, slp.slack_basis())
print("\nmembership optimum:", value, " (negative: the point is outside)")
print("optimal y =", mres.x[slp.num_rows :], " equals f * xhat with f =", pt.fracs[0])

# 4. multipliers from the terminal tableau row, and the cut they define
cert = certificate_from_basis(mres.basis, prob)
print("\nmultipliers: u =", cert.u, " v =", cert.v, " u0 =", cert.u0, " v0 =", cert.v0)
raw = assemble_cut(cert, nm)
print("assembled cut:", raw.coeffs, ">=", raw.rhs, " (that is, x2 <= 0)")

# 5. the packaged one-call separation returns the normalized cut pair
sep = separate(slp, pt, 0, slp.slack_basis())
print("\nseparate(): plain", sep.plain.coeffs, ">=", sep.plain.rhs)
print("            strengthened", sep.strengthened.coeffs, ">=", sep.strengthened.rhs)
print("            violation at xhat:", sep.plain.violation_at(pt.x))
