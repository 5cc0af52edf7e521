"""Membership separation: does a relaxation point lie in the hull of an
elementary split disjunction, and if not, which cut proves it?

For a point xh in the relaxation and an integer variable k with
fractional value, the membership LP keeps the original constraint matrix
and merely changes bounds and right-hand side:

    max  y_k - ceil(xh_k) f      (f = frac(xh_k))
    s.t. A y = b f   over the slack-augmented system A = (-I A'),
         0 <= y_slacks <= A'xh - b,
         0 <= y_struct <= xh.

Its optimum is >= 0 exactly when xh lies in the disjunctive hull.  A
negative optimum yields multipliers (u, v, s, t, u0, v0) read from the
terminal tableau row of y_k, and that row gives both the plain
(intersection) cut and the strengthened (GMI) cut: ``cuts.gmi_cut`` over
no integer column and over the integer ones.  Its dual, the
multiplier LP with normalization u0 + v0 = 1, is built only by the
verification oracles (``verify.build_cglp``).

``separate`` solves the same LP over fewer rows, those of
``standard_form.to_standard``: each original row -y_j >= -u_j that only
bounds one column folds into that column's bounds, as in the master LP,
so the LP keeps only the other rows.  The multipliers and cuts are read
from that LP's own terminal basis: a column at a bound its bound-row
slack s_i sets is complemented, y_j = u_j - s_i, which makes the row of
y_k the row of the basis over every original row with s_i nonbasic in
y_j's place (Balas-Perregaard), and its multiplier row i's: the
multipliers span every original row, yet no system of every original row
is built.  The verification oracles solve that LP too; it is the only
membership LP the package builds (``membership_problem``), and the only
way a certificate is read from it is ``certificate_from_basis``.  A model
with no bound row keeps every row, and the LP is the one stated above.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .cuts import (
    FRAC_EPS_DEFAULT,
    CutRow,
    DynamismError,
    EmptyDisjunctionError,
    FractionalityError,
    complement,
    eliminate_slacks,
    gmi_cut,
)
from .instances import NormalizedMilp
from .simplex import BoundedLp, SimplexResult, Status
from .standard_form import (
    Basis,
    BasisFactors,
    SingularBasisError,
    StandardLp,
    TableauRow,
    tableau_row,
)

ACTIVITY_TOL = 1e-7
DUAL_SIGN_TOL = 1e-6


class DualContractError(RuntimeError):
    """The terminal basis violates the dual-feasibility sign pattern."""


@dataclass
class FractionalPoint:
    """A point of the current relaxation with cached row activities."""

    x: np.ndarray
    activities: np.ndarray  # A'x - b, clipped at zero
    fracs: np.ndarray  # fractional part of each integer coordinate

    @classmethod
    def from_point(
        cls, nm: NormalizedMilp, x: np.ndarray, *, tol: float = ACTIVITY_TOL
    ) -> "FractionalPoint":
        x = np.asarray(x, dtype=float)
        act = nm.a @ x - nm.b
        # x >= 0 is part of the relaxation too, and x is clipped below
        worst = float(min(act.min(initial=0.0), x.min(initial=0.0)))
        if worst < -tol:
            raise ValueError(
                f"point violates the relaxation by {-worst:.3e} (> {tol:.0e})"
            )
        xs = np.maximum(x, 0.0)
        fr = xs[: nm.num_integer] - np.floor(xs[: nm.num_integer])
        return cls(x=xs, activities=np.maximum(act, 0.0), fracs=fr)


@dataclass
class MembershipProblem:
    """Bound-revised LP encoding of the membership question for one k,
    over the rows of ``slp``, whose bound rows name the columns
    ``certificate_from_basis`` complements (none when every row is
    kept)."""

    lp: BoundedLp
    k: int
    f: float
    floor_k: float
    ceil_k: float
    constant: float  # -ceil(xh_k) * f, kept out of the LP objective
    point: FractionalPoint
    slp: StandardLp


@dataclass
class DualCertificate:
    """Multipliers (u, v, s, t, u0, v0) read from a terminal tableau row,
    u and v over every original row; ``row`` is read with the columns
    ``complemented`` complemented (``certificate_from_basis``).  The
    membership value it certifies is the caller's (``membership_value``)."""

    u: np.ndarray
    v: np.ndarray
    s: np.ndarray
    t: np.ndarray
    u0: float
    v0: float
    source_var: int
    floor_k: float
    row: TableauRow
    complemented: np.ndarray


@dataclass
class NoCut:
    """A basis that defines no certificate, and why."""

    reason: str


@dataclass
class Separation:
    """Outcome of one membership separation."""

    found: bool
    value: float | None
    plain: CutRow | None = None
    strengthened: CutRow | None = None
    reason: str = ""
    inconclusive: bool = False
    pivots: int = 0
    phase1_pivots: int = 0
    # a no-cut outcome's terminal basis and inverse, a start for the next
    # membership LP of the same k (same matrix and costs)
    factors: BasisFactors | None = field(default=None, repr=False)


def membership_problem(
    slp: StandardLp, pt: FractionalPoint, k: int, *, eps: float = FRAC_EPS_DEFAULT
) -> MembershipProblem:
    """The membership LP for integer variable k at pt over ``slp``, a
    cut-free system of ``to_standard``.

    It is solved, and its cuts read, over the original rows that are not
    column bounds: the bound row i on column j folds into the bounds of
    y_j, and its slack s_i = f u_j - y_j drops out.  Kept-row slacks keep
    their range [0, activity_i] and the columns without a bound row
    [0, xh_j].  The column j that bound row i bounds lies in
    [max(0, f u_j - activity_i), min(xh_j, f u_j)], the range that
    0 <= s_i <= activity_i leaves it inside [0, xh_j]; a crossing of
    rounding size fixes it at the upper end.  The right-hand side is f b
    over the kept rows.  Tight rows (zero activity) keep their slack,
    fixed at 0.  Without bound rows this is the LP over every original
    row.
    """
    f = float(pt.fracs[k])
    if min(f, 1.0 - f) < eps:
        raise FractionalityError(f"x[{k}] = {pt.x[k]} is integral within eps={eps}")
    cols = slp.bound_cols
    j = slp.num_rows + cols
    fu = f * slp.upper[cols]
    upper = np.concatenate([pt.activities[slp.keep], pt.x])
    upper[j] = np.minimum(pt.x[cols], fu)
    lower = np.zeros(upper.size)
    lower[j] = np.minimum(np.maximum(fu - pt.activities[slp.bound_rows], 0.0), upper[j])
    obj = np.zeros(upper.size)
    obj[slp.num_rows + k] = 1.0
    lp = BoundedLp(
        sense="max",
        objective=obj,
        a_eq=slp.a,
        rhs=slp.b * f,
        lower=lower,
        upper=upper,
    )
    floor_k = math.floor(pt.x[k])
    return MembershipProblem(
        lp=lp,
        k=k,
        f=f,
        floor_k=floor_k,
        ceil_k=floor_k + 1.0,
        constant=-(floor_k + 1.0) * f,
        point=pt,
        slp=slp,
    )


def membership_value(
    prob: MembershipProblem,
    start: Basis | BasisFactors,
    *,
    time_limit: float | None = None,
) -> tuple[float | None, SimplexResult]:
    """Optimum of the membership LP, solved from ``start``, plus the constant.

    Non-negative value (within tolerance) certifies membership in the
    disjunctive hull; a negative value promises a violated cut.  A
    non-optimal simplex status yields value None (inconclusive).
    """
    result = simplex.solve(prob.lp, start=start, time_limit=time_limit)
    if result.status is not Status.OPTIMAL:
        return None, result
    return float(result.value + prob.constant), result


def certificate_from_basis(
    basis: Basis, prob: MembershipProblem
) -> DualCertificate | NoCut:
    """Multipliers defined by any dual-feasible basis of ``prob`` (case
    split on y_k).

    If y_k is nonbasic it must sit at its upper bound and no inequality
    can be generated.  Otherwise the tableau row of y_k against the
    master right-hand side supplies the multipliers: nonbasic-at-upper
    columns feed u (rows) and s (structurals), nonbasic-at-lower feed v
    and t.  A column y_j nonbasic at a bound that the slack s_i of its
    bound row (``prob.slp``) sets, f u_j above or f u_j - activity_i
    below, is complemented in the row, y_j = u_j - s_i: the row becomes
    the one of the basis over every original row with y_j basic and s_i
    nonbasic, and y_j's multiplier becomes v_i (above) or u_i (below).
    Where no row is read as a bound, nothing is complemented.  A fixed
    column takes the side its reduced cost -abar_j favors.  u0 is ceil_k
    less the row's right-hand side.  Certificates failing u0 > 0, v0 > 0
    cannot cut the point.
    """
    slp = prob.slp
    m = slp.num_rows
    col = m + prob.k
    if not np.any(basis.basic == col):
        return NoCut("auxiliary variable nonbasic at its upper bound")
    row = tableau_row(slp, basis, col)
    abar = row.coeffs
    nonbasic = ~basis.in_basis_mask()
    ranged = prob.lp.upper - prob.lp.lower > 0.0

    # J+ / J- split: recorded bound statuses for ranged columns; fixed
    # columns take the side that keeps their multiplier non-negative
    # (either status is dual feasible when lower == upper)
    plus = np.where(ranged, basis.at_upper, abar < 0.0) & nonbasic
    minus = nonbasic & ~plus
    scale = max(1.0, float(np.abs(abar).max()))
    bad = (plus & ranged & (abar > DUAL_SIGN_TOL * scale)) | (
        minus & ranged & (abar < -DUAL_SIGN_TOL * scale)
    )
    if np.any(bad):
        c = int(np.argmax(bad))
        raise DualContractError(
            f"column {c} nonbasic at {'upper' if plus[c] else 'lower'} bound "
            f"with tableau entry {abar[c]:.3e}"
        )
    pos_part = np.where(plus, np.maximum(-abar, 0.0), 0.0)
    neg_part = np.where(minus, np.maximum(abar, 0.0), 0.0)
    s, t = pos_part[m:], neg_part[m:]
    pt, cols = prob.point, slp.bound_cols
    j = m + cols
    fu = prob.f * slp.upper[cols]
    sets = nonbasic[j] & np.where(
        plus[j], fu <= pt.x[cols], fu - pt.activities[slp.bound_rows] >= 0.0
    )
    flip, rows = j[sets], slp.bound_rows[sets]
    u, v = np.zeros(slp.num_original_rows), np.zeros(slp.num_original_rows)
    u[slp.keep], v[slp.keep] = pos_part[:m], neg_part[:m]
    u[rows], v[rows] = neg_part[flip], pos_part[flip]
    s[flip - m] = t[flip - m] = 0.0
    complement(row, slp, flip)

    u0 = prob.ceil_k - row.rhs
    v0 = 1.0 - u0
    if u0 <= 0.0 or v0 <= 0.0:
        return NoCut("associated master basic value lies outside the unit window")
    return DualCertificate(
        u=u,
        v=v,
        s=s,
        t=t,
        u0=u0,
        v0=v0,
        source_var=prob.k,
        floor_k=prob.floor_k,
        row=row,
        complemented=flip,
    )


def separate(
    slp: StandardLp,
    pt: FractionalPoint,
    k: int,
    start: Basis | BasisFactors,
    *,
    eps: float = FRAC_EPS_DEFAULT,
    time_limit: float | None = None,
) -> Separation:
    """Full separation for variable k: build, solve, extract, assemble.

    The membership LP is solved over ``slp``, the original rows that are
    not column bounds (``membership_problem``), from ``start``, a basis of
    those rows or its factors.  Returns a cut pair (plain intersection /
    strengthened GMI, both in structural space, max-norm normalized) when
    the membership value is <= -eps; otherwise a no-cut outcome, which
    keeps the LP's terminal factors (``Separation.factors``) as a start
    for the next membership LP of k.  For a cut, the dual certificate is
    read from the LP's own terminal basis (``certificate_from_basis``),
    and once it passed its sign and unit-window checks, the emitted cuts
    are read from its row of y_k by ``cuts.gmi_cut``, over no integer
    column and over ``slp.integer_columns``, complemented columns counted
    as continuous and mapped back by ``cuts.eliminate_slacks``; only the
    verification oracles assemble cuts from the certificate itself
    (``verify.assemble_cut``).
    A singular basis, a broken dual sign pattern or a numerically integral
    row ends as an inconclusive outcome whose reason names the error.
    """
    prob = membership_problem(slp, pt, k, eps=eps)
    value, result = membership_value(prob, start=start, time_limit=time_limit)
    outcome = functools.partial(
        Separation,
        pivots=result.pivots,
        phase1_pivots=result.phase1_pivots,
    )
    if value is None:
        return outcome(
            found=False,
            value=None,
            reason=f"simplex status {result.status.value}",
            inconclusive=True,
        )
    if value > -eps:
        return outcome(
            found=False,
            value=value,
            reason="membership value above -eps",
            factors=result.factors,
        )
    # below -eps a certificate must exist (nonbasic-at-upper and outside-
    # window bases both imply a non-negative value); extraction can still
    # decline defensively on numerical edge cases
    try:
        cert = certificate_from_basis(result.basis, prob)
    except (DualContractError, SingularBasisError) as exc:
        return outcome(
            found=False,
            value=value,
            reason=f"{type(exc).__name__}: {exc}",
            inconclusive=True,
        )
    if isinstance(cert, NoCut):
        return outcome(
            found=False, value=value, reason=cert.reason, inconclusive=True
        )
    row, flip = cert.row, cert.complemented
    try:
        plain = eliminate_slacks(gmi_cut(row, eps=1e-12), slp, flip)
        strengthened = eliminate_slacks(
            gmi_cut(row, slp.integer_columns(flip), eps=1e-12), slp, flip
        )
    except (FractionalityError, EmptyDisjunctionError, DynamismError) as exc:
        # integral row, degenerate or numerically hopeless cut; never count
        # this as a membership proof (the value *is* below -eps)
        return outcome(
            found=False,
            value=value,
            reason=f"cut rejected: {exc}",
            inconclusive=True,
        )
    return outcome(found=True, value=value, plain=plain, strengthened=strengthened)
