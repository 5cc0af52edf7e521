"""Independent oracles for the structural guarantees of the method.

Five families of checks, each runnable over a seeded corpus of small
random instances:

* theorem3 - the cut assembled from a terminal separation certificate
  equals (after slack elimination and max-norm scaling) the plain
  intersection cut read from the same basis and tableau row;
* theorem4 - the strengthened certificate cut equals the GMI cut from
  that row;
* duality  - the membership optimum equals the optimum of the multiplier
  LP with normalization u0 + v0 = 1;
* proposition3 - at a vertex of the relaxation the membership optimum is
  y = f x with value (f - 1) f;
* validity - no emitted cut removes any integer-feasible point, checked
  by exhaustive lattice enumeration with exact continuous completions.

The code only these oracles run lives here, not in the modules that
``optimize_closure`` runs.  The multiplier LP with normalization
u0 + v0 = 1, the membership LP's dual, is built here solely as a
cross-check oracle: with alpha, beta, u0 and v0 substituted out it keeps
one row per structural column (``build_cglp``).  The cut a certificate
defines (``assemble_cut``) and its monoidal strengthening (``strengthen``)
are assembled here too; ``membership.separate`` reads its cuts from the
tableau row instead.

The random instances use integer data and explicit box rows so both the
vertex and the lattice enumerations stay exact.  The first four families
check the membership LP that separation solves: the LP over the rows
that are not bounds (``membership.membership_problem``), its certificate
read with the columns at a bound-row bound complemented, and Theorems 3
and 4 compare against the one cut formula ``cuts.gmi_cut`` of its row,
over no integer column and over the integer ones less those complemented,
each mapped back by ``cuts.eliminate_slacks``.  The oracles' own LPs
start where their structure puts them, never from a basis of the closure
code they check.
Each instance has one separation system (``OracleSystem``).  Its vertex
LPs solve the rows that are not bounds from their slack basis, and every
membership LP of the instance starts from the terminal factors of its
first vertex LP, made over the very matrix the membership LP solves: by
the paper's Proposition 3 that basis is optimal for the membership LP at
the vertex, and at other points the dual simplex repairs it.  Every
multiplier LP (n rows) of the instance starts from the complement of that
basis: the multiplier LP is the membership LP's dual, so at the vertex the
complement is optimal, and since its constraints do not depend on the
point it is primal feasible at the midpoint too.  The validity oracle's
fiber LPs solve the system of ``to_standard`` as well, the integer
columns fixed by their bounds.  Each starts from the last optimal fiber
basis of the same cut, and the fiber LPs' proving duals are shared by
every cut they prove, with the column bounds in their weak-duality bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, product

import numpy as np

from . import simplex
from .closure import ClosureConfig, ClosureError, optimize_closure
from .cuts import (
    FRAC_EPS_DEFAULT, CutRow, FractionalityError, eliminate_slacks, gmi_cut,
)
from .instances import NormalizedMilp
from .membership import (
    DualCertificate,
    FractionalPoint,
    MembershipProblem,
    certificate_from_basis,
    membership_problem,
    membership_value,
)
from .simplex import BoundedLp, SimplexResult, Status
from .standard_form import Basis, BasisFactors, StandardLp, to_standard

COEFF_TOL = 1e-7
PROP3_Y_TOL = 1e-8
PROP3_VAL_TOL = 1e-9
VALIDITY_TOL = 1e-7
SCREEN_BLOCK = 4096  # lattice points the validity oracle screens at once
SCREEN_MARGIN = 1e-12  # relative to the terms summed, far above their rounding
MAX_ATTEMPTS_FACTOR = 50  # random draws per counted instance, at most


@dataclass
class EnumerationDomain:
    """Integer ranges 0..cap per integer variable for brute force."""

    caps: list[int]
    max_points: int = 10**6

    @property
    def num_points(self) -> int:
        total = 1
        for c in self.caps:
            total *= c + 1
        return total


@dataclass
class RandomMilp:
    nm: NormalizedMilp
    box: np.ndarray  # upper bound used per variable (all finite)
    x_seed: np.ndarray  # the feasible point the rhs was built around


@dataclass
class CheckRecord:
    name: str
    passed: bool
    skipped: str | None = None
    deviation: float = 0.0
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    cases: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, rec: CheckRecord) -> None:
        self.cases += 1
        if rec.skipped is not None:
            self.skipped += 1
        elif rec.passed:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(f"{rec.name}: {rec.detail}")

    @property
    def ok(self) -> bool:
        return self.failed == 0


def random_milp(
    rng: np.random.Generator,
    *,
    n_range: tuple[int, int] = (2, 6),
    m_range: tuple[int, int] = (2, 6),
    coeff_bound: int = 5,
    box_range: tuple[int, int] = (1, 4),
) -> RandomMilp:
    """Small random instance with integer data, feasible and bounded.

    The rhs is built around a random interior point and explicit box rows
    -x_j >= -U_j keep the relaxation bounded, so vertex and lattice
    enumerations are exact.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    p = int(rng.integers(1, n + 1))
    a = rng.integers(-coeff_bound, coeff_bound + 1, size=(m, n)).astype(float)
    box = rng.integers(box_range[0], box_range[1] + 1, size=n).astype(float)
    x0 = rng.uniform(0.0, box)
    slack = rng.uniform(0.0, 3.0, size=m)
    b = np.floor(a @ x0 - slack)
    c = rng.integers(-coeff_bound, coeff_bound + 1, size=n).astype(float)
    if not np.any(c):
        c[int(rng.integers(0, n))] = 1.0

    bound_rows = -np.eye(n)
    a_full = np.vstack([a, bound_rows])
    b_full = np.concatenate([b, -box])
    nm = NormalizedMilp(
        name="random",
        objective=c,
        a=a_full,
        b=b_full,
        num_integer=p,
        objective_offset=0.0,
        objective_sign=1.0,
        perm=np.arange(n),
        shift=np.zeros(n),
        col_names=[f"x{j}" for j in range(n)],
        row_labels=[f"r{i}" for i in range(m)] + [f"box{j}" for j in range(n)],
    )
    return RandomMilp(nm=nm, box=box, x_seed=x0)


# ---------------------------------------------------------------------------
# Certificate cuts and the multiplier LP (the Theorem 3/4 and duality oracles)


def assemble_cut(cert: DualCertificate, nm: NormalizedMilp) -> CutRow:
    """Structural-space cut defined by a certificate (unnormalized).

    alpha = A'^T u + s - u0 e_k,  beta = u b - u0 floor(xh_k); by duality
    the violation beta - alpha xh equals minus the membership value.
    Certificates outside the u0, v0 > 0 window are refused: the
    inequality they define need not be valid.
    """
    if cert.u0 <= 0.0 or cert.v0 <= 0.0:
        raise ValueError("certificate outside the unit window defines no valid cut")
    k = cert.source_var
    alpha = nm.a.T @ cert.u + cert.s
    alpha[k] -= cert.u0
    beta = float(cert.u @ nm.b) - cert.u0 * cert.floor_k
    return CutRow(coeffs=alpha, rhs=beta, space="structural")


def strengthen(
    cert: DualCertificate, base_cut: CutRow, nm: NormalizedMilp
) -> CutRow:
    """Round the multipliers of integer structural columns (monoidal step).

    For integer j != k the coefficient becomes
        min{u A'^j - u0 floor(m_j),  v A'^j + v0 ceil(m_j)},
    m_j = (u A'^j - v A'^j) / (u0 + v0).  ``base_cut`` must be the raw
    structural cut ``assemble_cut`` made of ``cert``, not a normalized
    copy; u0, v0 > 0 holds there.
    """
    p = nm.num_integer
    k = cert.source_var
    coeffs = base_cut.coeffs.copy()
    ua = cert.u @ nm.a  # u A'^j for every structural j
    va = cert.v @ nm.a
    for j in range(p):
        if j == k:
            continue
        mj = (ua[j] - va[j]) / (cert.u0 + cert.v0)
        coeffs[j] = min(
            ua[j] - cert.u0 * math.floor(mj),
            va[j] + cert.v0 * math.ceil(mj),
        )
    return CutRow(coeffs=coeffs, rhs=base_cut.rhs, space="structural")


@dataclass
class CglpProblem:
    """The normalized multiplier LP over (u, v, s, t) >= 0, in n rows.

    The literal LP, min alpha xh - beta over alpha = A'^T u + s - u0 pi =
    A'^T v + t + v0 pi, beta = u b - u0 pi0 = v b + v0 (pi0 + 1) and
    u0 + v0 = 1 with alpha, beta, u0 and v0 free, loses those variables
    and equalities: u0 = pi0 + 1 - (u - v) b, and what is left is

        min  u (A'xh - b + g b) - v (g b) + s xh - g (1 + pi0)
        s.t. A'^T (u - v) + s - t = pi,   u, v, s, t >= 0,

    with g = pi xh - pi0 and the constant kept out of the LP objective.
    ``unsplit`` recovers every variable of the literal LP.
    """

    lp: BoundedLp
    a: np.ndarray  # A'
    b: np.ndarray
    pi: np.ndarray
    pi0: float
    constant: float  # -g (1 + pi0)

    def complement_basis(
        self, rows: np.ndarray | None = None, cols: np.ndarray | None = None
    ) -> Basis:
        """The complement of a basis of the relaxation A'x - s = b.

        ``rows`` are the canonical rows whose slack that basis leaves
        nonbasic and ``cols`` the structurals it leaves nonbasic at 0, n
        in all.  Each row i contributes u_i or v_i and each column j s_j
        or t_j, the side whose basic value in B^-1 pi is >= 0, so the
        start is primal feasible for every split; its matrix is
        nonsingular exactly when the relaxation basis is.  The complement
        of an optimal membership basis is an optimal basis here.  The
        default is the slack basis (no rows, every column), whose
        complement is the trivial cut: ``s_j`` where ``pi_j >= 0`` and
        ``t_j`` where ``pi_j < 0``, for ``pi >= 0`` the cut
        ``alpha = -pi0 pi``, ``beta = -pi0 (pi0 + 1)``.
        """
        m, n = self.a.shape
        rows = np.zeros(0, dtype=int) if rows is None else np.asarray(rows, dtype=int)
        cols = np.arange(n) if cols is None else np.asarray(cols, dtype=int)
        plus = np.concatenate([rows, 2 * m + cols])  # the u_i and s_j
        at_upper = np.zeros(self.lp.num_cols, dtype=bool)
        value = BasisFactors(self.lp.a_eq, Basis(plus, at_upper)).solve(self.pi)
        # v_i = u_i + m and t_j = s_j + n take the negative values
        shift = np.concatenate([np.full(rows.size, m), np.full(cols.size, n)])
        return Basis(plus + shift * (value < 0.0), at_upper)

    def unsplit(self, x: np.ndarray) -> dict:
        m, n = self.a.shape
        u, v, s, t = x[:m], x[m : 2 * m], x[2 * m : 2 * m + n], x[2 * m + n :]
        u0 = self.pi0 + 1.0 - float((u - v) @ self.b)
        return {
            "alpha": self.a.T @ u + s - u0 * self.pi,
            "beta": float(u @ self.b) - self.pi0 * u0,
            "u": u,
            "v": v,
            "s": s,
            "t": t,
            "u0": u0,
            "v0": 1.0 - u0,
        }


def build_cglp(
    nm: NormalizedMilp,
    pt: FractionalPoint,
    pi: np.ndarray,
    pi0: float,
    *,
    eps: float = FRAC_EPS_DEFAULT,
) -> CglpProblem:
    """Multiplier-space cut LP with normalization u0 + v0 = 1.

    min alpha xh - beta subject to both disjunctive sides producing
    (alpha, beta); u0 and v0 are sign-free, which keeps the LP the exact
    dual of the membership LP.  Supports general split directions pi;
    the closure loop itself only ever uses elementary ones.
    """
    pi = np.asarray(pi, dtype=float)
    gap = float(pi @ pt.x) - pi0
    if min(gap, 1.0 - gap) < eps:
        raise FractionalityError(
            f"pi.xh - pi0 = {gap} is not strictly inside (0, 1)"
        )
    a, b = nm.a, nm.b
    m, n = a.shape
    eye = np.eye(n)
    lp = BoundedLp(
        sense="min",
        objective=np.concatenate(
            [a @ pt.x - b + gap * b, -gap * b, pt.x, np.zeros(n)]
        ),
        a_eq=np.hstack([a.T, -a.T, eye, -eye]),
        rhs=pi,
        lower=np.zeros(2 * (m + n)),
        upper=np.full(2 * (m + n), np.inf),
    )
    return CglpProblem(lp, a, b, pi, float(pi0), -gap * (1.0 + pi0))


def solve_cglp(
    cglp: CglpProblem, start: Basis | None = None
) -> tuple[float | None, SimplexResult]:
    """Optimum of the multiplier LP plus its constant, solved from
    ``start``, by default the trivial cut (``complement_basis``)."""
    if start is None:
        start = cglp.complement_basis()
    result = simplex.solve(cglp.lp, start=start)
    if result.status is not Status.OPTIMAL:
        return None, result
    return float(result.value + cglp.constant), result


# ---------------------------------------------------------------------------
# The oracles


@dataclass
class OracleSystem:
    """One instance's separation system and the starts of its oracle LPs.

    ``vertex`` is the vertex x1 of the relaxation maximizing the
    instance's own objective, or None (``_vertex_lp``, solved over
    ``slp``, the system of ``to_standard``).  ``basis`` is that LP's
    terminal basis and ``start`` its terminal factors, over the matrix
    every membership LP of the instance solves (rows or none), so each of
    them starts there with no LU.  Every multiplier LP of the instance
    starts from the complement of ``basis`` (``cglp_start``).
    """

    slp: StandardLp
    vertex: np.ndarray | None
    basis: Basis
    start: BasisFactors

    @classmethod
    def of(cls, nm: NormalizedMilp) -> "OracleSystem":
        slp = to_standard(nm)
        res = _vertex_lp(slp)
        return cls(slp, _vertex_point(slp, res), res.basis, res.factors)

    def cglp_start(self, cglp: CglpProblem) -> Basis:
        """The complement of ``basis`` in ``cglp``
        (``CglpProblem.complement_basis``), mapped onto the canonical rows
        through ``slp``: a nonbasic kept-row slack r gives row keep[r], a
        structural at its upper bound gives its bound row, and a
        structural at 0 gives its column."""
        slp, basis = self.slp, self.basis
        m = slp.num_rows
        nonbasic = np.flatnonzero(~basis.in_basis_mask())
        slacks, cols = nonbasic[nonbasic < m], nonbasic[nonbasic >= m] - m
        up = basis.at_upper[m + cols]
        bound_row = np.full(slp.num_struct, -1)
        bound_row[slp.bound_cols] = slp.bound_rows
        rows = np.concatenate([slp.keep[slacks], bound_row[cols[up]]])
        return cglp.complement_basis(rows, cols[~up])


def _kept_membership(oracle: OracleSystem, pt: FractionalPoint, k: int):
    """The membership LP of k at pt over the rows that are not bounds
    (``membership.membership_problem``), the LP ``separate`` solves,
    solved from ``oracle.start``; returns the problem, its value and the
    simplex result."""
    prob = membership_problem(oracle.slp, pt, k)
    value, res = membership_value(prob, start=oracle.start)
    return prob, value, res


def check_theorem3(
    nm: NormalizedMilp, basis: Basis, prob: MembershipProblem
) -> CheckRecord:
    """Certificate cut vs plain intersection cut from the same basis/row."""
    return _equivalence_check(nm, basis, prob, strengthened=False)


def check_theorem4(
    nm: NormalizedMilp, basis: Basis, prob: MembershipProblem
) -> CheckRecord:
    """Strengthened certificate cut vs GMI cut from the same basis/row."""
    return _equivalence_check(nm, basis, prob, strengthened=True)


def _equivalence_check(nm, basis, prob, *, strengthened: bool) -> CheckRecord:
    """``basis`` is a basis of ``prob``, a kept-row membership LP
    (``_kept_membership``).  The certificate is read from it with the
    columns at a bound-row bound complemented (``certificate_from_basis``),
    and the reference cut is ``cuts.gmi_cut`` of its row, over the integer
    columns less those complemented ones when ``strengthened`` and over
    none otherwise, mapped back by ``cuts.eliminate_slacks``.  A row whose
    rhs is integral within 1e-12 gives a skip record."""
    name = "theorem4" if strengthened else "theorem3"
    cert = certificate_from_basis(basis, prob)
    if not isinstance(cert, DualCertificate):
        return CheckRecord(name, True, skipped=cert.reason)
    slp, flip = prob.slp, cert.complemented
    mask = slp.integer_columns(flip) if strengthened else None
    try:
        reference = gmi_cut(cert.row, mask, eps=1e-12)
    except FractionalityError as exc:
        return CheckRecord(name, True, skipped=str(exc))
    lifted = assemble_cut(cert, nm)
    if strengthened:
        lifted = strengthen(cert, lifted, nm)
    # both max-norm normalized by eliminate_slacks
    got, want = eliminate_slacks(lifted, slp), eliminate_slacks(reference, slp, flip)
    dev = max(float(np.abs(got.coeffs - want.coeffs).max()), abs(got.rhs - want.rhs))
    return CheckRecord(
        name,
        passed=dev < COEFF_TOL,
        deviation=dev,
        detail=f"max coefficient deviation {dev:.3e}",
    )


def check_duality(
    nm: NormalizedMilp, pt: FractionalPoint, k: int, oracle: OracleSystem
) -> CheckRecord:
    """Membership optimum against the optimum of the multiplier LP of the
    elementary split on k.  The multiplier LP starts from the complement
    of the instance's vertex basis (``OracleSystem.cglp_start``), primal
    feasible at every point and optimal at the vertex itself."""
    _, value, res = _kept_membership(oracle, pt, k)
    if value is None:
        return CheckRecord("duality", True, skipped=f"membership {res.status.value}")
    pi = np.zeros(nm.num_cols)
    pi[k] = 1.0
    cglp = build_cglp(nm, pt, pi, math.floor(pt.x[k]))
    cvalue, cres = solve_cglp(cglp, oracle.cglp_start(cglp))
    if cvalue is None:
        return CheckRecord("duality", True, skipped=f"cglp {cres.status.value}")
    dev = abs(value - cvalue)
    tol = 1e-7 * (1.0 + abs(value))
    return CheckRecord(
        "duality",
        passed=dev < tol,
        deviation=dev,
        detail=f"membership {value:.12g} vs multiplier LP {cvalue:.12g}",
    )


def check_proposition3(
    pt: FractionalPoint, k: int, oracle: OracleSystem
) -> CheckRecord:
    """At a vertex the membership optimum is y = f x with value (f-1)f."""
    prob, value, res = _kept_membership(oracle, pt, k)
    if value is None:
        return CheckRecord(
            "proposition3", True, skipped=f"membership {res.status.value}"
        )
    f = pt.fracs[k]
    y = res.x[prob.slp.num_rows :]
    ydev = float(np.abs(y - f * pt.x).max())
    vdev = abs(value - (f - 1.0) * f)
    return CheckRecord(
        "proposition3",
        passed=ydev < PROP3_Y_TOL and vdev < PROP3_VAL_TOL,
        deviation=max(ydev, vdev),
        detail=f"|y - f x| = {ydev:.3e}, |value - (f-1)f| = {vdev:.3e}",
    )


class _DualProofs:
    """Weak-duality proofs shared by every cut of one validity check.

    Each row of ``duals`` is a pi >= 0 over the kept rows K that some fiber
    LP returned.  For cut c let g = pi A'_{K,C} - alpha_C.  Then pi proves
    c when g_j <= 0 on every continuous column with u_j = inf, tested
    exactly, with no tolerance, against every cut at once, and
    ``box[d, c]`` holds sum_j max(g_j, 0) u_j (``_box_terms``), +inf where
    dual d proves nothing of cut c.  On the fiber of xi, empty or not,
    such a pi bounds that cut's continuous part:
    alpha_C x_C >= pi (b_K - A'_{K,I} xi) - box[d, c].
    """

    def __init__(self, a_cont: np.ndarray, upper: np.ndarray, c_cont: np.ndarray):
        self.a_cont = a_cont
        self.upper = upper  # of the continuous columns, inf where none
        self.c_cont = c_cont  # one row of continuous coefficients per cut
        self.duals = np.zeros((0, a_cont.shape[0]))
        self.box = np.zeros((0, c_cont.shape[0]))
        self._seen: set[bytes] = set()

    def add(self, duals: np.ndarray) -> bool:
        """Keep pi = max(duals, 0) for every cut it proves; True when pi is
        new and proves some cut."""
        pi = np.maximum(duals, 0.0)
        key = pi.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        box = _box_terms(pi @ self.a_cont - self.c_cont, self.upper)
        if np.all(box == np.inf):
            return False
        self.duals = np.vstack([self.duals, pi])
        self.box = np.vstack([self.box, box])
        return True

    def bounds(self, residual: np.ndarray) -> np.ndarray:
        """Per cut, the best bound max (pi residual - box) over its proofs,
        -inf where it has none."""
        values = (self.duals @ residual)[:, None] - self.box
        return values.max(axis=0, initial=-np.inf)


def _box_terms(g: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """sum_j max(g_j, 0) u_j over the last axis of ``g``: the most that
    columns 0 <= x_j <= u_j can add to g x.  +inf where g_j > 0 on a column
    with u_j = inf, so that g x has no such bound; that test is exact."""
    free = np.isinf(upper)
    bounded = np.all(g[..., free] <= 0.0, axis=-1)
    return np.where(bounded, np.maximum(g, 0.0) @ np.where(free, 0.0, upper), np.inf)


def check_validity(
    nm: NormalizedMilp,
    cuts: list[CutRow],
    dom: EnumerationDomain,
    *,
    tol: float = VALIDITY_TOL,
) -> CheckRecord:
    """No cut may remove any integer-feasible point of the instance.

    Enumerates all integer assignments inside the domain; for mixed
    instances each assignment's continuous completion polytope (its
    fiber) is probed per cut by minimizing the cut activity exactly (same
    simplex); a minimum below the rhs, or none because the LP is
    unbounded, is a violation.  Each fiber LP solves the system of
    ``to_standard``: the rows K that are not bounds, with the bound rows
    read as column bounds, the integer columns fixed at xi by their bounds
    and the continuous ones in [0, u_C].  A point with xi above an integer
    column's bound has an empty fiber and is skipped.  The fiber LPs of a cut start from the
    terminal factors of its last optimal fiber LP: between lattice points
    only the fixed bounds of x_I change, so that basis stays dual feasible
    and the dual simplex repairs it.  Until a cut has one, its LPs start
    from the slack basis, factored once for all cuts.  Two kinds of LP
    duals spare fiber LPs, both checked exactly against A'_{K,C} with no
    tolerance where u_j = inf, and with the column bounds paying for the
    rest (``_box_terms``):

    * the row duals pi >= 0 of every fiber LP are tested against every
      cut at once and kept for each cut c they prove (``_DualProofs``):
      by weak duality alpha x >= alpha_I xi + pi (b_K - A'_{K,I} xi) -
      sum_j max(g_j, 0) u_j, with g = pi A'_{K,C} - alpha_C, on the fiber
      of xi, empty or not, so a later LP of c, at this point or another,
      is skipped once that bound reaches its rhs;
    * Farkas rays pi in [0, 1]^K, one read off the simplex certificate of
      each empty fiber, prove by Farkas' lemma that the fiber of xi is
      empty when pi (b_K - A'_{K,I} xi) - sum_j max(h_j, 0) u_j > tol,
      with h = pi A'_{K,C} (``_fiber_ray``); no cut can be violated
      there, so the point is skipped.

    Points are screened in blocks against the current rays and proofs, by
    ``SCREEN_MARGIN``; the first one not cleared takes the test above, and
    since proofs only accumulate, the fiber LPs and their order stay those
    of testing every point.  A pure-integer instance is one matrix test.
    """
    if not cuts:
        return CheckRecord("validity", True, detail="no cuts to check")
    p = nm.num_integer
    n = nm.num_cols
    if dom.num_points > dom.max_points:
        return CheckRecord(
            "validity", True, skipped=f"{dom.num_points} lattice points over cap"
        )
    slp = to_standard(nm)
    m = slp.num_rows
    a_int, a_cont = slp.a[:, m : m + p], slp.a[:, m + p :]
    int_upper, cont_upper = slp.upper[:p], slp.upper[p:]
    proofs = _DualProofs(
        a_cont, cont_upper, np.array([cut.coeffs[p:] for cut in cuts])
    )
    # per cut: the start of its next fiber LP, the factors of its last
    # optimal one once it has one
    starts = [BasisFactors(slp.a, slp.slack_basis())] * len(cuts)
    rays = np.zeros((0, m))  # Farkas rays proving fibers empty
    ray_box = np.zeros(0)  # and their box terms
    c_int = np.array([cut.coeffs[:p] for cut in cuts])
    rhs = np.array([cut.rhs for cut in cuts]) - tol

    def cleared(xis: np.ndarray) -> np.ndarray:
        residual = slp.b - xis @ a_int.T
        best = np.full((len(xis), len(cuts)), -np.inf)
        for pi, box in zip(proofs.duals, proofs.box):
            np.maximum(best, (residual @ pi)[:, None] - box, out=best)
        terms = np.abs(residual).max(initial=0.0) * (
            m + np.abs(proofs.duals).sum(axis=1).max(initial=0.0)
        ) + np.abs(xis).max(initial=0.0) * np.abs(c_int).sum(axis=1).max()
        terms += np.abs(proofs.box[np.isfinite(proofs.box)]).max(initial=0.0)
        margin = SCREEN_MARGIN * (1.0 + terms + ray_box.sum() + np.abs(rhs).max())
        empty = np.any(residual @ rays.T - ray_box > tol + margin, axis=1)
        return empty | np.all(xis @ c_int.T + best >= rhs + margin, axis=1)

    witnesses = []
    lattice = product(*(range(c + 1) for c in dom.caps))
    while block := list(islice(lattice, SCREEN_BLOCK)):
        xis = np.array(block, dtype=float).reshape(len(block), p)
        if p == n:
            feasible = np.all(xis @ nm.a.T >= nm.b - 1e-9, axis=1)
            found = np.argwhere(feasible[:, None] & (xis @ c_int.T < rhs))
            witnesses += [(block[i], int(idx)) for i, idx in found]
            continue
        todo = np.flatnonzero(np.all(xis <= int_upper, axis=1))  # else: empty fiber
        while (todo := todo[~cleared(xis[todo])]).size:
            i, todo = todo[0], todo[1:]
            assignment = block[i]
            xi = np.array(assignment, dtype=float)
            lower = np.zeros(slp.num_cols)
            upper = slp.column_upper()
            lower[m : m + p] = xi
            upper[m : m + p] = xi
            residual = slp.b - a_int @ xi
            if np.any(rays @ residual - ray_box > tol):
                continue  # empty fiber
            bounds = proofs.bounds(residual)
            for idx, cut in enumerate(cuts):
                fixed_part = float(cut.coeffs[:p] @ xi)
                if fixed_part + bounds[idx] >= cut.rhs - tol:
                    continue
                obj = np.concatenate([np.zeros(m), cut.coeffs])
                lp = BoundedLp(
                    sense="min",
                    objective=obj,
                    a_eq=slp.a,
                    rhs=slp.b,
                    lower=lower,
                    upper=upper,
                )
                res = simplex.solve(lp, start=starts[idx])
                if proofs.add(res.duals):
                    bounds = proofs.bounds(residual)
                if res.status is Status.INFEASIBLE:
                    ray = _fiber_ray(res.farkas, a_cont, cont_upper, residual, tol)
                    if ray is not None:
                        rays = np.vstack([rays, ray[0]])
                        ray_box = np.append(ray_box, ray[1])
                    break
                if res.status is Status.UNBOUNDED:
                    # a ray of the nonempty fiber drives alpha x below any rhs
                    witnesses.append((assignment, idx))
                if res.status is Status.OPTIMAL:
                    starts[idx] = res.factors
                    if res.value < cut.rhs - tol:
                        witnesses.append((assignment, idx))
    if witnesses:
        a0, i0 = witnesses[0]
        return CheckRecord(
            "validity",
            passed=False,
            detail=(
                f"{len(witnesses)} violations; first: integer part {a0} "
                f"violates cut #{i0}"
            ),
        )
    return CheckRecord("validity", True, detail=f"{dom.num_points} points checked")


def _fiber_ray(
    farkas: np.ndarray,
    a_cont: np.ndarray,
    upper: np.ndarray,
    residual: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float] | None:
    """pi in [0, 1]^K with pi r - box > tol, and box, or None.

    With h = pi A'_{K,C}, box = sum_j max(h_j, 0) u_j is the most h x_C
    reaches over 0 <= x_C <= u (``_box_terms``; h_j <= 0 where u_j = inf,
    tested exactly), so such a pi proves {0 <= x_C <= u : A'_{K,C} x_C >= r}
    empty.  The fiber LP's certificate y (min y A x > y b over the bounds,
    with the slack block -I of A) gives pi = max(-y, 0), scaled into
    [0, 1]^K.
    """
    pi = np.maximum(-farkas, 0.0)
    top = float(pi.max(initial=0.0))
    if top <= 0.0:
        return None
    pi /= top
    box = float(_box_terms(pi @ a_cont, upper))
    if pi @ residual - box > tol:
        return pi, box
    return None


# ---------------------------------------------------------------------------
# Suite drivers


def _vertex_lp(slp: StandardLp, objective: np.ndarray | None = None) -> SimplexResult:
    """The LP of a vertex of the relaxation maximizing ``objective``
    (default: the instance's own), solved over ``slp``, the rows that are
    not bounds, with the bound rows read as column bounds, from the slack
    basis."""
    obj = slp.c if objective is None else np.concatenate(
        [np.zeros(slp.num_rows), objective]
    )
    lp = BoundedLp(
        sense="max",
        objective=obj,
        a_eq=slp.a,
        rhs=slp.b,
        lower=np.zeros(slp.num_cols),
        upper=slp.column_upper(),
    )
    return simplex.solve(lp, start=slp.slack_basis())


def _vertex_point(slp: StandardLp, res: SimplexResult) -> np.ndarray | None:
    """The structural point of a vertex LP, None unless it is optimal."""
    return res.x[slp.num_rows :] if res.status is Status.OPTIMAL else None


def _fractional_ks(pt: FractionalPoint, eps: float = FRAC_EPS_DEFAULT) -> list[int]:
    return [
        k
        for k, f in enumerate(pt.fracs)
        if min(float(f), 1.0 - float(f)) >= eps
    ]


def _case_points(inst: RandomMilp, rng: np.random.Generator, *, midpoint: bool):
    """The instance's ``OracleSystem`` and its case points: the vertex x1
    of its vertex LP plus, when ``midpoint`` is set and one is available,
    a non-vertex interior point (midpoint of x1 and a second distinct
    vertex, whose LP starts from the slack basis).  The second vertex's
    objective is drawn from ``rng`` either way, so every suite draws the
    same instances."""
    nm = inst.nm
    oracle = OracleSystem.of(nm)
    x1 = oracle.vertex
    if x1 is None:
        return oracle, []
    points = []
    try:
        points.append((FractionalPoint.from_point(nm, x1), True))
    except ValueError:
        return oracle, []
    c2 = rng.integers(-5, 6, size=nm.num_cols).astype(float)
    if not midpoint:
        return oracle, points
    x2 = _vertex_point(oracle.slp, _vertex_lp(oracle.slp, objective=c2))
    if x2 is not None and np.abs(x1 - x2).max() > 1e-7:
        mid = 0.5 * (x1 + x2)
        try:
            points.append((FractionalPoint.from_point(nm, mid), False))
        except ValueError:
            pass
    return oracle, points


def run_suite(
    suite: str,
    count: int = 100,
    seed: int = 0,
    *,
    corrupt_rhs: float = 0.0,
) -> SuiteResult:
    """Run one oracle family over ``count`` random instances.

    An instance only counts once it contributes at least one executed
    check; fully-skipped draws (no fractional coordinate, say) are
    replaced by fresh ones up to the attempt cap.  ``corrupt_rhs`` is a
    fault-injection self-test hook: the validity suite tightens every
    checked cut by that amount, so a positive value must produce
    failures.
    """
    if suite not in ("theorem3", "theorem4", "duality", "validity", "proposition3"):
        raise ValueError(f"unknown suite {suite!r}")
    rng = np.random.default_rng(seed)
    out = SuiteResult(suite=suite)
    attempts = 0
    instances_done = 0
    while instances_done < count and attempts < MAX_ATTEMPTS_FACTOR * count:
        attempts += 1
        inst = random_milp(rng)
        recs = _run_instance(suite, inst, rng, corrupt_rhs)
        executed = [r for r in recs if r.skipped is None]
        if not executed:
            continue
        instances_done += 1
        for rec in recs:
            out.record(rec)
    return out


def _run_instance(suite: str, inst: RandomMilp, rng, corrupt_rhs: float = 0.0):
    nm = inst.nm
    if suite == "validity":
        return _validity_case(inst, corrupt_rhs)
    recs: list[CheckRecord] = []
    # Proposition 3 speaks of vertices only
    oracle, points = _case_points(inst, rng, midpoint=suite != "proposition3")
    for pt, _ in points:
        ks = _fractional_ks(pt)
        for k in ks[:2]:
            if suite == "duality":
                recs.append(check_duality(nm, pt, k, oracle))
                continue
            if suite == "proposition3":
                recs.append(check_proposition3(pt, k, oracle))
                continue
            prob, _, res = _kept_membership(oracle, pt, k)
            if res.status is not Status.OPTIMAL:
                continue
            check = check_theorem3 if suite == "theorem3" else check_theorem4
            recs.append(check(nm, res.basis, prob))
    return recs


def _validity_case(inst: RandomMilp, corrupt_rhs: float = 0.0) -> list[CheckRecord]:
    nm = inst.nm
    dom = EnumerationDomain(caps=[int(b) for b in inst.box[: nm.num_integer]])
    if dom.num_points > dom.max_points:
        return [CheckRecord("validity", True, skipped="domain over cap")]
    cuts: list[CutRow] = []
    for mode in ("pe", "pestar"):
        try:
            report = optimize_closure(nm, ClosureConfig(mode=mode, time_limit=10.0))
        except ClosureError as exc:  # infeasible relaxations are legitimate draws
            return [CheckRecord("validity", True, skipped=f"closure: {exc}")]
        except Exception as exc:  # a fault of the closure code, never a skip
            return [
                CheckRecord(
                    "validity",
                    passed=False,
                    detail=f"{mode} closure raised {type(exc).__name__}: {exc}",
                )
            ]
        cuts.extend(report.cut_rows)
    if not cuts:
        return [CheckRecord("validity", True, skipped="no cuts emitted")]
    if corrupt_rhs:
        cuts = [CutRow(c.coeffs.copy(), c.rhs + corrupt_rhs, c.space) for c in cuts]
    return [check_validity(nm, cuts, dom)]
