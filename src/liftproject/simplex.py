"""Bounded-variable revised simplex for LPs of the form

    max/min  c x   s.t.  A x = d,   l <= x <= u   (l finite, u may be +inf).

One solver serves the master problem, the membership separation LP and the
verification oracles' LPs (``verify``), a system with no rows included.
Every solve takes one road: make the start dual feasible, run the dual
simplex to primal feasibility, then run phase 2 on the true costs.

The start is priced once.  A nonbasic column whose reduced cost favors its
other bound is dual infeasible.  A boxed one (finite upper bound) moves to
that bound.  An unboxed one keeps its status, and its cost is shifted in a
private copy of the costs so that its reduced cost is 0 (Koberstein, "The
dual simplex method", PhD thesis, 2005, ch. 4).  When nothing is shifted,
the dual simplex prices the true costs themselves.  Its leaving row
maximizes ``v_r**2 / ||e_r B^-1||**2`` over the rows whose violation
``v_r`` exceeds the feasibility tolerance: exact dual steepest-edge
weights, read off the explicit inverse at each pivot (Forrest and
Goldfarb, Math. Prog. 57, 1992).  Its entering column comes from the
bound-flipping ratio test (Fourer, "Notes on the dual simplex method",
1994; Maros, EJOR 149, 2003): the columns that reduce the violation are
taken in order of the dual ratio ``|cbar_j| / |alpha_rj|``, ties to the
largest ``|alpha_rj|``; a boxed column whose whole range leaves some
violation is flipped to its other bound, and the first one that would use
the violation up, or is unboxed, enters.  The leaving variable lands on
the bound it violates.  The dual simplex prices once per factorization and
then updates its reduced costs along the pivot row:
``cbar -= (cbar_e / alpha_re) * alpha_r``.  If its objective does not fall
for ``BLAND_WINDOW`` pivots, the private cost of every nonbasic column
moves by about ``1e-7 (1 + |c_j|)`` further to its dual feasible side and
the pricing starts afresh.  A row that every column at its best bound
leaves violated proves the LP infeasible: that row of the inverse, signed
by the bound it violates, is a Farkas ray, returned as
``SimplexResult.farkas``.

Phase 2 prices the true costs, which undoes any shift or perturbation, by
devex: the entering column maximizes ``score_j**2 / w_j`` over the
improving columns, where the reference weights ``w`` start at 1 and, on
each basis change, grow to ``(alpha_rj / alpha_re)**2 * w_e`` along the
pivot row (the leaving column gets ``max(w_e / alpha_re**2, 1)``); a bound
flip keeps them (Harris 1973; Forrest and Goldfarb 1992).  It switches to
Bland's rule when the objective stalls, and goes back through the dual
phase if numerical drift leaves the basis primal infeasible.  A dual
iteration counts as one pivot whatever it flips, and flips at the start
count as none; ``phase1_pivots`` counts the dual pivots, the ones spent
reaching primal feasibility.  The basis inverse is kept explicitly and
updated in product form, with periodic refactorization; every explicit
inverse comes from ``standard_form.BasisFactors``.  A start shared by many
LPs over one matrix can be passed as its ``BasisFactors``, factored once.
Every solve hands its terminal basis and explicit inverse back as
``SimplexResult.factors``, with the count of product-form updates that
inverse carries since its last factorization.  Passed back as a start on
the same matrix, it is copied rather than factored, and its carried
updates count toward the next refactorization: a start that carries
``REFRESH_EVERY`` of them is factored afresh, and one that carries ``c``
is refactored after ``REFRESH_EVERY - c`` pivots.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .standard_form import Basis, BasisFactors, SingularBasisError

REFRESH_EVERY = 100  # pivots between refactorizations, carried updates included
PIVOT_TOL = 1e-9  # ratio-test pivot acceptance
ETA_TOL = 1e-11  # product-form update pivot floor
DEFAULT_MAX_ITER = 50_000
BLAND_WINDOW = 1_000  # non-improving pivots before Bland's rule or perturbing


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class BoundedLp:
    """max/min c x over A x = d, l <= x <= u.

    Lower bounds must be finite (shift free variables or split them
    before building the LP) and A must have full row rank; every system
    produced in this package carries an identity slack block, which
    guarantees that.
    """

    sense: str  # 'min' or 'max'
    objective: np.ndarray
    a_eq: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.a_eq = np.asarray(self.a_eq, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        r, c = self.a_eq.shape
        if not (
            self.objective.shape == (c,)
            and self.rhs.shape == (r,)
            and self.lower.shape == (c,)
            and self.upper.shape == (c,)
        ):
            raise ValueError("inconsistent LP dimensions")
        if self.sense not in ("min", "max"):
            raise ValueError(f"bad sense {self.sense!r}")
        if not np.all(np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.upper < self.lower):
            raise ValueError("empty bound interval (upper < lower)")

    @property
    def num_rows(self) -> int:
        return self.a_eq.shape[0]

    @property
    def num_cols(self) -> int:
        return self.a_eq.shape[1]


@dataclass
class SimplexResult:
    status: Status
    value: float
    x: np.ndarray
    basis: Basis | None
    reduced_costs: np.ndarray | None
    duals: np.ndarray | None
    pivots: int
    phase1_pivots: int  # dual simplex pivots, spent reaching primal feasibility
    # when INFEASIBLE: y with min y A x > y d over the bounds l <= x <= u
    farkas: np.ndarray | None = None
    # the terminal basis with the worker's explicit inverse, over lp.a_eq
    factors: BasisFactors | None = None


def _inverse(a: np.ndarray, basic: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``a[:, basic]``; bound statuses play no part."""
    return BasisFactors(a, Basis(basic, np.zeros(a.shape[1], dtype=bool))).inverse()


def _valid_basic(basic: np.ndarray, rows: int, cols: int) -> bool:
    return (
        basic.shape[0] == rows
        and basic.min(initial=0) >= 0
        and basic.max(initial=-1) < cols
        and np.unique(basic).size == rows
    )


def solve(
    lp: BoundedLp,
    start: Basis | BasisFactors | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    time_limit: float | None = None,
) -> SimplexResult:
    """Solve ``lp``, optionally warm-starting from ``start``.

    A singular or ill-sized starting basis silently falls back to a crash
    basis.  ``BasisFactors`` made against ``lp.a_eq`` itself skip the
    factorization; against any other matrix they count as their plain basis.
    Hitting ``max_iter`` or ``time_limit`` yields the iteration-limit
    status.  The result is deterministic for identical inputs and limits.
    """
    return _Worker(lp, start, max_iter=max_iter, time_limit=time_limit).run()


class _Worker:
    def __init__(self, lp, start, *, max_iter, time_limit=None):
        self.lp = lp
        self.a = lp.a_eq
        self.d = lp.rhs
        self.l = lp.lower
        self.u = lp.upper
        self.r, self.ncols = self.a.shape
        self.cmax = lp.objective if lp.sense == "max" else -lp.objective
        self.fixed = self.u - self.l <= 0.0
        self.boxed = np.isfinite(self.u) & ~self.fixed  # movable to either bound
        self.deadline = None
        if time_limit is not None:
            self.deadline = time.perf_counter() + max(time_limit, 0.0)
        scale = max(
            1.0,
            float(np.abs(self.d).max(initial=0.0)),
            float(np.abs(self.l).max(initial=0.0)),
            float(np.abs(self.u[np.isfinite(self.u)]).max(initial=0.0)),
        )
        self.ftol = 1e-9 * scale
        self.dtol = 1e-9 * max(1.0, float(np.abs(self.cmax).max(initial=0.0)))
        self.max_iter = max_iter
        self.pivots = 0
        self.phase1_pivots = 0
        self.cost = self.cmax  # what the dual phase prices: shifted, perturbed
        self.farkas = None
        self.bland = False
        self._since_improve = 0
        self._best = -np.inf
        self._ger = None  # scratch buffer for the rank-1 inverse update
        self.factorizations = 0  # refactorizations since the start
        self.carried = 0  # product-form updates the start's inverse carried
        self.updates = 0  # product-form updates since the last factorization
        self.weights = np.ones(self.ncols)  # devex reference weights
        self._init_basis(start)

    # -- basis handling ----------------------------------------------------

    def _init_basis(self, start: Basis | BasisFactors | None) -> None:
        basic, self.binv = self._start_factors(start)
        if isinstance(start, BasisFactors):
            start = start.basis
        self.atup = np.zeros(self.ncols, dtype=bool)
        if basic is None:
            basic = self._crash_basis()
            self.binv = _inverse(self.a, basic)
        elif start.at_upper.shape[0] == self.ncols:
            self.atup = start.at_upper.copy()
        self.basic = basic
        self.inb = np.zeros(self.ncols, dtype=bool)
        self.inb[self.basic] = True
        # drop meaningless statuses: basic columns and infinite uppers
        self.atup[self.inb] = False
        self.atup[~np.isfinite(self.u)] = False
        self.x = np.where(self.atup, self.u, self.l).astype(float)
        self._recompute_basics()

    def _start_factors(self, start):
        """Basic columns and inverse of a usable start, else (None, None)."""
        if isinstance(start, BasisFactors):
            if start.a is self.a and start.updates < REFRESH_EVERY:
                self.carried = self.updates = start.updates
                # order="K" keeps the Fortran layout, and with it the BLAS
                # paths and the bits of every product with the inverse
                return start.basis.basic.copy(), start.inverse().copy(order="K")
            start = start.basis  # another matrix, or drifted: factor afresh
        if start is None or not _valid_basic(start.basic, self.r, self.ncols):
            return None, None
        try:
            return start.basic.copy(), BasisFactors(self.a, start).inverse()
        except SingularBasisError:
            return None, None

    def _crash_basis(self) -> np.ndarray:
        # QR with column pivoting yields a deterministic independent set;
        # only R and the permutation are read, so Q is never formed
        rmat, perm = scipy.linalg.qr(self.a, pivoting=True, mode="r")
        diag = np.abs(np.diag(rmat))
        scale = max(1.0, float(np.abs(self.a).max(initial=0.0)))
        rank = int(np.sum(diag > 1e-10 * scale))
        if rank < self.r:
            raise ValueError("constraint matrix is row-rank deficient")
        return np.sort(perm[: self.r]).astype(int)

    def _recompute_basics(self) -> None:
        xn = self.x.copy()
        xn[self.basic] = 0.0
        self.x[self.basic] = self.binv @ (self.d - self.a @ xn)

    # -- pricing and pivoting ----------------------------------------------

    def _price(self, g: np.ndarray) -> np.ndarray:
        y = g[self.basic] @ self.binv
        return g - y @ self.a, y

    def _scores(self, cbar: np.ndarray) -> np.ndarray:
        # improvement per unit of movement away from the active bound;
        # basic and fixed columns cannot move
        score = np.where(self.atup, -cbar, cbar)
        score[self.inb | self.fixed] = -np.inf
        return score

    def _entering(self, cbar: np.ndarray) -> int | None:
        score = self._scores(cbar)
        cand = np.flatnonzero(score > self.dtol)
        if not cand.size:
            return None
        if self.bland:
            return int(cand[0])
        # steepest edge as the reference weights estimate it
        return int(cand[np.argmax(score[cand] ** 2 / self.weights[cand])])

    def _ratio_test(self, sigma: float, w: np.ndarray):
        """Largest step for entering movement sigma*t; returns
        (t, leave_pos, leave_to_upper) with leave_pos None for a bound flip."""
        delta = -sigma * w  # basic movement per unit step
        xb = self.x[self.basic]
        up = delta > PIVOT_TOL
        # rising basics block at their upper bound (an infinite one gives
        # an infinite ratio), falling ones at their lower
        ratios = np.divide(
            np.where(up, self.u[self.basic], self.l[self.basic]) - xb,
            delta,
            out=np.full(self.r, np.inf),
            where=up | (delta < -PIVOT_TOL),
        )
        np.maximum(ratios, 0.0, out=ratios)  # degenerate, within tolerance

        e_range = self.u[self._enter] - self.l[self._enter]
        t = float(min(ratios.min(initial=np.inf), e_range))
        if not np.isfinite(t):
            return np.inf, None, False
        if e_range <= t and not np.any(ratios <= t + 1e-12 * (1.0 + t)):
            return t, None, False  # bound flip
        near = ratios <= t + 1e-12 * (1.0 + t)
        cand = np.nonzero(near)[0]
        if self.bland:
            pos = cand[np.argmin(self.basic[cand])]
        else:
            pos = cand[np.argmax(np.abs(delta[cand]))]
        return float(max(ratios[pos], 0.0)), int(pos), bool(up[pos])

    def _update_weights(self, w: np.ndarray, leave_pos: int) -> None:
        """Devex update for a basis change at ``leave_pos``, read from the
        pivot row of the inverse before it is updated."""
        e = self._enter
        wr = w[leave_pos]
        ratio = (self.binv[leave_pos] @ self.a) / wr
        we = self.weights[e]
        np.maximum(self.weights, ratio * ratio * we, out=self.weights)
        self.weights[self.basic[leave_pos]] = max(we / (wr * wr), 1.0)

    def _apply_pivot(self, sigma, t, w, leave_pos, leave_to_upper) -> None:
        e = self._enter
        self.x[self.basic] += t * (-sigma * w)
        if leave_pos is None:  # bound flip, no basis change
            self.x[e] = self.u[e] if sigma > 0 else self.l[e]
            self.atup[e] = sigma > 0
            self.pivots += 1
            return
        lv = int(self.basic[leave_pos])
        self.x[e] = self.x[e] + sigma * t
        self.x[lv] = self.u[lv] if leave_to_upper else self.l[lv]
        self.atup[lv] = leave_to_upper
        self.atup[e] = False
        self.basic[leave_pos] = e
        self.inb[e] = True
        self.inb[lv] = False
        wr = w[leave_pos]
        if abs(wr) < ETA_TOL:
            self._refactor()
        else:
            br = self.binv[leave_pos] / wr
            if self._ger is None:
                # same layout as binv, so the subtraction walks one order
                self._ger = np.empty_like(self.binv)
            np.multiply(w[:, None], br[None, :], out=self._ger)
            self.binv -= self._ger
            self.binv[leave_pos] = br
            self.updates += 1
        self.pivots += 1
        if (self.pivots + self.carried) % REFRESH_EVERY == 0:
            self._refactor()

    def _refactor(self) -> None:
        self.binv = _inverse(self.a, self.basic)
        self.factorizations += 1
        self.updates = 0
        self._recompute_basics()

    def _track_progress(self, obj: float) -> None:
        if obj > self._best + 1e-10 * (1.0 + abs(self._best)):
            self._best = obj
            self._since_improve = 0
        else:
            self._since_improve += 1
            if self._since_improve > BLAND_WINDOW:
                self.bland = True

    def _reset_progress(self) -> None:
        self._best = -np.inf
        self._since_improve = 0
        self.bland = False

    # -- phases --------------------------------------------------------------

    def _infeasibility(self) -> float:
        xb = self.x[self.basic]
        return float(
            np.maximum(self.l[self.basic] - xb, 0.0).sum()
            + np.maximum(xb - self.u[self.basic], 0.0).sum()
        )

    def _out_of_budget(self) -> bool:
        if self.pivots >= self.max_iter:
            return True
        return (
            self.deadline is not None
            and self.pivots % 64 == 0
            and time.perf_counter() > self.deadline
        )

    def _phase2(self) -> Status:
        self._reset_progress()
        while not self._out_of_budget():
            cbar, _ = self._price(self.cmax)
            e = self._entering(cbar)
            if e is None:
                return Status.OPTIMAL
            self._enter = e
            sigma = -1.0 if self.atup[e] else 1.0
            w = self.binv @ self.a[:, e]
            t, pos, to_up = self._ratio_test(sigma, w)
            if not np.isfinite(t):
                return Status.UNBOUNDED
            if pos is not None:  # a bound flip keeps the weights
                self._update_weights(w, pos)
            self._apply_pivot(sigma, t, w, pos, to_up)
            self._track_progress(float(self.cmax @ self.x))
            if self._drifted():
                st = self._dual()
                if st is not Status.OPTIMAL:
                    return st
                self._reset_progress()
        return Status.ITERATION_LIMIT

    def _drifted(self) -> bool:
        # numerical drift check, only worth doing occasionally
        if self.pivots % REFRESH_EVERY:
            return False
        return self._infeasibility() > 10.0 * self.ftol * self.r

    def _dual(self) -> Status:
        """Make the basis dual feasible, then run the bounded dual simplex
        to primal feasibility.

        Each dual infeasible nonbasic column moves to its other bound when
        it is boxed; otherwise its cost in ``self.cost``, the private costs
        this phase prices against, is shifted to make its reduced cost 0.
        With nothing shifted ``self.cost`` is ``self.cmax`` itself, so the
        pivot path is the one the true costs give.  Returns
        OPTIMAL once the basis is primal feasible, and INFEASIBLE when the
        leaving row cannot be repaired; that row of the inverse, signed by
        the bound it violates, is then kept as ``self.farkas``.  The
        reduced costs are priced from scratch after each factorization and
        updated from the pivot row ``alpha`` in between; bound flips leave
        them unchanged.
        """
        cbar = self._price(self.cmax)[0]
        wrong = self._scores(cbar) > self.dtol
        flip = wrong & self.boxed
        if flip.any():
            self._flip(flip)
            self._recompute_basics()
        self.cost = self.cmax
        shift = wrong & ~self.boxed
        if shift.any():
            self.cost = self.cmax.copy()
            self.cost[shift] -= cbar[shift]
            cbar[shift] = 0.0
        priced_at = self.factorizations
        self._reset_progress()
        while not self._out_of_budget():
            if self.factorizations != priced_at:
                # from scratch at each refactorization, else updated below
                cbar, priced_at = self._price(self.cost)[0], self.factorizations
            xb = self.x[self.basic]
            below = self.l[self.basic] - xb
            viol = np.maximum(below, xb - self.u[self.basic])
            rows = np.flatnonzero(viol > self.ftol)
            if not rows.size:
                return Status.OPTIMAL
            # exact dual steepest-edge weights: the squared norms of the
            # violated rows of the inverse
            binv_rows = self.binv[rows]
            norms = np.einsum("ij,ij->i", binv_rows, binv_rows)
            r = int(rows[np.argmax(viol[rows] ** 2 / norms)])
            rise = bool(below[r] > 0.0)  # leaves at the lower bound it violates
            alpha = self.binv[r] @ self.a
            sigma = np.where(self.atup, -1.0, 1.0)
            # violation removed per unit move of each column off its bound;
            # basic and fixed columns cannot move
            gain = -sigma * alpha if rise else sigma * alpha
            gain[self.inb | self.fixed] = 0.0
            cand = np.flatnonzero(gain > PIVOT_TOL)
            flip, e, rest = self._bound_flipping_ratio_test(cand, gain, cbar, viol[r])
            if e is None:
                self.farkas = (1.0 if rise else -1.0) * self.binv[r]
                return Status.INFEASIBLE
            if flip.size:
                step = self._flip(flip)
                self.x[self.basic] -= self.binv @ (self.a[:, flip] @ step)
            self._enter = e
            w = self.binv @ self.a[:, e]
            cbar -= (cbar[e] / alpha[e]) * alpha
            cbar[e] = 0.0
            self._apply_pivot(sigma[e], rest / gain[e], w, r, not rise)
            self.phase1_pivots += 1
            self._track_progress(-float(self.cost @ self.x))
            if self.bland:  # stalled: perturb the costs and price again
                self._perturb()
                priced_at = -1
        return Status.ITERATION_LIMIT

    def _perturb(self) -> None:
        """Move the private cost of every movable nonbasic column by about
        ``1e-7 (1 + |c_j|)`` to the side its reduced cost already has, which
        keeps the basis dual feasible and breaks the ties that stall the
        dual simplex; phase 2 prices the true costs again."""
        if self.cost is self.cmax:
            self.cost = self.cmax.copy()
        step = 1e-7 * (1.0 + np.abs(self.cmax))
        move = ~(self.inb | self.fixed)
        self.cost[move] += np.where(self.atup, step, -step)[move]
        self._reset_progress()

    def _bound_flipping_ratio_test(
        self, cand: np.ndarray, gain: np.ndarray, cbar: np.ndarray, viol: float
    ):
        """Walk the breakpoints of the candidate columns in dual ratio order
        ``|cbar_j| / gain_j``, ties to the larger gain.  A boxed column whose
        whole range leaves more than ``ftol`` of the violation is passed; the
        first one that would use the violation up, or is unboxed, enters.

        Returns the passed columns, the entering column (None when every
        candidate is passed: the row cannot be repaired) and the violation
        left for it."""
        cand = cand[np.lexsort((-gain[cand], np.abs(cbar[cand]) / gain[cand]))]
        left = viol - np.cumsum(gain[cand] * (self.u[cand] - self.l[cand]))
        k = int(np.count_nonzero(left > self.ftol))  # left only falls
        rest = float(left[k - 1]) if k else float(viol)
        if k == cand.size:
            return cand, None, rest
        return cand[:k], int(cand[k]), rest

    def run(self) -> SimplexResult:
        st = self._dual()  # OPTIMAL at once if the start is primal feasible
        if st is Status.OPTIMAL:
            st = self._phase2()
        return self._finish(st)

    def _flip(self, cols: np.ndarray) -> np.ndarray:
        """Move nonbasic boxed columns to their other bound; returns the
        move of each."""
        self.atup[cols] = ~self.atup[cols]
        to = np.where(self.atup[cols], self.u[cols], self.l[cols])
        step = to - self.x[cols]
        self.x[cols] = to
        return step

    def _finish(self, st: Status) -> SimplexResult:
        cbar, y = self._price(self.cmax)
        cbar[self.basic] = 0.0
        value = float(self.cmax @ self.x)
        if st is Status.UNBOUNDED:
            value = np.inf
        if st is Status.INFEASIBLE:
            value = np.nan
        if self.lp.sense == "min":
            value = -value
            cbar = -cbar
            y = -y
        basis = Basis(self.basic.copy(), self.atup.copy())
        return SimplexResult(
            status=st,
            value=value,
            x=self.x.copy(),
            basis=basis,
            reduced_costs=cbar,
            duals=y,
            pivots=self.pivots,
            phase1_pivots=self.phase1_pivots,
            farkas=self.farkas,
            factors=BasisFactors.from_inverse(self.a, basis, self.binv, self.updates),
        )
