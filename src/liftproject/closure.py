"""Kelley cutting-plane loop over the membership separation oracle.

``optimize_closure`` drives the elementary-closure computation: solve the
master LP, separate the fractional integer coordinates of its optimum
through the membership LP, add the violated cuts (plain cuts for the
simple closure, strengthened cuts for the GMI closure approximation) and
repeat.  Separation always runs against the original rows only, so every
emitted cut is rank 1.  ``gmi_rounds`` is the textbook comparison
baseline: read GMI cuts straight from the optimal tableau of the growing
master, letting the rank increase round by round.

The master LP reads each bound row -x_j >= -u_j of the canonical form as
the column bound x_j <= u_j (``standard_form.to_standard``) and solves
over the other rows plus the cuts, so the dual simplex moves bounded
columns by bound flips.  The membership LP solves over the same system
without the cuts.  Separation starts are chosen from the
master's own basis over those kept rows; a variable whose last
separation ended with no cut starts from that LP's terminal factors
instead.  Every cut, GMI round or membership, is read from the basis of
the LP it comes from, with the columns at a bound that a dropped row
sets complemented (``cuts.complement``), by the one formula
``cuts.gmi_cut`` and mapped back by ``cuts.eliminate_slacks``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import membership, simplex
from .cuts import (
    DUPLICATE_TOL,
    FRAC_EPS_DEFAULT,
    CutRow,
    DynamismError,
    EmptyDisjunctionError,
    FractionalityError,
    complement,
    eliminate_slacks,
    gmi_cut,
    same_cut,
)
from .instances import NormalizedMilp
from .simplex import BoundedLp, SimplexResult, Status
from .standard_form import (
    Basis,
    BasisFactors,
    SingularBasisError,
    StandardLp,
    pivoted_qr,
    tableau_row,
    to_standard,
)

GAP_TOL = 1e-9
RANK_FILL = 1e-8  # QR weight of a zero-range column, relative to the largest
TAIL_WINDOW = 10  # master solves over which tailing off is measured
TAIL_TOL = 1e-4  # relative objective move below which the master tails off
MAX_ACTIVE_CUTS = 5000  # the loop stalls beyond this many active cuts
POOL_PARK_AFTER = 30  # consecutive slack solves before a cut is parked
POOL_SLACK_SCALE = 1e-7  # slack threshold = scale * (1 + max|b|)


class ClosureError(ValueError):
    """Relaxation unbounded or infeasible; no closure bound exists."""


@dataclass
class ClosureConfig:
    mode: str = "pestar"  # 'pe', 'pestar' or 'gmi'
    eps: float = FRAC_EPS_DEFAULT
    time_limit: float = 3600.0
    rounds: int = 1  # gmi mode only

    def __post_init__(self):
        if self.mode not in ("pe", "pestar", "gmi"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.eps < np.inf:  # NaN fails too
            raise ValueError("eps must be positive and finite")
        if self.eps >= 0.5:  # no coordinate lies farther from an integer
            raise ValueError("eps must be below 0.5")
        if self.mode != "gmi" and self.eps > 0.25:
            # a membership value is at least (f - 1) f >= -0.25: no cut
            raise ValueError("eps must be at most 0.25 in pe and pestar modes")
        if np.isnan(self.time_limit):
            raise ValueError("time_limit must be a number")
        if self.time_limit < 0:
            raise ValueError("time_limit must be non-negative")
        if not isinstance(self.rounds, (int, np.integer)):
            raise ValueError("rounds must be an integer")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")


@dataclass
class IterationLog:
    index: int
    objective: float  # master optimum, original sense
    separations: int
    cuts_found: int
    no_cuts: int
    inconclusive: int
    reactivated: int
    wall_time: float
    remembered: int = 0  # LPs started from the variable's own last factors
    reused: int = 0  # outcomes carried at an unchanged master point, no LP


@dataclass
class ClosureReport:
    instance: str
    mode: str
    z_lp: float
    z_cut: float | None
    z_opt: float | None
    gap_closed: float | None
    # 'proved' | 'time_limit' | 'stalled' | 'numerical' | 'rounds_done'
    termination: str
    termination_reason: str = ""  # why the loop stopped, in words
    iterations: list[IterationLog] = field(default_factory=list)
    num_master_solves: int = 0
    cuts_active: int = 0
    cuts_parked: int = 0
    master_pivots: int = 0
    master_phase1_pivots: int = 0  # dual simplex pivots
    separation_pivots: int = 0
    separation_phase1_pivots: int = 0  # dual simplex pivots
    master_time: float = 0.0
    separation_time: float = 0.0
    total_time: float = 0.0
    config: dict = field(default_factory=dict)
    cut_rows: list[CutRow] = field(default_factory=list, repr=False)
    x_final: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_separations(self) -> int:
        return sum(it.separations for it in self.iterations)

    @property
    def num_cuts(self) -> int:
        return sum(it.cuts_found for it in self.iterations)

    @property
    def num_no_cuts(self) -> int:
        return sum(it.no_cuts for it in self.iterations)

    @property
    def num_inconclusive(self) -> int:
        return sum(it.inconclusive for it in self.iterations)

    @property
    def num_remembered(self) -> int:
        return sum(it.remembered for it in self.iterations)

    @property
    def num_reused(self) -> int:
        return sum(it.reused for it in self.iterations)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "mode": self.mode,
            "z_lp": self.z_lp,
            "z_cut": self.z_cut,
            "z_opt": self.z_opt,
            "gap_closed": self.gap_closed,
            "termination": self.termination,
            "termination_reason": self.termination_reason,
            "iterations": len(self.iterations),
            "separations": {
                "total": self.num_separations,
                "cut": self.num_cuts,
                "no_cut": self.num_no_cuts,
                "inconclusive": self.num_inconclusive,
                "remembered": self.num_remembered,
                "reused": self.num_reused,
            },
            "cuts": {"active": self.cuts_active, "parked": self.cuts_parked},
            "pivots": {
                "master": self.master_pivots,
                "master_phase1": self.master_phase1_pivots,
                "separation": self.separation_pivots,
                "separation_phase1": self.separation_phase1_pivots,
                "total": self.master_pivots + self.separation_pivots,
            },
            "time": {
                "master": self.master_time,
                "separation": self.separation_time,
                "total": self.total_time,
            },
            "config": dict(self.config),
        }


def gap_closed(z_lp: float, z_cut: float, z_opt: float | None) -> float | None:
    """Percentage of the LP-to-optimum distance recovered by the bound.

    Returns None when no reference optimum is available.  When the
    instance has no integrality gap the convention is 100 provided the
    bound did not move either; anything else is undefined.
    """
    if z_opt is None:
        return None
    denom = z_opt - z_lp
    if abs(denom) <= GAP_TOL * (1.0 + abs(z_lp)):
        if abs(z_cut - z_lp) <= GAP_TOL * (1.0 + abs(z_lp)):
            return 100.0
        raise ValueError("reference optimum equals the LP bound; gap undefined")
    return float(min(100.0, max(0.0, 100.0 * (z_cut - z_lp) / denom)))


class CutPool:
    """Active and parked cuts with scale-free duplicate detection.

    All cuts of one pool live over the same structural columns.
    A cut whose master slack stays above the threshold for
    ``park_after`` consecutive solves is parked (dropped from the
    master but retained); parked cuts violated by a later master optimum
    are reactivated.
    """

    def __init__(self, slack_threshold: float, park_after: int):
        self.slack_threshold = slack_threshold
        self.park_after = park_after
        self.active: list[CutRow] = []
        self.parked: list[CutRow] = []
        self.inactivity: list[int] = []
        # every cut ever added, and row by row its normalized coefficients
        # and rhs
        self._cuts: list[CutRow] = []
        self._coeffs = np.empty((0, 0))
        self._rhs = np.empty(0)

    def _find(self, cut: CutRow, norm: CutRow) -> CutRow | None:
        """First stored cut that ``same_cut`` matches.  The prefilter is
        the comparison ``same_cut`` makes, over every stored cut at once."""
        if not self._cuts:
            return None
        near = (np.abs(self._rhs - norm.rhs) < DUPLICATE_TOL) & (
            np.abs(self._coeffs - norm.coeffs).max(axis=1) < DUPLICATE_TOL
        )
        for i in np.flatnonzero(near):
            if same_cut(cut, self._cuts[i]):
                return self._cuts[i]
        return None

    def add(self, cut: CutRow) -> str:
        """'added', 'duplicate_active' or 'reactivated' (was parked)."""
        norm = cut.normalized()
        existing = self._find(cut, norm)
        if existing is not None:
            if existing in self.parked:
                self.parked.remove(existing)
                self.active.append(existing)
                self.inactivity.append(0)
                return "reactivated"
            return "duplicate_active"
        row = norm.coeffs[None, :]
        self._coeffs = np.vstack([self._coeffs, row]) if self._cuts else row
        self._rhs = np.append(self._rhs, norm.rhs)
        self._cuts.append(cut)
        self.active.append(cut)
        self.inactivity.append(0)
        return "added"

    def maintain(self, x: np.ndarray, basis: Basis, num_base_rows: int, eps: float):
        """Update activity counters; park stale cuts; reactivate violated ones.

        Returns the number of cuts parked and reactivated.  Only cuts
        whose slack is basic in the current master basis are parked, so
        dropping their row keeps the remaining basis nonsingular.  The
        master's cut slacks follow its ``num_base_rows`` other rows.
        """
        in_basis = basis.in_basis_mask() if basis is not None else None
        keep: list[CutRow] = []
        keep_inact: list[int] = []
        parked_now = 0
        for i, cut in enumerate(self.active):
            slack = cut.coeffs @ x - cut.rhs
            if slack > self.slack_threshold:
                self.inactivity[i] += 1
            else:
                self.inactivity[i] = 0
            slack_col_basic = (
                in_basis is not None and in_basis[num_base_rows + i]
            )
            if self.inactivity[i] >= self.park_after and slack_col_basic:
                self.parked.append(cut)
                parked_now += 1
            else:
                keep.append(cut)
                keep_inact.append(self.inactivity[i])
        self.active = keep
        self.inactivity = keep_inact

        reactivated = 0
        still_parked: list[CutRow] = []
        for cut in self.parked:
            if cut.violation_at(x) > eps:
                self.active.append(cut)
                self.inactivity.append(0)
                reactivated += 1
            else:
                still_parked.append(cut)
        self.parked = still_parked
        return parked_now, reactivated


class _Master:
    """Master LP: the original rows that are not column bounds, the active
    cuts, and ``0 <= x <= u`` on the structurals.

    ``base``, the cut-free system of ``standard_form.to_standard``, reads
    each bound row -x_j >= -u_j as the column bound x_j <= u_j, so every
    bounded structural is boxed and the dual simplex moves it between its
    bounds by bound flips rather than basis changes.  The master solves
    over ``base`` with the cuts appended (``slp``); separation starts and
    GMI tableau rows are read from that system and ``basis``, and every
    membership LP solves over ``base``.
    """

    def __init__(self, nm: NormalizedMilp):
        self.nm = nm
        self.base = to_standard(nm)
        self.slp: StandardLp | None = None
        self.basis: Basis | None = None
        self.result = None
        self.pivots = 0
        self.phase1_pivots = 0
        self.solves = 0
        self.time = 0.0
        self._cuts: list[CutRow] = []

    def holds(self, cuts: list[CutRow]) -> bool:
        """Whether the last solve ran over exactly these cuts, in order."""
        return len(cuts) == len(self._cuts) and all(
            a is b for a, b in zip(cuts, self._cuts)
        )

    def solve(self, cuts: list[CutRow], time_limit: float | None = None):
        """Solve the master over the kept original rows and ``cuts``, from
        the previous optimal basis carried over by ``_remap_basis`` (dual
        feasible, so the simplex re-optimizes it by the dual simplex when
        the new cuts cut off the old optimum), or from the slack basis on
        the first solve, which the simplex makes dual feasible by moving
        the profitable bounded columns to their upper bounds.  A carried
        basis that does not factor gives way to the slack basis too."""
        t0 = time.perf_counter()
        old_slp = self.slp
        old_cuts = self._cuts
        self._cuts = list(cuts)
        self.slp = self.base.with_cuts(self._cuts)
        start = self.slp.slack_basis()
        if self.basis is not None and old_slp is not None:
            try:
                start = BasisFactors(self.slp.a, self._remap_basis(old_slp, old_cuts))
            except ValueError:  # no basis, singular included: start from the slacks
                pass
        lp = BoundedLp(
            sense="max",
            objective=self.slp.c,
            a_eq=self.slp.a,
            rhs=self.slp.b,
            lower=np.zeros(self.slp.num_cols),
            upper=self.slp.column_upper(),
        )
        self.result = simplex.solve(lp, start=start, time_limit=time_limit)
        self.basis = self.result.basis
        self.pivots += self.result.pivots
        self.phase1_pivots += self.result.phase1_pivots
        self.solves += 1
        self.time += time.perf_counter() - t0
        return self.result

    def _remap_basis(self, old_slp: StandardLp, old_cuts: list[CutRow]) -> Basis:
        """Carry the previous optimal basis over to the current row set.

        Original slacks keep their index, surviving cut slacks follow
        their cut's new row position, structural columns shift by the
        row-count delta and keep their bound statuses, and each genuinely
        new row enters with its own slack basic.  Dropped rows take their
        (basic) slack with them, so the carried basis stays square and
        nonsingular.  Every added or dropped row has its slack basic and a
        zero dual, so the reduced costs of the previous optimum carry over
        unchanged: the carried basis is dual feasible, and only the new
        cuts' slacks, negative where a cut is violated, make it primal
        infeasible.
        """
        m_old = old_slp.num_rows
        m_new = self.slp.num_rows
        m0 = self.base.num_rows
        new_pos = {id(cut): i for i, cut in enumerate(self._cuts)}
        basic = []
        for col in self.basis.basic:
            col = int(col)
            if col >= m_old:  # structural
                basic.append(col - m_old + m_new)
            elif col < m0:  # original slack
                basic.append(col)
            else:  # old cut slack: follow the cut, or vanish with its row
                pos = new_pos.get(id(old_cuts[col - m0]))
                if pos is not None:
                    basic.append(m0 + pos)
        old_ids = {id(c) for c in old_cuts}
        for i, cut in enumerate(self._cuts):
            if id(cut) not in old_ids:
                basic.append(m0 + i)
        at_upper = np.zeros(self.slp.num_cols, bool)
        at_upper[m_new:] = self.basis.at_upper[m_old:]
        return Basis(np.array(sorted(basic)), at_upper)


def _structural_point(slp: StandardLp, x: np.ndarray) -> np.ndarray:
    return x[slp.num_rows : slp.num_rows + slp.num_struct]


def optimize_closure(nm: NormalizedMilp, cfg: ClosureConfig) -> ClosureReport:
    """Optimize over the elementary closure (mode 'pe') or approximate the
    strengthened closure (mode 'pestar').

    Follows the cutting-plane scheme: keep a working list K of integer
    variables worth separating (all of them after a re-initialization),
    separate the fractional ones in increasing order of their value, add
    every violated cut at the end of the pass, and stop once a full pass
    produced no cut, which certifies the master optimum up to eps.
    Tailing off of the master objective forces a full pass.

    The loop remembers, for each integer variable, its last separation
    and the master solve it ran at; the record lives as long as this
    call.  A variable already separated at the current master point is
    not separated again: its outcome is reused.  A pass that finds no
    cut and parks nothing leaves the master's rows as they were, so the
    master is not re-solved and the next pass runs at the same point;
    the bound is proved once every fractional variable has a no-cut
    outcome there.  A variable whose last outcome was no-cut starts its
    next membership LP from that LP's terminal basis and inverse, which
    stay dual feasible because the LP keeps its matrix and costs; every
    other one starts from the master's optimal basis (see
    ``_run_separations``).  No LP of a pass depends on another LP of the
    same pass, nor on their order.
    """
    if cfg.mode == "gmi":
        return gmi_rounds(nm, cfg.rounds, cfg=cfg)
    t_start = time.perf_counter()
    p = nm.num_integer
    master = _Master(nm)
    # separation system: the cut-free original rows, always (rank 1)
    sep_fingerprint = master.base.row_fingerprint()
    pool = CutPool(
        slack_threshold=POOL_SLACK_SCALE
        * (1.0 + float(np.abs(nm.b).max(initial=0.0))),
        park_after=POOL_PARK_AFTER,
    )
    report = ClosureReport(
        instance=nm.name,
        mode=cfg.mode,
        z_lp=np.nan,
        z_cut=None,
        z_opt=None,
        gap_closed=None,
        termination="stalled",
        config=_config_dict(cfg),
    )

    def remaining() -> float:
        return cfg.time_limit - (time.perf_counter() - t_start)

    res = _solve_relaxation(master, remaining())
    report.z_lp = nm.original_objective(res.value)
    history = [res.value]

    K = set(range(p))
    reinit = True
    # k -> (master solve index, outcome) of k's last separation
    last: dict[int, tuple[int, membership.Separation]] = {}
    while True:
        iter_t0 = time.perf_counter()
        if time.perf_counter() - t_start > cfg.time_limit:
            termination, reason = "time_limit", _time_limit_reason(cfg)
            break
        xhat = _structural_point(master.slp, res.x)
        parked, reactivated = pool.maintain(
            xhat, master.basis, master.base.num_rows, cfg.eps
        )
        if reactivated:
            # master must honor reactivated rows before the next pass
            report.iterations.append(
                IterationLog(
                    index=len(report.iterations),
                    objective=nm.original_objective(res.value),
                    separations=0,
                    cuts_found=0,
                    no_cuts=0,
                    inconclusive=0,
                    reactivated=reactivated,
                    wall_time=time.perf_counter() - iter_t0,
                )
            )
            res = master.solve(pool.active, time_limit=remaining())
            if res.status is not Status.OPTIMAL:
                termination, reason = _master_ending(res, remaining())
                break
            history.append(res.value)
            continue

        pt, rejected = _checked_point(nm, xhat)
        if rejected:
            termination, reason = "numerical", rejected
            break
        fr = pt.fracs
        here = master.solves
        candidates = [
            k for k in sorted(K) if min(fr[k], 1.0 - fr[k]) >= cfg.eps
        ]
        # outcomes found at this point already are reused; none is a cut,
        # since a cut changes the rows and the master is solved again
        seen = {k for k in candidates if last.get(k, (None,))[0] == here}
        reused = [last[k][1] for k in sorted(seen)]
        order = sorted(set(candidates) - seen, key=lambda k: (pt.x[k], k))
        K = set()

        assert master.base.row_fingerprint() == sep_fingerprint  # rank-1 discipline
        outcomes, remembered, pass_time, timed_out = _run_separations(
            pt, order, master, cfg, t_start, last
        )
        report.separation_time += pass_time

        n_cut = n_nocut = n_inconcl = 0
        new_rows = 0
        for k, sep in outcomes:
            report.separation_pivots += sep.pivots
            report.separation_phase1_pivots += sep.phase1_pivots
            if sep.found:
                n_cut += 1
                K.add(k)
                cut = sep.strengthened if cfg.mode == "pestar" else sep.plain
                if pool.add(cut) != "duplicate_active":
                    new_rows += 1
            elif sep.inconclusive:
                n_inconcl += 1
            else:
                n_nocut += 1
        report.iterations.append(
            IterationLog(
                index=len(report.iterations),
                objective=nm.original_objective(res.value),
                separations=len(outcomes),
                cuts_found=n_cut,
                no_cuts=n_nocut,
                inconclusive=n_inconcl,
                reactivated=0,
                wall_time=time.perf_counter() - iter_t0,
                remembered=remembered,
                reused=len(reused),
            )
        )
        outcomes.clear()  # factors the next pass replaces must not outlive it
        # an inconclusive outcome at this point still bars a proof
        n_inconcl += sum(sep.inconclusive for sep in reused)

        if timed_out:
            termination, reason = "time_limit", _time_limit_reason(cfg)
            break
        if not K and reinit:
            if n_inconcl == 0:
                termination, reason = "proved", "a full pass found no violated cut"
            else:
                termination = "stalled"
                reason = f"{n_inconcl} inconclusive separations in a full pass"
            break
        if K and new_rows == 0:
            # every violated cut already sits in the master: no progress
            # is possible, an honest stall
            termination, reason = "stalled", "every violated cut already active"
            break
        if len(pool.active) > MAX_ACTIVE_CUTS:
            termination = "stalled"
            reason = f"more than {MAX_ACTIVE_CUTS} active cuts"
            break

        if not K or _tailing_off(history):
            K = set(range(p))
            reinit = True
        else:
            reinit = False

        if master.holds(pool.active):
            # no cut found and nothing parked: the next pass runs here
            history.append(res.value)
            continue
        res = master.solve(pool.active, time_limit=remaining())
        if res.status is not Status.OPTIMAL:
            termination, reason = _master_ending(res, remaining())
            break
        history.append(res.value)

    report.termination = termination
    report.termination_reason = reason
    return _finish_report(
        report, nm, master, history, t_start, pool.active, pool.parked
    )


def _solve_relaxation(master: _Master, time_limit: float) -> SimplexResult:
    """First master solve, without cuts; no optimum means no bound."""
    res = master.solve([], time_limit=max(time_limit, 1.0))
    if res.status is Status.UNBOUNDED:
        raise ClosureError("LP relaxation is unbounded")
    if res.status is not Status.OPTIMAL:
        raise ClosureError(f"LP relaxation not solved: {res.status.value}")
    return res


def _master_ending(res: SimplexResult, remaining: float) -> tuple[str, str]:
    """Termination and reason for a master solve without an optimum.

    Valid cuts that empty the master leave no integer point, so nothing is
    left to separate and the bound is proved.
    """
    reason = f"master LP {res.status.value}"
    if res.status is Status.INFEASIBLE:
        return "proved", reason + ": no integer point survives the cuts"
    return ("time_limit" if remaining <= 0 else "stalled"), reason


def _time_limit_reason(cfg: ClosureConfig) -> str:
    return f"time limit of {cfg.time_limit:g} s reached"


def _checked_point(
    nm: NormalizedMilp, xhat: np.ndarray
) -> tuple[membership.FractionalPoint | None, str | None]:
    """The master vertex as a ``FractionalPoint``, or None and the reason
    a run ends ``numerical``: the vertex violates the original rows or
    x >= 0 beyond the check's absolute tolerance (badly scaled rows, or a
    feasibility tolerance that a big bound grew)."""
    try:
        return membership.FractionalPoint.from_point(nm, xhat, tol=1e-6), None
    except ValueError as exc:
        return None, f"master optimum rejected: {exc}"


def _finish_report(
    report: ClosureReport,
    nm: NormalizedMilp,
    master: _Master,
    history: list[float],
    t_start: float,
    active: list[CutRow],
    parked: list[CutRow],
) -> ClosureReport:
    report.z_cut = nm.original_objective(history[-1])
    if master.result.status is Status.OPTIMAL:
        report.x_final = _structural_point(master.slp, master.result.x)
    report.num_master_solves = master.solves
    report.master_pivots = master.pivots
    report.master_phase1_pivots = master.phase1_pivots
    report.master_time = master.time
    report.cuts_active = len(active)
    report.cuts_parked = len(parked)
    report.cut_rows = [*active, *parked]
    report.total_time = time.perf_counter() - t_start
    return report


def _separation_start(master: _Master, pt: membership.FractionalPoint) -> Basis:
    """The master's optimal basis carried over to the kept rows of the
    cut-free system, which every membership LP of the pass solves over.

    Cut slacks drop out, and each bounded column nonbasic at its upper
    bound in the master (``StandardLp.at_upper``) stays there.  With
    every cut slack basic, the columns left form a basis whose solution is
    y = f * xhat: primal feasible for every k.  Each cut whose slack is
    nonbasic leaves one basic column too many.  The columns kept are then
    those pivoted QR keeps among the master vertex's basic columns over
    the canonical rows (-I A'): the basic kept-row slacks and structurals,
    the structurals at their upper bound and the slack of every other
    bound row, each scaled by its membership range (xhat_j, or the row
    activity for a slack), so the columns pinned to 0 there go first.  A
    bound row whose column is neither basic nor at its upper bound holds
    only its own slack, a column orthogonal to every other: the QR always
    keeps it and it changes no other choice, so that row and slack are set
    aside.  Only the rest is built, in Fortran order, a slack's column the
    negated unit column (zeros negative, as in -I), and it is weighted and
    factored in place.  On the kept rows, a dropped kept-row slack or
    structural leaves the basis at 0, and a basic column whose bound-row
    slack was dropped leaves it at its upper bound.  Every nonbasic column
    is boxed there, so the simplex moves each one whose reduced cost
    favors its other bound and solves by the dual simplex.  A QR over the
    kept rows alone keeps other columns, which cost more pivots.
    """
    slp, nm = master.slp, master.nm
    keep, bound_rows, bound_cols = slp.keep, slp.bound_rows, slp.bound_cols
    m0, n = nm.a.shape
    in_basis = master.basis.in_basis_mask()
    # the candidates: the master vertex's columns over the canonical rows
    cand = np.zeros(m0 + n, dtype=bool)
    cand[keep] = in_basis[: keep.size]
    cand[m0:] = in_basis[-n:]
    cand[bound_rows] = cand[m0 + bound_cols]
    rc = master.result.reduced_costs
    cand[m0 + bound_cols[slp.at_upper(master.basis, rc)]] = True
    rows = np.ones(m0, dtype=bool)
    rows[bound_rows] = cand[m0 + bound_cols]  # the others hold only their slack
    if np.count_nonzero(cand) > np.count_nonzero(rows):
        ranges = np.concatenate([pt.activities, pt.x])
        # the floor counts the set-aside slacks' ranges too
        top = max(ranges[cand].max(), pt.activities[~rows].max(initial=1.0))
        cols, rows = np.flatnonzero(cand), np.flatnonzero(rows)
        s = np.count_nonzero(cols < m0)  # slack columns come first
        matrix = np.full((rows.size, cols.size), -0.0, order="F")
        matrix[np.searchsorted(rows, cols[:s]), np.arange(s)] = -1.0
        matrix[:, s:] = nm.a[rows][:, cols[s:] - m0]
        # columns with no range only fill out the rank
        matrix *= np.maximum(ranges[cols], RANK_FILL * top)
        _, perm = pivoted_qr(matrix, overwrite_a=True)
        cand[:] = False
        cand[cols[perm[: rows.size]]] = True
    struct = cand[m0:]
    # a basic column whose bound-row slack is not basic sits at its upper bound
    up = bound_cols[struct[bound_cols] & ~cand[bound_rows]]
    struct[up] = False
    at_upper = np.zeros(keep.size + n, dtype=bool)
    at_upper[keep.size + up] = True
    return Basis(np.flatnonzero(np.concatenate([cand[keep], struct])), at_upper)


def _run_separations(pt, order, master, cfg, t_start, last):
    """Separate every k in ``order`` over ``master.base``, whose kept rows
    every membership LP of the call shares.  A k whose last separation ended
    no-cut (``last[k]``, see ``optimize_closure``) starts from that LP's
    terminal factors.  Every other k starts from the master's optimal
    basis carried over to the kept rows (``_separation_start``), built and
    factored once, when the first LP of the pass needs it.  A singular one
    gives way to the slack basis of the kept rows, -I, always nonsingular.

    Records each outcome in ``last`` as it comes.  Returns the outcomes
    in pass order, how many LPs started from their own factors, the time
    spent and whether the time limit cut the pass short.
    """
    outcomes: list[tuple[int, membership.Separation]] = []
    remembered = 0
    t0 = time.perf_counter()

    @functools.cache
    def pass_start() -> BasisFactors:
        try:
            return BasisFactors(master.base.a, _separation_start(master, pt))
        except SingularBasisError:
            return BasisFactors(master.base.a, master.base.slack_basis())

    for k in order:
        budget = cfg.time_limit - (time.perf_counter() - t_start)
        if budget <= 0:
            return outcomes, remembered, time.perf_counter() - t0, True
        start = last[k][1].factors if k in last else None
        if start is None:
            start = pass_start()
        else:
            remembered += 1
        sep = membership.separate(
            master.base, pt, k, start=start, eps=cfg.eps, time_limit=budget
        )
        last[k] = (master.solves, sep)  # drops k's earlier factors
        outcomes.append((k, sep))
    return outcomes, remembered, time.perf_counter() - t0, False


def _tailing_off(history: list[float]) -> bool:
    w = TAIL_WINDOW
    if len(history) <= w:
        return False
    improvement = history[-w - 1] - history[-1]  # non-increasing sequence
    return improvement < TAIL_TOL * (1.0 + abs(history[-w - 1]))


def gmi_rounds(
    nm: NormalizedMilp, rounds: int, cfg: ClosureConfig | None = None
) -> ClosureReport:
    """Textbook GMI scheme: each round reads one cut per fractional basic
    integer variable from the optimal tableau of the current master.

    Cuts from earlier rounds stay in the master used for generation, so
    the cut rank grows with the round number (unlike the closure loop,
    which only ever separates against the original rows).  The tableau is
    the master's own with each column at its upper bound complemented
    (``StandardLp.at_upper``), which makes its rows those of the
    canonical rows plus cuts; the complement counts as continuous, like
    the bound-row slack it stands for (``StandardLp.integer_columns``),
    and ``cuts.eliminate_slacks`` maps each cut back over x_j.  A
    master basis that does not factor ends the rounds ``numerical``.
    """
    if cfg is None:
        cfg = ClosureConfig(mode="gmi", rounds=rounds)
    t_start = time.perf_counter()
    master = _Master(nm)
    cuts: list[CutRow] = []
    report = ClosureReport(
        instance=nm.name,
        mode="gmi",
        z_lp=np.nan,
        z_cut=None,
        z_opt=None,
        gap_closed=None,
        termination="rounds_done",
        termination_reason=f"round limit {rounds} reached",
        config={**_config_dict(cfg), "rounds": rounds},
    )
    res = _solve_relaxation(master, cfg.time_limit)
    report.z_lp = nm.original_objective(res.value)
    history = [res.value]

    for r in range(rounds + 1):
        # every master vertex is checked, the one the last round ends at too
        xhat = _structural_point(master.slp, res.x)
        _, rejected = _checked_point(nm, xhat)
        if rejected:
            report.termination, report.termination_reason = "numerical", rejected
            break
        if r == rounds:
            break
        round_t0 = time.perf_counter()
        if time.perf_counter() - t_start > cfg.time_limit:
            report.termination = "time_limit"
            report.termination_reason = _time_limit_reason(cfg)
            break
        slp, basis = master.slp, master.basis
        m = slp.num_rows
        flip = m + slp.bound_cols[slp.at_upper(basis, res.reduced_costs)]
        fr = xhat[: nm.num_integer] - np.floor(xhat[: nm.num_integer])
        targets = [
            k
            for k in range(nm.num_integer)
            if min(fr[k], 1.0 - fr[k]) >= cfg.eps and np.any(basis.basic == m + k)
        ]
        added = 0
        try:
            factors = BasisFactors(slp.a, basis) if targets else None
        except SingularBasisError as exc:  # say, one row scaled far above the rest
            report.termination = "numerical"
            report.termination_reason = f"round {r + 1} tableau: {exc!r}"
            break
        for k in targets:
            row = tableau_row(slp, basis, m + k, factors)
            complement(row, slp, flip)
            try:
                full = gmi_cut(row, slp.integer_columns(flip), eps=cfg.eps)
                cut = eliminate_slacks(full, slp, flip)
            except (FractionalityError, DynamismError, EmptyDisjunctionError):
                continue
            if not any(same_cut(cut, c) for c in cuts):
                cuts.append(cut)
                added += 1
        report.iterations.append(
            IterationLog(
                index=len(report.iterations),
                objective=nm.original_objective(res.value),
                separations=len(targets),
                cuts_found=added,
                no_cuts=len(targets) - added,
                inconclusive=0,
                reactivated=0,
                wall_time=time.perf_counter() - round_t0,
            )
        )
        if added == 0:
            report.termination_reason = f"round {r + 1} added no new cut"
            break
        budget = cfg.time_limit - (time.perf_counter() - t_start)
        res = master.solve(cuts, time_limit=budget)
        if res.status is not Status.OPTIMAL:
            # valid cuts that empty the region end the rounds as done
            ending, report.termination_reason = _master_ending(res, budget)
            if res.status is not Status.INFEASIBLE:
                report.termination = ending
            break
        history.append(res.value)

    return _finish_report(report, nm, master, history, t_start, cuts, [])


def _config_dict(cfg: ClosureConfig) -> dict:
    return {
        "mode": cfg.mode,
        "eps": cfg.eps,
        "time_limit": cfg.time_limit,
        "tail_window": TAIL_WINDOW,
        "tail_tol": TAIL_TOL,
        "max_active_cuts": MAX_ACTIVE_CUTS,
        "pool_park_after": POOL_PARK_AFTER,
    }
