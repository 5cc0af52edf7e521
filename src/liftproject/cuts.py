"""The cut formula and slack elimination into the structural space.

``gmi_cut`` is the one formula: over no integer column it is the
intersection cut.  A tableau row read from a system that keeps some
variables as column bounds is read with its at-bound columns complemented
(``complement``); each complement counts as continuous, like the bound-row
slack s_i = u_j - x_j it stands for (``StandardLp.integer_columns``), and
``eliminate_slacks`` maps the cut back over x_j.

Conventions: a cut is alpha x >= beta.  Cuts read from a tableau row live
over all slack+structural columns until ``eliminate_slacks`` substitutes
s_i = A'_i x - b_i; structural-space cuts are normalized to max|alpha| = 1
before they are stored or compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .standard_form import StandardLp, TableauRow

FRAC_EPS_DEFAULT = 1e-4  # the package's default eps: least fractionality and depth
DYNAMISM_LIMIT = 1e8  # max|alpha| / min nonzero |alpha| rejection
ZERO_COEF_TOL = 1e-12
DUPLICATE_TOL = 1e-7


class FractionalityError(ValueError):
    """Tableau right-hand side is integral within tolerance; no cut."""


class EmptyDisjunctionError(ValueError):
    """All row coefficients vanish with a fractional rhs: the relaxation
    region is empty on the disjunction (0 >= f0(1-f0) is unsatisfiable)."""


class DynamismError(ValueError):
    """Cut coefficient spread exceeds the numerical-hygiene limit."""


@dataclass(eq=False)  # identity semantics: pools track cut objects
class CutRow:
    """Sparse-in-spirit inequality alpha x >= beta over a known column set.

    ``space`` is 'structural' (length n, pool-ready) or 'full' (length
    m+n, pre-elimination).  Value equality is deliberately not defined;
    use ``same_cut`` for the scale-free mathematical comparison.
    """

    coeffs: np.ndarray
    rhs: float
    space: str = "structural"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if not np.any(np.abs(self.coeffs) > ZERO_COEF_TOL):
            raise EmptyDisjunctionError(
                "cut has no nonzero coefficient; the disjunction admits no "
                "relaxation point"
            )

    def normalized(self) -> "CutRow":
        scale = float(np.abs(self.coeffs).max())
        cut = CutRow.__new__(CutRow)
        cut.coeffs = self.coeffs / scale
        cut.rhs = self.rhs / scale
        cut.space = self.space
        # the largest coefficient must be exactly +-1 after scaling
        k = int(np.argmax(np.abs(cut.coeffs)))
        cut.coeffs[k] = math.copysign(1.0, cut.coeffs[k])
        return cut

    def dynamism(self) -> float:
        mags = np.abs(self.coeffs)
        nz = mags[mags > ZERO_COEF_TOL]
        return float(nz.max() / nz.min())

    def violation_at(self, x: np.ndarray) -> float:
        return float(self.rhs - self.coeffs @ x)


def same_cut(a: CutRow, b: CutRow, tol: float = DUPLICATE_TOL) -> bool:
    """Scale-free equality: compare after max-norm normalization."""
    if a.coeffs.shape != b.coeffs.shape:
        return False
    na, nb = a.normalized(), b.normalized()
    return (
        float(np.abs(na.coeffs - nb.coeffs).max()) < tol
        and abs(na.rhs - nb.rhs) < tol
    )


def _fractional_parts(row: TableauRow, eps: float):
    f0 = row.rhs - math.floor(row.rhs)
    if min(f0, 1.0 - f0) < eps:
        raise FractionalityError(
            f"tableau rhs {row.rhs} is integral within eps={eps}"
        )
    return f0


def gmi_cut(
    row: TableauRow,
    integer_cols: np.ndarray | None = None,
    *,
    eps: float = FRAC_EPS_DEFAULT,
) -> CutRow:
    """Gomory mixed-integer cut from a tableau row, in the full space.

    Nonbasic column j receives max{a_j (1-f0), -a_j f0}, the intersection
    cut of the unit interval around the rhs; integer nonbasic columns
    (``integer_cols``, none by default) use the rounded coefficients
    f_j (1-f0) when f_j <= f0, else (1-f_j) f0, which dominate it.  The
    rhs is f0 (1-f0); all basic columns (including the source row's
    variable) get zero: the cut is a statement about nonbasic variables.
    Over no integer column this is the intersection cut.
    """
    f0 = _fractional_parts(row, eps)
    coeffs = np.maximum(row.coeffs * (1.0 - f0), -row.coeffs * f0)
    if integer_cols is not None:
        mask = np.asarray(integer_cols, dtype=bool).copy()
        mask[row.basic_col] = False
        fj = row.coeffs[mask] - np.floor(row.coeffs[mask])
        coeffs[mask] = np.where(fj <= f0, fj * (1.0 - f0), (1.0 - fj) * f0)
    coeffs[row.basic_col] = 0.0
    coeffs[row.basic_cols] = 0.0
    return CutRow(coeffs=coeffs, rhs=f0 * (1.0 - f0), space="full")


def complement(row, lp: StandardLp, cols: np.ndarray) -> None:
    """Substitute x_j = u_j - xbar_j for the columns ``cols`` of ``lp``,
    with their upper bounds u_j, in ``row`` (a tableau row or a full-space
    cut), in place; a second call undoes it."""
    row.rhs -= float(row.coeffs[cols] @ lp.upper[cols - lp.num_rows])
    row.coeffs[cols] *= -1.0


def eliminate_slacks(cut: CutRow, lp: StandardLp, complemented=()) -> CutRow:
    """Substitute s_i = A'_i x - b_i and return a normalized structural cut.

    A full-space cut read from a tableau row with the columns
    ``complemented`` complemented (``complement``) is first mapped back
    over x_j, on a copy.  Already-structural cuts are returned unchanged up
    to normalization, which makes the operation idempotent.
    """
    m = lp.num_rows
    if cut.space == "structural":
        out = cut
    else:
        if len(complemented):
            cut = CutRow(coeffs=cut.coeffs.copy(), rhs=cut.rhs, space="full")
            complement(cut, lp, complemented)
        gamma = cut.coeffs[:m]
        alpha = cut.coeffs[m:].copy()
        alpha += gamma @ lp.structural_part()
        beta = cut.rhs + float(gamma @ lp.b)
        out = CutRow(coeffs=alpha, rhs=beta, space="structural")
    out = out.normalized()
    if out.dynamism() > DYNAMISM_LIMIT:
        raise DynamismError(
            f"cut dynamism {out.dynamism():.3e} exceeds {DYNAMISM_LIMIT:.0e}"
        )
    return out

