"""Slack-augmented standard form and basis algebra.

The canonical model A'x >= b, x >= 0 becomes Ax = b with A = (-I A'):
slack variables occupy columns 0..m-1, structural variables columns
m..m+n-1, and the integer structural variables are the first p of those.
Every LP of the closure code solves one such system (``StandardLp``,
built by ``to_standard``), the master with its cuts appended: the rows
-x_j >= -u_j that only bound one column are read as column bounds
0 <= x_j <= u_j and drop out, and the other original rows stay.  Cuts
are read from the bases of that system, with the columns at a bound that
a dropped row sets complemented.  The oracles' LPs, the validity oracle's
fiber LPs included, solve that system too.  Only the pass start's trim
and the tests' canonical references build the matrix of every original
row.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .instances import NormalizedMilp

SINGULAR_TOL = 1e-10


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without running
    ``scipy/linalg/__init__.py``.  That import pulls in ``numpy.f2py`` and
    ``numpy.testing`` and costs about 0.2 s and 17 MiB; the package needs
    three routines.  These are the very objects
    ``scipy.linalg.get_lapack_funcs`` returns, so every result keeps its
    bits.  The module is not put in ``sys.modules``; a later
    ``import scipy.linalg`` still gets this same extension module."""
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK module _flapack is not in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()
_GETRF, _GETRS, _GEQP3 = _FLAPACK.dgetrf, _FLAPACK.dgetrs, _FLAPACK.dgeqp3


def pivoted_qr(a, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """R and the 0-based column order ``perm`` of a[:, perm] = Q R, with
    column pivoting (LAPACK dgeqp3); Q is never formed.  The steps and the
    bytes of ``scipy.linalg.qr(a, overwrite_a=..., pivoting=True,
    mode="r")``; ``overwrite_a`` lets dgeqp3 work in a Fortran-ordered
    ``a``."""
    a = np.asarray_chkfinite(a)
    if a.size == 0:
        return np.empty_like(a), np.arange(a.shape[1], dtype=np.int32)
    # a workspace query first, as scipy's safecall makes it
    work = _GEQP3(a, lwork=-1, overwrite_a=overwrite_a)[-2]
    lwork = work[0].real.astype(np.int_)
    qr, jpvt, _, _, info = _GEQP3(a, lwork=lwork, overwrite_a=overwrite_a)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqp3")
    jpvt -= 1  # 1-based in LAPACK
    return np.triu(qr), jpvt


class SingularBasisError(ValueError):
    pass


@dataclass
class Basis:
    """Ordered basic columns plus bound statuses of the nonbasic ones.

    ``basic[r]`` is the column basic in row r.  ``at_upper[j]`` only
    carries meaning while j is nonbasic (it defines the J+ / J- split).
    """

    basic: np.ndarray
    at_upper: np.ndarray

    def __post_init__(self):
        self.basic = np.asarray(self.basic, dtype=int)
        self.at_upper = np.asarray(self.at_upper, dtype=bool)

    @property
    def num_cols(self) -> int:
        return self.at_upper.shape[0]

    def copy(self) -> "Basis":
        return Basis(self.basic.copy(), self.at_upper.copy())

    def in_basis_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_cols, dtype=bool)
        mask[self.basic] = True
        return mask

    def position_of(self, col: int) -> int:
        pos = np.nonzero(self.basic == col)[0]
        if pos.size == 0:
            raise ValueError(f"column {col} is not basic")
        return int(pos[0])


@dataclass
class StandardLp:
    """The system Ax = b with A = (-I A') and c zero on slacks, with the
    column bounds 0 <= x_j <= u_j.

    Its rows are the original rows ``keep`` followed by any cut rows
    (``with_cuts``); the original rows ``bound_rows`` are read as the upper
    bounds ``upper`` of the structurals ``bound_cols`` instead
    (``to_standard``).
    """

    a: np.ndarray  # (m, m+n)
    b: np.ndarray  # (m,)
    c: np.ndarray  # (m+n,)
    num_struct: int
    num_int: int
    keep: np.ndarray  # original rows that stay rows, the first rows of A
    bound_rows: np.ndarray  # original rows read as bounds, ascending
    bound_cols: np.ndarray  # the structural column each of them bounds
    upper: np.ndarray  # (n,) structural upper bounds, inf where none

    @property
    def num_rows(self) -> int:
        return self.a.shape[0]

    @property
    def num_cols(self) -> int:
        return self.a.shape[1]

    @property
    def num_original_rows(self) -> int:
        return self.keep.size + self.bound_rows.size

    def struct_slice(self) -> slice:
        return slice(self.num_rows, self.num_rows + self.num_struct)

    def structural_part(self) -> np.ndarray:
        """A' as stored inside A (rows may include appended cut rows)."""
        return self.a[:, self.struct_slice()]

    def row_fingerprint(self) -> str:
        h = hashlib.sha1()
        h.update(self.structural_part().tobytes())
        h.update(self.b.tobytes())
        return h.hexdigest()[:16]

    def slack_basis(self) -> Basis:
        return Basis(np.arange(self.num_rows), np.zeros(self.num_cols, dtype=bool))

    def column_upper(self) -> np.ndarray:
        """Upper bounds of every column: slacks unbounded, then ``upper``."""
        return np.concatenate([np.full(self.num_rows, np.inf), self.upper])

    def integer_columns(self, complemented: np.ndarray) -> np.ndarray:
        """Mask over every column of the integer structurals, less the
        columns ``complemented`` in a tableau row: a complement u_j - x_j
        counts as continuous, like the bound-row slack it stands for."""
        mask = np.zeros(self.num_cols, dtype=bool)
        mask[self.num_rows : self.num_rows + self.num_int] = True
        mask[complemented] = False
        return mask

    def at_upper(self, basis: Basis, reduced_costs: np.ndarray) -> np.ndarray:
        """Mask over ``bound_cols`` of the columns nonbasic at their upper
        bound in ``basis``, a basis of this system.  A fixed column
        (u_j = 0) counts as at upper when its reduced cost (max sense) is
        positive, so the statuses of an optimal ``basis`` stay dual
        feasible.  These columns' complements u_j - x_j take the place of
        the bound-row slacks in a tableau row of the canonical rows."""
        j = self.num_rows + self.bound_cols
        nonbasic = ~basis.in_basis_mask()[j]
        fixed = self.upper[self.bound_cols] <= 0.0
        return nonbasic & np.where(fixed, reduced_costs[j] > 0.0, basis.at_upper[j])

    def with_cuts(self, cuts) -> "StandardLp":
        """This system with the cut rows alpha x >= beta appended after its
        rows, slack-augmented anew; the column bounds stay."""
        n = self.num_struct
        blocks, rhs = [self.structural_part()], [self.b]
        for cut in cuts:
            coeffs = np.asarray(cut.coeffs, dtype=float)
            if coeffs.shape[0] != n:
                raise ValueError("cut is not in structural space")
            blocks.append(coeffs.reshape(1, n))
            rhs.append(np.array([cut.rhs]))
        a_struct = np.vstack(blocks)
        m = a_struct.shape[0]
        return replace(
            self,
            a=np.hstack([-np.eye(m), a_struct]),
            b=np.concatenate(rhs),
            c=np.concatenate([np.zeros(m), self.c[self.num_rows :]]),
        )


@dataclass
class TableauRow:
    """One row of (A^B)^-1 A together with its right-hand side."""

    basic_col: int
    coeffs: np.ndarray  # full length m+n; basic columns are unit pattern
    rhs: float
    basic_cols: np.ndarray  # the basis's columns, whose cut coefficients are 0


def to_standard(nm: NormalizedMilp) -> StandardLp:
    """Slack-augment A'x >= b over the rows that are not bound rows, with
    the bound rows read as column bounds (``_bound_rows``).

    The system has the feasible set of the canonical one.  It is cut-free:
    separation always uses it as it is, so that generated cuts stay rank 1,
    and the master appends its cuts (``StandardLp.with_cuts``).
    """
    keep, rows, cols, upper = _bound_rows(nm)
    m = keep.size
    a = np.hstack([-np.eye(m), nm.a[keep]])
    c = np.concatenate([np.zeros(m), nm.objective])
    return StandardLp(
        a, nm.b[keep], c, nm.num_cols, nm.num_integer, keep, rows, cols, upper
    )


def _bound_rows(nm: NormalizedMilp):
    """Original rows -x_j >= -u_j read as column bounds 0 <= x_j <= u_j.

    A row is read as a bound when its only nonzero is -1 at column j and
    b_i <= 0, and on an integer column only when b_i is integral.  A
    fractional bound of an integer x_j stays a row: at the vertex
    x_j = u_j the membership LP would fix y_j, nonbasic, where the cut
    x_j <= floor(u_j) needs y_j basic and the bound row's slack nonbasic.
    When several rows bound one column, only the first is, and the others
    stay rows.  No basis is mapped between the two systems: pass starts
    are chosen over the kept rows (``closure._separation_start``), and cuts
    are read there (``membership.certificate_from_basis``).

    Returns the rows kept, the bound rows (ascending), the column each of
    them bounds and the structural upper bounds, inf where none.
    """
    a, b = nm.a, nm.b
    m, n = a.shape
    single = np.flatnonzero((np.count_nonzero(a, axis=1) == 1) & (b <= 0.0))
    cols = np.nonzero(a[single])[1]  # one per row, in row order
    bound = (a[single, cols] == -1.0) & (
        (cols >= nm.num_integer) | (b[single] == np.floor(b[single]))
    )
    single, cols = single[bound], cols[bound]
    cols, first = np.unique(cols, return_index=True)  # first row per column
    order = np.argsort(single[first])
    rows, cols = single[first][order], cols[order]
    upper = np.full(n, np.inf)
    upper[cols] = -b[rows]
    return np.setdiff1d(np.arange(m), rows), rows, cols, upper


class BasisFactors:
    """LU factors of A^B with an explicit singularity check.

    The one place a basis is factored: the simplex (its start and
    refactorizations), tableau rows and shared LP starts all go through
    it, and a basis that is no basis of ``a`` raises here.  It keeps the
    matrix and the basis it was built from, so ``simplex.solve`` can take
    it as a start and skip the factorization when the LP's matrix is that
    very array object.  ``from_inverse``
    wraps an explicit inverse the simplex already holds instead;
    ``updates`` counts the product-form updates that inverse carries
    since its last factorization (0 for LU factors).
    """

    updates = 0

    def __init__(self, a: np.ndarray, basis: Basis):
        m = a.shape[0]
        if basis.basic.shape != (m,):
            raise ValueError("basis size does not match row count")
        if m and not 0 <= basis.basic.min() <= basis.basic.max() < a.shape[1]:
            raise ValueError("basic column out of range")
        bmat = a[:, basis.basic]
        if m:
            # an exactly zero pivot sets getrf's info; the test below
            # catches it with every near-zero one
            lu, piv, _ = _GETRF(bmat)
        else:
            lu, piv = bmat, np.zeros(0, dtype=np.int32)
        diag = np.abs(np.diag(lu))
        scale = max(1.0, float(np.abs(bmat).max(initial=0.0)))
        if diag.size and diag.min() < SINGULAR_TOL * scale:
            raise SingularBasisError("basis matrix is numerically singular")
        self.a = a
        self.basis = basis
        self._lu = (lu, piv)
        self._inverse = None

    @classmethod
    def from_inverse(
        cls, a: np.ndarray, basis: Basis, inverse: np.ndarray, updates: int
    ) -> "BasisFactors":
        """Factors of ``basis`` given its explicit inverse: no LU runs, and
        solves multiply by the inverse."""
        self = cls.__new__(cls)
        self.a, self.basis = a, basis
        self._lu, self._inverse = None, inverse
        self.updates = updates
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs, 0)

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs, 1)

    def _solve(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        if not self.a.shape[0]:
            return np.zeros(np.shape(rhs))  # getrs rejects empty systems
        if self._lu is None:
            return (self._inverse.T if trans else self._inverse) @ rhs
        x, _ = _GETRS(*self._lu, rhs, trans=trans)
        return x

    def inverse(self) -> np.ndarray:
        """Explicit (A^B)^-1 in Fortran order, computed once; callers that
        update it must work on a copy."""
        if self._inverse is None:
            self._inverse = self.solve(np.eye(self.a.shape[0]))
        return self._inverse


def tableau_row(
    lp: StandardLp,
    basis: Basis,
    basic_col: int,
    factors: BasisFactors | None = None,
) -> TableauRow:
    """Row of (A^B)^-1 A for ``basic_col``, with rhs from (A^B)^-1 b.

    ``factors`` of the same ``lp.a`` and ``basis`` let several rows share
    one factorization.
    """
    pos = basis.position_of(basic_col)
    if factors is None:
        factors = BasisFactors(lp.a, basis)
    e = np.zeros(lp.num_rows)
    e[pos] = 1.0
    w = factors.solve_transpose(e)
    coeffs = w @ lp.a
    rhs = float(w @ lp.b)
    return TableauRow(
        basic_col=basic_col,
        coeffs=coeffs,
        rhs=rhs,
        basic_cols=basis.basic.copy(),
    )
