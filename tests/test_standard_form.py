from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from liftproject.cuts import CutRow
from liftproject.standard_form import (
    Basis,
    BasisFactors,
    SingularBasisError,
    StandardLp,
    tableau_row,
    to_standard,
)


def canonical(nm, cuts=()):
    """The canonical reference: every original row kept as a row, then
    ``cuts``; no row is read as a bound, and ``upper`` is all inf."""
    m, n = nm.a.shape
    none = np.zeros(0, dtype=int)
    base = StandardLp(
        a=np.hstack([-np.eye(m), nm.a]),
        b=np.array(nm.b, dtype=float),
        c=np.concatenate([np.zeros(m), nm.objective]),
        num_struct=n,
        num_int=nm.num_integer,
        keep=np.arange(m),
        bound_rows=none,
        bound_cols=none,
        upper=np.full(n, np.inf),
    )
    return base.with_cuts(cuts) if cuts else base


def basic_point(lp, basis):
    """Primal basic solution of the standard system, nonbasics at zero:
    a ``StandardLp`` carries only the implicit bounds x >= 0, whatever
    statuses ``basis`` records."""
    x = np.zeros(lp.num_cols)
    x[basis.basic] = BasisFactors(lp.a, basis).solve(lp.b)
    return x


def canonical_columns(slp, basis, reduced_costs):
    """Basic columns, ascending, of the cut-free canonical system at the
    vertex of ``basis``, a basis of ``slp``, the kept rows plus cuts.

    Kept-row slacks and structurals keep their columns; cut slacks have
    none there and are dropped.  For the row i that bounds x_j, x_j is
    basic if it sits at its upper bound (``at_upper``), and slack i
    otherwise, so row i holds one basic column of its own.
    """
    m0, m, n = slp.num_original_rows, slp.num_rows, slp.num_struct
    to_canonical = np.concatenate(
        [slp.keep, np.full(m - slp.keep.size, -1), m0 + np.arange(n)]
    )
    up = slp.at_upper(basis, reduced_costs)
    basic = to_canonical[basis.basic]
    return np.sort(
        np.concatenate(
            [basic[basic >= 0], m0 + slp.bound_cols[up], slp.bound_rows[~up]]
        )
    )


def kept_basis(slp, basis):
    """A basis of the cut-free canonical rows mapped onto the kept rows of
    ``slp``.

    Bound-row slacks have no column there and are dropped.  For the row
    i that bounds x_j, a basic x_j whose slack i is nonbasic leaves the
    basis for the bound that slack sets: its upper bound when slack i
    sits at 0, its lower bound when slack i sits at its upper bound.
    Every other column keeps its role and status.  Row i held x_j or
    slack i or both, so the columns left form a basis, and wherever its
    basic point lies inside the kept system's bounds it is the canonical
    basic point.
    """
    m, m0, n = slp.num_original_rows, slp.keep.size, slp.num_struct
    rows, cols = slp.bound_rows, slp.bound_cols
    in_basis = basis.in_basis_mask()
    leave = in_basis[m + cols] & ~in_basis[rows]
    at_upper = np.concatenate([basis.at_upper[slp.keep], basis.at_upper[m:]])
    at_upper[m0 + cols[leave]] = ~basis.at_upper[rows[leave]]
    to_kept = np.full(m + n, -1)
    to_kept[slp.keep] = np.arange(m0)
    to_kept[m:] = m0 + np.arange(n)
    to_kept[m + cols[leave]] = -1
    basic = to_kept[basis.basic]
    return Basis(basic[basic >= 0], at_upper)


def t1_optimal_basis(slp):
    # structural columns basic, both slacks nonbasic at zero
    return Basis(np.array([2, 3]), np.zeros(slp.num_cols, dtype=bool))


def test_to_standard_shape_and_blocks(t1):
    slp = to_standard(t1)
    assert slp.a.shape == (2, 4)
    np.testing.assert_allclose(slp.a[:, :2], -np.eye(2))
    np.testing.assert_allclose(slp.a[:, 2:], t1.a)
    np.testing.assert_allclose(slp.c, [0.0, 0.0, 0.0, 1.0])
    assert slp.num_int == 1


def test_to_standard_with_cut_row(t1):
    cut = CutRow(coeffs=np.array([0.0, -2.0]), rhs=0.0)
    slp = to_standard(t1).with_cuts([cut])
    assert slp.a.shape == (3, 5)
    np.testing.assert_allclose(slp.a[2, 3:], [0.0, -2.0])
    np.testing.assert_allclose(slp.a[:, :3], -np.eye(3))
    assert slp.b[2] == 0.0


def test_with_cuts_appends_rows_after_the_kept_rows():
    # rows 0 and 2 only bound a column: they become column bounds, and the
    # cut rows follow the one kept row as in the system of every row that
    # holds the kept row and the cuts; the column bounds carry over
    nm = SimpleNamespace(
        a=np.array([[-1.0, 0.0], [2.0, 1.0], [0.0, -1.0]]),
        b=np.array([-3.0, 1.0, -2.5]),
        objective=np.array([1.0, 1.0]),
        num_integer=1,
        num_cols=2,
    )
    base = to_standard(nm)
    assert (base.keep.tolist(), base.bound_rows.tolist()) == ([1], [0, 2])
    assert base.bound_cols.tolist() == [0, 1] and base.num_original_rows == 3
    cut = CutRow(coeffs=np.array([1.0, -1.0]), rhs=-2.0)
    slp = base.with_cuts([cut])
    kept = SimpleNamespace(**{**vars(nm), "a": nm.a[[1]], "b": nm.b[[1]]})
    want = canonical(kept, [cut])
    for name in ("a", "b", "c"):
        assert getattr(slp, name).tobytes() == getattr(want, name).tobytes()
    for name in ("keep", "bound_rows", "bound_cols", "upper"):
        assert getattr(slp, name) is getattr(base, name)
    assert slp.column_upper().tolist() == [np.inf, np.inf, 3.0, 2.5]
    assert base.num_rows == 1


def test_to_standard_idempotent(t1):
    a1 = to_standard(t1).with_cuts([])
    a2 = to_standard(t1).with_cuts([])
    np.testing.assert_array_equal(a1.a, a2.a)
    np.testing.assert_array_equal(a1.b, a2.b)
    assert a1.row_fingerprint() == a2.row_fingerprint()


def test_tableau_row_t1_optimal_basis(t1):
    slp = to_standard(t1)
    row = tableau_row(slp, t1_optimal_basis(slp), 2)
    # x1 + 0.25 s1 - 0.25 s2 = 0.5
    np.testing.assert_allclose(row.coeffs, [0.25, -0.25, 1.0, 0.0], atol=1e-12)
    assert row.rhs == pytest.approx(0.5)


def test_tableau_row_slack_basis_reproduces_rows(t1):
    slp = to_standard(t1)
    basis = slp.slack_basis()
    for i in range(slp.num_rows):
        row = tableau_row(slp, basis, i)
        # slack basis has A^B = -I: the row is -(row i of A) with rhs -b_i
        np.testing.assert_allclose(row.coeffs[2:], -t1.a[i], atol=1e-12)
        assert row.rhs == pytest.approx(-t1.b[i])


def test_tableau_row_requires_basic_index(t1):
    slp = to_standard(t1)
    with pytest.raises(ValueError, match="not basic"):
        tableau_row(slp, t1_optimal_basis(slp), 0)


def test_basic_point_t1(t1):
    slp = to_standard(t1)
    x = basic_point(slp, t1_optimal_basis(slp))
    np.testing.assert_allclose(x, [0.0, 0.0, 0.5, 1.0], atol=1e-12)
    x0 = basic_point(slp, slp.slack_basis())
    np.testing.assert_allclose(x0, [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_singular_basis_rejected(t1):
    slp = to_standard(t1)
    # two parallel slack-free columns: x2 column twice is impossible, use
    # a duplicated slack instead: columns 0 and 0 cannot form a basis
    with pytest.raises(Exception):
        Basis(np.array([0, 0]), np.zeros(4, bool))
        tableau_row(slp, Basis(np.array([3, 3]), np.zeros(4, bool)), 3)


def test_random_bases_satisfy_system(rng):
    # random instances, random nonsingular bases: A x = b within tolerance
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        a_struct = rng.integers(-5, 6, size=(m, n)).astype(float)
        b = rng.integers(-5, 6, size=m).astype(float)

        class NM:
            pass

        nm = NM()
        nm.a, nm.b = a_struct, b
        nm.objective = np.zeros(n)
        nm.num_integer = 1
        nm.num_cols = n
        slp = canonical(nm)
        cols = rng.permutation(slp.num_cols)[:m]
        basis = Basis(np.array(sorted(cols)), np.zeros(slp.num_cols, bool))
        try:
            x = basic_point(slp, basis)
        except SingularBasisError:
            continue
        resid = np.abs(slp.a @ x - slp.b).max()
        assert resid <= 1e-8 * (1.0 + np.abs(b).max())


def test_tableau_columns_consistent(t1, rng):
    # A^B abar_col = A^j columnwise
    slp = to_standard(t1)
    basis = t1_optimal_basis(slp)
    bmat = slp.a[:, basis.basic]
    rows = [tableau_row(slp, basis, int(c)) for c in basis.basic]
    abar = np.vstack([r.coeffs for r in rows])
    np.testing.assert_allclose(bmat @ abar, slp.a, atol=1e-8)


def test_basis_factors_match_scipy_lu(rng):
    # the direct LAPACK calls give the bytes of scipy's lu_factor/lu_solve
    for m in (1, 10, 60):
        a = rng.standard_normal((m, 3 * m))
        basis = Basis(rng.permutation(3 * m)[:m], np.zeros(3 * m, bool))
        factors = BasisFactors(a, basis)
        lu = scipy.linalg.lu_factor(a[:, basis.basic])
        rhs = rng.standard_normal(m)
        inv = scipy.linalg.lu_solve(lu, np.eye(m))
        assert factors.inverse().tobytes() == inv.tobytes()
        assert factors.inverse().flags.f_contiguous
        assert factors.solve(rhs).tobytes() == scipy.linalg.lu_solve(lu, rhs).tobytes()
        assert (
            factors.solve_transpose(rhs).tobytes()
            == scipy.linalg.lu_solve(lu, rhs, trans=1).tobytes()
        )
    a = np.zeros((2, 3))
    a[:, 0] = 1.0
    with pytest.raises(SingularBasisError):
        BasisFactors(a, Basis(np.array([0, 1]), np.zeros(3, bool)))
    empty = BasisFactors(np.zeros((0, 3)), Basis(np.zeros(0, int), np.zeros(3, bool)))
    assert empty.inverse().shape == (0, 0) and empty.solve(np.zeros(0)).shape == (0,)


def test_factors_from_a_known_inverse_solve_like_lu_factors(rng):
    a = rng.normal(size=(4, 7))
    basis = Basis(np.array([0, 2, 5, 6]), np.zeros(7, dtype=bool))
    lu = BasisFactors(a, basis)
    known = BasisFactors.from_inverse(a, basis, lu.inverse().copy(), updates=3)
    assert (lu.updates, known.updates) == (0, 3)
    rhs = rng.normal(size=4)
    assert np.allclose(known.solve(rhs), lu.solve(rhs), rtol=0, atol=1e-12)
    assert np.allclose(
        known.solve_transpose(rhs), lu.solve_transpose(rhs), rtol=0, atol=1e-12
    )
