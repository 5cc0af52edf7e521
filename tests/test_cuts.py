import numpy as np
import pytest

from liftproject.cuts import (
    CutRow,
    DynamismError,
    EmptyDisjunctionError,
    FractionalityError,
    eliminate_slacks,
    gmi_cut,
    intersection_cut,
    same_cut,
)
from liftproject.standard_form import Basis, TableauRow, tableau_row, to_standard


def make_row(coeffs, rhs, basic_col, basic_cols=None):
    coeffs = np.asarray(coeffs, float)
    if basic_cols is None:
        basic_cols = np.array([basic_col])
    return TableauRow(
        basic_col=basic_col,
        coeffs=coeffs,
        rhs=rhs,
        basic_cols=np.asarray(basic_cols),
    )


def test_intersection_cut_arithmetic():
    # x_k + 0.5 x_a - 0.3 x_b = 2.7 (k basic in col 0)
    row = make_row([1.0, 0.5, -0.3], 2.7, basic_col=0)
    cut = intersection_cut(row)
    np.testing.assert_allclose(cut.coeffs, [0.0, 0.15, 0.21], atol=1e-12)
    assert cut.rhs == pytest.approx(0.21)


def test_intersection_cut_t1_row_and_elimination(t1):
    slp = to_standard(t1)
    basis = Basis(np.array([2, 3]), np.zeros(4, bool))
    row = tableau_row(slp, basis, 2)
    cut = intersection_cut(row)
    np.testing.assert_allclose(cut.coeffs, [0.125, 0.125, 0.0, 0.0], atol=1e-12)
    assert cut.rhs == pytest.approx(0.25)
    struct = eliminate_slacks(cut, slp)
    # -2 x2 >= 0, normalized to -x2 >= 0
    np.testing.assert_allclose(struct.coeffs, [0.0, -1.0], atol=1e-12)
    assert struct.rhs == pytest.approx(0.0, abs=1e-12)


def test_intersection_cut_rejects_integral_rhs():
    row = make_row([1.0, 0.5], 3.0 + 1e-9, basic_col=0)
    with pytest.raises(FractionalityError):
        intersection_cut(row)


def test_empty_disjunction_signalled():
    row = make_row([1.0, 0.0, 0.0], 2.7, basic_col=0)
    with pytest.raises(EmptyDisjunctionError):
        intersection_cut(row)


def test_gmi_cut_arithmetic():
    # x_k + 2.6 x_a - 0.3 x_b + 0.5 x_c = 2.7 with x_a, x_c integer
    row = make_row([1.0, 2.6, -0.3, 0.5], 2.7, basic_col=0)
    integer_cols = np.array([False, True, False, True])
    cut = gmi_cut(row, integer_cols)
    np.testing.assert_allclose(cut.coeffs, [0.0, 0.18, 0.21, 0.15], atol=1e-12)
    assert cut.rhs == pytest.approx(0.21)


def test_gmi_equals_intersection_when_all_continuous():
    row = make_row([1.0, 0.7, -1.4, 0.2], 1.3, basic_col=0)
    nothing = np.zeros(4, bool)
    gmi = gmi_cut(row, nothing)
    inter = intersection_cut(row)
    np.testing.assert_allclose(gmi.coeffs, inter.coeffs)
    assert gmi.rhs == pytest.approx(inter.rhs)


def test_gmi_dominates_intersection_on_random_rows(rng):
    # componentwise <= on integer columns, == on continuous ones
    for _ in range(1000):
        width = int(rng.integers(2, 8))
        coeffs = np.concatenate([[1.0], rng.normal(scale=2.0, size=width)])
        rhs = float(rng.uniform(0.05, 0.95) + rng.integers(0, 4))
        integer_cols = np.concatenate([[False], rng.integers(0, 2, width) > 0])
        row = make_row(coeffs, rhs, basic_col=0)
        gmi = gmi_cut(row, integer_cols)
        inter = intersection_cut(row)
        assert np.all(gmi.coeffs <= inter.coeffs + 1e-12)
        cont = ~integer_cols
        np.testing.assert_allclose(gmi.coeffs[cont], inter.coeffs[cont])
        assert gmi.rhs == pytest.approx(inter.rhs)


def test_eliminate_structural_cut_is_idempotent(t1):
    slp = to_standard(t1)
    cut = CutRow(coeffs=np.array([0.0, -2.0]), rhs=0.0, space="structural")
    once = eliminate_slacks(cut, slp)
    twice = eliminate_slacks(once, slp)
    np.testing.assert_allclose(once.coeffs, twice.coeffs)
    assert once.rhs == pytest.approx(twice.rhs)
    assert np.abs(once.coeffs).max() == 1.0  # exact max-norm normalization


def test_all_zero_cut_rejected():
    with pytest.raises(EmptyDisjunctionError):
        CutRow(coeffs=np.zeros(3), rhs=0.5)


def test_dynamism_filter(t1):
    slp = to_standard(t1)
    cut = CutRow(coeffs=np.array([1.0, 1e-10]), rhs=0.0, space="structural")
    with pytest.raises(DynamismError):
        eliminate_slacks(cut, slp)


def test_same_cut_is_scale_free():
    a = CutRow(coeffs=np.array([0.0, -0.25]), rhs=0.0, space="structural")
    b = CutRow(coeffs=np.array([0.0, -1.0]), rhs=0.0, space="structural")
    c = CutRow(coeffs=np.array([0.1, -1.0]), rhs=0.0, space="structural")
    assert same_cut(a, b)
    assert not same_cut(a, c)


def test_violation_field_matches_definition(t1):
    slp = to_standard(t1)
    basis = Basis(np.array([2, 3]), np.zeros(4, bool))
    cut = eliminate_slacks(intersection_cut(tableau_row(slp, basis, 2)), slp)
    x = np.array([0.5, 1.0])
    violation = cut.violation_at(x)
    assert violation == pytest.approx(cut.rhs - cut.coeffs @ x, abs=1e-9)
    assert violation > 0  # the LP vertex is cut off
