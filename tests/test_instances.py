import math

import numpy as np
import pytest

from liftproject import simplex
from liftproject.instances import (
    MpsParseError,
    NormalizeError,
    load_optima,
    normalize,
    parse_mps,
    read_mps,
)

from conftest import T1_MPS, require_miplib
from test_standard_form import canonical


def to_original(nm, y):
    """The point of the parsed instance that canonical point y stands for:
    x[perm] = y, shifted back by the lower bounds."""
    x = np.empty(nm.num_cols)
    x[nm.perm] = y
    return x + nm.shift


def test_parse_t1_counts(t1_instance):
    assert t1_instance.num_rows == 2
    assert t1_instance.num_cols == 2
    assert t1_instance.num_integer == 1
    assert t1_instance.objective_sense == "min"
    assert t1_instance.name == "T1"


def test_marker_pair_flags_integer():
    inst = parse_mps(T1_MPS)
    by_name = {v.name: v for v in inst.variables}
    assert by_name["X1"].integer
    assert not by_name["X2"].integer


def test_integer_marker_default_binary():
    text = """NAME X
ROWS
 N obj
 G r1
COLUMNS
    MARKER 'MARKER' 'INTORG'
    y r1 1.0
    MARKER 'MARKER' 'INTEND'
    z r1 1.0 obj 1.0
RHS
    rhs r1 1.0
ENDATA
"""
    inst = parse_mps(text)
    y = inst.variables[0]
    assert y.integer and y.lower == 0.0 and y.upper == 1.0
    z = inst.variables[1]
    assert not z.integer and z.upper == math.inf


def test_duplicate_entries_summed():
    text = """NAME D
ROWS
 N obj
 G r1
COLUMNS
    x r1 1.0 r1 2.0
    x obj 1.0
RHS
ENDATA
"""
    inst = parse_mps(text)
    assert inst.rows[0].coeffs[0] == pytest.approx(3.0)
    assert inst.warnings.get("duplicate_entries") == 1


def test_parse_errors_carry_line_numbers():
    bad_ref = "NAME X\nROWS\n N obj\nCOLUMNS\n    x nosuch 1.0\nENDATA\n"
    with pytest.raises(MpsParseError) as err:
        parse_mps(bad_ref)
    assert err.value.line_no == 5

    with pytest.raises(MpsParseError):
        parse_mps("NAME X\nGIBBERISH\nENDATA\n")

    ranged_obj = (
        "NAME X\nROWS\n N obj\n G r1\nCOLUMNS\n    x r1 1.0\n"
        "RHS\nRANGES\n    rng obj 5.0\nENDATA\n"
    )
    with pytest.raises(MpsParseError, match="N row"):
        parse_mps(ranged_obj)


@pytest.mark.parametrize(
    "section, entries, row, first, line",
    [
        ("RHS", ["    rhs r1 3.0", "    rhs r1 5.0"], "r1", 8, 9),
        ("RHS", ["    rhs r1 3.0 r1 5.0"], "r1", 8, 8),
        ("RHS", ["    rhs obj 1.0", "    rhs r1 1.0 obj 2.0"], "obj", 8, 9),
        ("RANGES", ["    rng r1 2.0", "    rng r1 4.0"], "r1", 10, 11),
    ],
)
def test_repeated_rhs_or_ranges_entry_is_an_error(section, entries, row, first, line):
    # a second entry once overwrote the first in silence: `RHS c1 3` then
    # `RHS c1 5` read 5 and warned of nothing.  Repeated COLUMNS entries
    # are summed and counted instead
    head = "NAME X\nROWS\n N obj\n G r1\nCOLUMNS\n    x r1 1.0 obj 2.0\nRHS\n"
    body = "\n".join(entries) + "\n"
    text = head + (body if section == "RHS" else "    rhs r1 1.0\nRANGES\n" + body)
    with pytest.raises(MpsParseError) as err:
        parse_mps(text + "ENDATA\n")
    assert err.value.line_no == line
    assert str(err.value) == (
        f"line {line}: second {section} entry for row '{row}' (first on line {first})"
    )


def test_rhs_on_objective_is_constant():
    text = (
        "NAME X\nROWS\n N obj\n G r1\nCOLUMNS\n    x r1 1.0 obj 2.0\n"
        "RHS\n    rhs r1 1.0 obj 5.0\nENDATA\n"
    )
    inst = parse_mps(text)
    assert inst.objective_constant == pytest.approx(-5.0)


def test_objsense_max():
    text = (
        "NAME X\nOBJSENSE\n    MAX\nROWS\n N obj\n G r1\n"
        "COLUMNS\n    x r1 1.0 obj 1.0\nRHS\n    rhs r1 1.0\nENDATA\n"
    )
    assert parse_mps(text).objective_sense == "max"


def test_bound_types():
    text = """NAME B
ROWS
 N obj
 G r1
COLUMNS
    a r1 1.0
    b r1 1.0
    c r1 1.0
    d r1 1.0
    e r1 1.0
RHS
    rhs r1 1.0
BOUNDS
 UP bnd a 4.0
 LO bnd a 1.0
 FX bnd b 2.5
 BV bnd c
 UI bnd d 7.0
 UP bnd e 3.0
 FR bnd e
ENDATA
"""
    inst = parse_mps(text)
    a, b, c, d, e = inst.variables
    assert (a.lower, a.upper) == (1.0, 4.0)
    assert (b.lower, b.upper) == (2.5, 2.5)
    assert c.integer and (c.lower, c.upper) == (0.0, 1.0)
    assert d.integer and d.upper == 7.0
    assert (e.lower, e.upper) == (-math.inf, math.inf)  # FR frees both sides


def number_mps(col="1.0", rhs="1.0", rng="2.0", bound="UP bnd x 3.0"):
    # the values sit on lines 6 (COLUMNS), 8 (RHS), 10 (RANGES), 12 (BOUNDS)
    return (
        f"NAME V\nROWS\n N obj\n E r1\nCOLUMNS\n    x r1 {col} obj 1.0\n"
        f"RHS\n    rhs r1 {rhs}\nRANGES\n    rng r1 {rng}\n"
        f"BOUNDS\n {bound}\nENDATA\n"
    )


@pytest.mark.parametrize(
    "fields, line",
    [
        ({"col": "nan"}, 6),
        ({"col": "inf"}, 6),
        ({"col": "-inf"}, 6),
        ({"col": "1e400"}, 6),
        ({"rhs": "nan"}, 8),
        ({"rhs": "-inf"}, 8),
        ({"rng": "inf"}, 10),
        ({"rng": "NaN"}, 10),
        ({"bound": "UP bnd x nan"}, 12),
        ({"bound": "UP bnd x -inf"}, 12),
        ({"bound": "UI bnd x -inf"}, 12),
        ({"bound": "LO bnd x inf"}, 12),
        ({"bound": "LI bnd x inf"}, 12),
        ({"bound": "FX bnd x inf"}, 12),
        ({"bound": "FX bnd x -inf"}, 12),
        # MPS infinity: any |value| >= 1e20
        ({"col": "1e30"}, 6),
        ({"col": "-1e20"}, 6),
        ({"rhs": "1e30"}, 8),
        ({"rng": "1e20"}, 10),
        ({"bound": "UP bnd x -1e30"}, 12),
        ({"bound": "LO bnd x 1e30"}, 12),
        ({"bound": "FX bnd x 1e20"}, 12),
    ],
)
def test_non_finite_numbers_are_rejected(fields, line):
    # no NaN anywhere; coefficients, right-hand sides and ranges finite
    with pytest.raises(MpsParseError) as err:
        parse_mps(number_mps(**fields))
    assert err.value.line_no == line


def test_a_bound_may_be_infinite_on_its_own_side():
    x = parse_mps(number_mps(bound="UP bnd x inf")).variables[0]
    assert (x.lower, x.upper) == (0.0, math.inf)
    x = parse_mps(number_mps(bound="UI bnd x inf")).variables[0]
    assert x.integer and x.upper == math.inf
    # MPS infinity, as CPLEX and HiGHS read it; just below it stays finite
    for bound in ("UP bnd x 1e30", "UP bnd x 1e20", "UI bnd x 1D30"):
        assert parse_mps(number_mps(bound=bound)).variables[0].upper == math.inf
    assert parse_mps(number_mps(bound="UP bnd x 9.9e19")).variables[0].upper == 9.9e19
    for bound in ("LO bnd x -inf", "LI bnd x -inf", "LO bnd x -1e30"):
        inst = parse_mps(number_mps(bound=bound))
        assert inst.variables[0].lower == -math.inf
        with pytest.raises(NormalizeError, match="finite lower bound"):
            normalize(inst)


def test_normalize_t1_matrices(t1):
    assert t1.num_integer == 1
    assert t1.objective_sign == -1.0
    np.testing.assert_allclose(t1.objective, [0.0, 1.0])
    np.testing.assert_allclose(t1.a, [[-2.0, -1.0], [2.0, -1.0]])
    np.testing.assert_allclose(t1.b, [-2.0, 0.0])


def test_normalize_shifts_bounds_to_rows():
    text = """NAME S
ROWS
 N obj
 G r1
COLUMNS
    MARKER 'MARKER' 'INTORG'
    x r1 1.0 obj 1.0
    MARKER 'MARKER' 'INTEND'
RHS
    rhs r1 2.0
BOUNDS
 LO bnd x 1.0
 UP bnd x 4.0
ENDATA
"""
    nm = normalize(parse_mps(text))
    # shifted by 1: row x >= 2 becomes x' >= 1, bound becomes -x' >= -3
    np.testing.assert_allclose(nm.a, [[1.0], [-1.0]])
    np.testing.assert_allclose(nm.b, [1.0, -3.0])
    np.testing.assert_allclose(nm.shift, [1.0])
    np.testing.assert_allclose(to_original(nm, np.array([0.5])), [1.5])


def test_normalize_splits_equalities():
    text = (
        "NAME E\nROWS\n N obj\n E r1\nCOLUMNS\n    x r1 2.0 obj 1.0\n"
        "RHS\n    rhs r1 3.0\nENDATA\n"
    )
    nm = normalize(parse_mps(text))
    np.testing.assert_allclose(nm.a, [[2.0], [-2.0]])
    np.testing.assert_allclose(nm.b, [3.0, -3.0])


def test_normalize_expands_ranges():
    text = (
        "NAME R\nROWS\n N obj\n G r1\nCOLUMNS\n    x r1 1.0 obj 1.0\n"
        "RHS\n    rhs r1 2.0\nRANGES\n    rng r1 3.0\nENDATA\n"
    )
    nm = normalize(parse_mps(text))
    # 2 <= x <= 5 as two >= rows
    np.testing.assert_allclose(nm.a, [[1.0], [-1.0]])
    np.testing.assert_allclose(nm.b, [2.0, -5.0])


def test_normalize_rejects_free_variables():
    text = (
        "NAME F\nROWS\n N obj\n G r1\nCOLUMNS\n    x r1 1.0 obj 1.0\n"
        "RHS\n    rhs r1 1.0\nBOUNDS\n MI bnd x\nENDATA\n"
    )
    with pytest.raises(NormalizeError, match="lower bound"):
        normalize(parse_mps(text))


def test_normalize_orders_integers_first():
    text = """NAME O
ROWS
 N obj
 G r1
COLUMNS
    cont r1 1.0 obj 1.0
    MARKER 'MARKER' 'INTORG'
    int1 r1 2.0
    MARKER 'MARKER' 'INTEND'
RHS
    rhs r1 1.0
BOUNDS
 PL bnd int1
ENDATA
"""
    nm = normalize(parse_mps(text))
    assert nm.col_names == ["int1", "cont"]
    np.testing.assert_allclose(nm.a, [[2.0, 1.0]])


def _random_feasible_points(nm, count, seed):
    """Vertices of the normalized relaxation for random objectives."""
    rng = np.random.default_rng(seed)
    slp = canonical(nm)
    points = []
    for _ in range(count):
        c = np.concatenate(
            [np.zeros(slp.num_rows), rng.normal(size=slp.num_struct)]
        )
        res = simplex.solve(
            simplex.BoundedLp(
                sense="max",
                objective=c,
                a_eq=slp.a,
                rhs=slp.b,
                lower=np.zeros(slp.num_cols),
                upper=np.full(slp.num_cols, 10.0),  # keep bounded
            ),
            start=slp.slack_basis(),
        )
        if res.status is simplex.Status.OPTIMAL:
            points.append(res.x[slp.num_rows :])
    return points


MIXED_MPS = """NAME MIX
ROWS
 N obj
 L r1
 E r2
 G r3
COLUMNS
    MARKER 'MARKER' 'INTORG'
    x obj -3.0 r1 2.0
    x r2 1.0 r3 1.0
    MARKER 'MARKER' 'INTEND'
    y obj 1.0 r1 1.0
    y r2 2.0
    z obj 2.0 r3 4.0
RHS
    rhs r1 8.0 r2 6.0
    rhs r3 1.0
BOUNDS
 UI bnd x 5.0
 UP bnd y 3.5
 LO bnd z 0.5
ENDATA
"""


def test_round_trip_feasibility_and_objective():
    inst = parse_mps(MIXED_MPS)
    nm = normalize(inst)
    points = _random_feasible_points(nm, 12, seed=99)
    assert points, "no feasible vertices found"
    c = np.zeros(inst.num_cols)
    for j, cj in inst.objective.items():
        c[j] = cj
    for y in points:
        x = to_original(nm, y)
        # original rows
        for row in inst.rows:
            act = sum(v * x[j] for j, v in row.coeffs.items())
            if row.sense == "G":
                assert act >= row.rhs - 1e-9
            elif row.sense == "L":
                assert act <= row.rhs + 1e-9
            else:
                assert abs(act - row.rhs) <= 1e-9
        # original bounds
        for j, var in enumerate(inst.variables):
            assert x[j] >= var.lower - 1e-9
            assert x[j] <= var.upper + 1e-9
        # objective consistency
        orig = float(c @ x) + inst.objective_constant
        norm_val = float(nm.objective @ y)
        assert abs(nm.original_objective(norm_val) - orig) <= 1e-9 * (1 + abs(orig))


def test_load_optima(tmp_path):
    path = tmp_path / "opt.txt"
    path.write_text("# comment\nt1 0\nfoo 12.5  # trailing\n\n")
    table = load_optima(path)
    assert table == {"t1": 0.0, "foo": 12.5}
    bad = tmp_path / "bad.txt"
    bad.write_text("name_without_value\n")
    with pytest.raises(ValueError):
        load_optima(bad)
    # a value that is not finite would report a made-up gap
    for value in ("nan", "inf", "-inf"):
        bad.write_text(f"t1 0\nt2 {value}\n")
        with pytest.raises(ValueError, match=f"line 2: optimum {value} is not finite"):
            load_optima(bad)
    # a value that is no number, and a name the CLI would match twice,
    # name the file and the line
    for text, message in (
        ("t1 0\n\nt2 abc\n", "line 3: optimum 'abc' is not a number"),
        ("t1 0\nfoo 1\nT1 2\n", "line 3: name 'T1' repeats line 1"),
        ("t1 0\nt1 0\n", "line 2: name 't1' repeats line 1"),
    ):
        bad.write_text(text)
        with pytest.raises(ValueError) as err:
            load_optima(bad)
        assert str(err.value) == f"{bad}: {message}"


def _reference_parse_counts(path):
    """Independent minimal MPS reader: row/column/integer counts only."""
    rows = 0
    cols = set()
    integers = set()
    section = None
    in_int = False
    with open(path) as fh:
        for raw in fh:
            if not raw.strip() or raw.startswith("*"):
                continue
            if not raw[0].isspace():
                section = raw.split()[0].upper()
                continue
            tok = raw.split()
            if section == "ROWS":
                if tok[0].upper() in ("G", "L", "E"):
                    rows += 1
            elif section == "COLUMNS":
                if "'MARKER'" in tok:
                    in_int = "'INTORG'" in tok
                    continue
                cols.add(tok[0])
                if in_int:
                    integers.add(tok[0])
    return rows, len(cols), len(integers)


def test_p0033_cross_parse_against_reference_reader():
    path = require_miplib("p0033")
    inst = read_mps(path)
    rrows, rcols, rints = _reference_parse_counts(path)
    assert inst.num_rows == rrows
    assert inst.num_cols == rcols
    assert inst.num_integer == rints
