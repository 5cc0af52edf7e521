"""MPS parsing and canonicalization of MILP instances.

Everything downstream works on the canonical form

    max c'x   s.t.  A'x >= b,  x >= 0,

with the integer variables occupying the first ``num_integer`` columns.
``parse_mps`` reads a (fixed- or free-format) MPS file into a faithful
:class:`MilpInstance`; ``normalize`` maps that instance onto the canonical
form, turning bounds, ranges and equalities into plain ``>=`` rows and
recording the affine back-map needed to recover original variable values
and objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf
MPS_INFINITY = 1e20  # |values| from here up read as infinite, as in CPLEX and HiGHS
INTEGRALITY_TOL = 1e-9  # integer bounds closer than this to an integer are rounded

# Bound types that carry a numeric value in the BOUNDS section.
_VALUE_BOUNDS = {"UP", "LO", "FX", "UI", "LI"}
_FLAG_BOUNDS = {"FR", "MI", "PL", "BV"}
# the one infinite value a bound may take: no upper bound, or a free lower
# bound (which ``normalize`` rejects)
_INFINITE_BOUND = {"UP": INF, "UI": INF, "LO": -INF, "LI": -INF}


class MpsParseError(ValueError):
    """Malformed MPS input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class NormalizeError(ValueError):
    """Instance cannot be put into the x >= 0, A'x >= b canonical form."""


@dataclass
class VariableRecord:
    name: str
    lower: float = 0.0
    upper: float = INF
    integer: bool = False
    has_bound_entry: bool = False


@dataclass
class RowRecord:
    name: str
    sense: str  # 'G', 'L' or 'E'
    coeffs: dict[int, float] = field(default_factory=dict)
    rhs: float = 0.0
    range_value: float | None = None


@dataclass
class MilpInstance:
    """A parsed MPS model, before any transformation.

    ``objective`` maps column index to coefficient; ``objective_constant``
    is the constant term implied by an RHS entry on the objective row
    (stored with its mathematical sign, i.e. already negated).
    """

    name: str = ""
    objective_sense: str = "min"  # MPS default
    objective: dict[int, float] = field(default_factory=dict)
    objective_constant: float = 0.0
    rows: list[RowRecord] = field(default_factory=list)
    variables: list[VariableRecord] = field(default_factory=list)
    warnings: dict[str, int] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.variables)

    @property
    def num_integer(self) -> int:
        return sum(1 for v in self.variables if v.integer)

    def warn(self, key: str) -> None:
        self.warnings[key] = self.warnings.get(key, 0) + 1


def _tokenize(line: str) -> list[str]:
    return line.split()


def parse_mps(source) -> MilpInstance:
    """Parse MPS text into a :class:`MilpInstance`.

    ``source`` may be a str, bytes or any iterable of lines.  Conventions
    applied (all standard, but MPS dialects differ):

    * section headers start in column 1, data lines are indented;
    * the first N row is the objective, further N rows are ignored free
      rows (counted in ``warnings``);
    * columns wrapped in ``'MARKER' 'INTORG'``/``'INTEND'`` pairs are
      integer; such columns default to bounds [0, 1] unless any BOUNDS
      entry mentions them (classic MIPLIB encoding);
    * an RHS entry on the objective row is the negated constant term;
    * RANGES follow the usual G/L/E semantics and are rejected on N rows;
    * duplicate (row, column) entries are summed and counted;
    * a second RHS or RANGES entry for one row, the objective row
      included, is an error.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]

    inst = MilpInstance()
    row_index: dict[str, int] = {}
    col_index: dict[str, int] = {}
    objective_row: str | None = None
    free_rows: set[str] = set()
    section = None
    in_integer_block = False
    pending_objsense = False
    seen_entries: set[tuple[str, int]] = set()
    rhs_rows: dict[str, int] = {}  # row name -> line of its RHS entry
    range_rows: dict[str, int] = {}  # row name -> line of its RANGES entry

    def lookup_row(name: str, ln: int) -> int | None:
        """Index of a constraint row; None for the objective/free rows."""
        if name == objective_row:
            return None
        if name in free_rows:
            return None
        if name not in row_index:
            raise MpsParseError(f"reference to undeclared row '{name}'", ln)
        return row_index[name]

    def lookup_col(name: str, ln: int) -> int:
        if name not in col_index:
            raise MpsParseError(f"reference to undeclared column '{name}'", ln)
        return col_index[name]

    def add_entry(col: int, row_name: str, value: float, ln: int) -> None:
        key = (row_name, col)
        if row_name == objective_row:
            if col in inst.objective:
                inst.objective[col] += value
                inst.warn("duplicate_entries")
            else:
                inst.objective[col] = value
            return
        if row_name in free_rows:
            inst.warn("free_row_entries_ignored")
            return
        ridx = lookup_row(row_name, ln)
        row = inst.rows[ridx]
        if key in seen_entries:
            row.coeffs[col] = row.coeffs.get(col, 0.0) + value
            inst.warn("duplicate_entries")
        else:
            seen_entries.add(key)
            row.coeffs[col] = row.coeffs.get(col, 0.0) + value

    for ln, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = _tokenize(raw)

        if is_header:
            head = tokens[0].upper()
            if head == "NAME":
                inst.name = tokens[1] if len(tokens) > 1 else ""
                section = "NAME"
            elif head == "OBJSENSE":
                section = "OBJSENSE"
                if len(tokens) > 1:
                    inst.objective_sense = _parse_objsense(tokens[1], ln)
                else:
                    pending_objsense = True
            elif head in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = head
            elif head == "ENDATA":
                section = "END"
                break
            else:
                raise MpsParseError(f"unknown section header '{tokens[0]}'", ln)
            continue

        if pending_objsense:
            inst.objective_sense = _parse_objsense(tokens[0], ln)
            pending_objsense = False
            continue

        if section == "ROWS":
            if len(tokens) < 2:
                raise MpsParseError("ROWS entry needs a type and a name", ln)
            rtype, rname = tokens[0].upper(), tokens[1]
            if rname in row_index or rname == objective_row or rname in free_rows:
                raise MpsParseError(f"duplicate row name '{rname}'", ln)
            if rtype == "N":
                if objective_row is None:
                    objective_row = rname
                else:
                    free_rows.add(rname)
                    inst.warn("extra_free_rows")
            elif rtype in ("G", "L", "E"):
                row_index[rname] = len(inst.rows)
                inst.rows.append(RowRecord(name=rname, sense=rtype))
            else:
                raise MpsParseError(f"unknown row type '{rtype}'", ln)

        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                if "'INTORG'" in tokens:
                    in_integer_block = True
                elif "'INTEND'" in tokens:
                    in_integer_block = False
                else:
                    raise MpsParseError("MARKER line without INTORG/INTEND", ln)
                continue
            cname = tokens[0]
            if cname not in col_index:
                col_index[cname] = len(inst.variables)
                inst.variables.append(
                    VariableRecord(name=cname, integer=in_integer_block)
                )
            col = col_index[cname]
            pairs = tokens[1:]
            if len(pairs) % 2 != 0 or not pairs:
                raise MpsParseError("COLUMNS entry needs (row, value) pairs", ln)
            for rname, val in zip(pairs[::2], pairs[1::2]):
                add_entry(col, rname, _parse_float(val, ln), ln)

        elif section == "RHS":
            pairs = tokens if len(tokens) % 2 == 0 else tokens[1:]
            if len(pairs) % 2 != 0 or not pairs:
                raise MpsParseError("RHS entry needs (row, value) pairs", ln)
            for rname, val in zip(pairs[::2], pairs[1::2]):
                value = _parse_float(val, ln)
                _first_entry(rhs_rows, "RHS", rname, ln)
                if rname == objective_row:
                    # MPS convention: RHS on the objective row is -constant.
                    inst.objective_constant = -value
                    inst.warn("objective_rhs_constant")
                    continue
                ridx = lookup_row(rname, ln)
                if ridx is None:
                    inst.warn("free_row_entries_ignored")
                    continue
                inst.rows[ridx].rhs = value

        elif section == "RANGES":
            pairs = tokens if len(tokens) % 2 == 0 else tokens[1:]
            if len(pairs) % 2 != 0 or not pairs:
                raise MpsParseError("RANGES entry needs (row, value) pairs", ln)
            for rname, val in zip(pairs[::2], pairs[1::2]):
                if rname == objective_row or rname in free_rows:
                    raise MpsParseError("RANGES entry on an N row", ln)
                ridx = lookup_row(rname, ln)
                _first_entry(range_rows, "RANGES", rname, ln)
                inst.rows[ridx].range_value = _parse_float(val, ln)

        elif section == "BOUNDS":
            btype = tokens[0].upper()
            if btype in _VALUE_BOUNDS:
                if len(tokens) == 4:
                    cname, val = tokens[2], _parse_float(tokens[3], ln, finite=False)
                elif len(tokens) == 3:  # bound-set name omitted
                    cname, val = tokens[1], _parse_float(tokens[2], ln, finite=False)
                else:
                    raise MpsParseError(f"malformed {btype} bound", ln)
                if math.isinf(val) and val != _INFINITE_BOUND.get(btype):
                    raise MpsParseError(f"{btype} bound cannot be {val}", ln)
            elif btype in _FLAG_BOUNDS:
                if len(tokens) == 3:
                    cname = tokens[2]
                elif len(tokens) == 2:
                    cname = tokens[1]
                else:
                    raise MpsParseError(f"malformed {btype} bound", ln)
                val = None
            else:
                raise MpsParseError(f"unknown bound type '{tokens[0]}'", ln)
            var = inst.variables[lookup_col(cname, ln)]
            var.has_bound_entry = True
            _apply_bound(var, btype, val, inst)

        elif section in ("NAME", "OBJSENSE", None):
            raise MpsParseError("data line outside of any section", ln)

    if objective_row is None:
        raise MpsParseError("no objective (N) row declared")
    for var in inst.variables:
        if var.integer and not var.has_bound_entry:
            var.upper = 1.0
    return inst


def _parse_objsense(token: str, ln: int) -> str:
    token = token.upper()
    if token in ("MAX", "MAXIMIZE"):
        return "max"
    if token in ("MIN", "MINIMIZE"):
        return "min"
    raise MpsParseError(f"unknown objective sense '{token}'", ln)


def _first_entry(seen: dict[str, int], section: str, row: str, ln: int) -> None:
    """Note the ``section`` entry of ``row`` at line ``ln``; a second one
    for the same row raises instead of overwriting the first."""
    if row in seen:
        raise MpsParseError(
            f"second {section} entry for row '{row}' (first on line {seen[row]})", ln
        )
    seen[row] = ln


def _parse_float(token: str, ln: int, *, finite: bool = True) -> float:
    """The number ``token`` spells, never NaN, and finite unless ``finite``
    is False (a bound); any |value| >= ``MPS_INFINITY`` is infinite."""
    try:
        value = float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError(f"bad numeric literal '{token}'", ln) from None
    if abs(value) >= MPS_INFINITY:
        value = math.copysign(INF, value)
    if math.isnan(value) or (finite and math.isinf(value)):
        raise MpsParseError(f"non-finite value '{token}'", ln)
    return value


def _apply_bound(var: VariableRecord, btype: str, val, inst: MilpInstance) -> None:
    if btype == "UP":
        var.upper = val
        if val < 0 and var.lower == 0.0:
            # Historic dialects make the lower bound -inf here; we keep 0
            # (free lower bounds are rejected downstream anyway) and count it.
            inst.warn("negative_upper_bound")
    elif btype == "LO":
        var.lower = val
    elif btype == "FX":
        var.lower = var.upper = val
    elif btype == "BV":
        var.lower, var.upper, var.integer = 0.0, 1.0, True
    elif btype == "FR":
        var.lower, var.upper = -INF, INF
    elif btype == "MI":
        var.lower = -INF
    elif btype == "PL":
        var.upper = INF
    elif btype == "UI":
        var.upper, var.integer = val, True
    elif btype == "LI":
        var.lower, var.integer = val, True


def read_mps(path) -> MilpInstance:
    with open(path, "rb") as fh:
        inst = parse_mps(fh.read())
    if not inst.name:
        import os

        inst.name = os.path.splitext(os.path.basename(str(path)))[0]
    return inst


# ---------------------------------------------------------------------------
# Canonical form


@dataclass
class NormalizedMilp:
    """Canonical maximization model: max c'x, A'x >= b, x >= 0.

    Integer variables are the first ``num_integer`` columns.  For any
    canonical point y, the point x with x[perm] = y, shifted by ``shift``,
    is feasible for the parsed instance, and ``original_objective(value)``
    maps objective values back (``objective_sign * value +
    objective_offset``).
    """

    name: str
    objective: np.ndarray  # (n,)
    a: np.ndarray  # (m, n) dense
    b: np.ndarray  # (m,)
    num_integer: int
    objective_offset: float
    objective_sign: float  # +1 original max, -1 original min
    perm: np.ndarray  # canonical column j -> original column perm[j]
    shift: np.ndarray  # original-space lower bounds used for shifting
    col_names: list[str]
    row_labels: list[str]

    @property
    def num_rows(self) -> int:
        return self.a.shape[0]

    @property
    def num_cols(self) -> int:
        return self.a.shape[1]

    def original_objective(self, value: float) -> float:
        return self.objective_sign * value + self.objective_offset


def normalize(inst: MilpInstance) -> NormalizedMilp:
    """Map a parsed instance onto max c'x, A'x >= b, x >= 0.

    Minimization is negated; <= rows are negated; equalities and ranged
    rows become >= pairs; every variable is shifted to lower bound 0 and
    finite upper bounds become rows of A'; integer columns are permuted to
    the front.  Variables with lower bound -inf are rejected.
    """
    n = inst.num_cols
    lower = np.array([v.lower for v in inst.variables])
    upper = np.array([v.upper for v in inst.variables], dtype=float)
    integer = np.array([v.integer for v in inst.variables], dtype=bool)

    free = [v.name for v in inst.variables if v.lower == -INF]
    if free:
        raise NormalizeError(
            "variables without a finite lower bound are not supported: "
            + ", ".join(free[:5])
        )
    for j in np.nonzero(integer)[0]:
        if abs(lower[j] - round(lower[j])) > INTEGRALITY_TOL:
            raise NormalizeError(
                f"integer variable '{inst.variables[j].name}' has fractional "
                f"lower bound {lower[j]}"
            )
        lower[j] = round(lower[j])
        if upper[j] != INF:
            upper[j] = math.floor(upper[j] + INTEGRALITY_TOL)
    if np.any(upper < lower):
        j = int(np.argmax(upper < lower))
        raise NormalizeError(
            f"variable '{inst.variables[j].name}' has empty bound interval "
            f"[{lower[j]}, {upper[j]}]"
        )

    perm = np.concatenate(
        [np.nonzero(integer)[0], np.nonzero(~integer)[0]]
    ).astype(int)
    inv_perm = np.empty(n, dtype=int)
    inv_perm[perm] = np.arange(n)
    p = int(integer.sum())

    c_orig = np.zeros(n)
    for j, cj in inst.objective.items():
        c_orig[j] = cj
    sign = 1.0 if inst.objective_sense == "max" else -1.0
    objective = sign * c_orig[perm]
    offset = float(c_orig @ lower) + inst.objective_constant

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[str] = []

    def emit(coeffs: np.ndarray, beta: float, label: str) -> None:
        rows.append(coeffs[perm])
        rhs.append(beta)
        labels.append(label)

    for row in inst.rows:
        a = np.zeros(n)
        for j, v in row.coeffs.items():
            a[j] = v
        beta = row.rhs - float(a @ lower)
        lo, hi = _row_interval(row.sense, beta, row.range_value)
        if lo is not None:
            emit(a, lo, row.name)
        if hi is not None:
            emit(-a, -hi, row.name + ":ub")

    for j in range(n):
        if upper[j] != INF:
            width = upper[j] - lower[j]
            a = np.zeros(n)
            a[j] = -1.0
            emit(a, -width, f"bound:{inst.variables[j].name}")

    a_mat = np.array(rows) if rows else np.zeros((0, n))
    return NormalizedMilp(
        name=inst.name,
        objective=objective,
        a=a_mat,
        b=np.array(rhs),
        num_integer=p,
        objective_offset=offset,
        objective_sign=sign,
        perm=perm,
        shift=lower,
        col_names=[inst.variables[j].name for j in perm],
        row_labels=labels,
    )


def _row_interval(sense: str, rhs: float, rng: float | None):
    """(lo, hi) activity interval implied by a row and its RANGES entry."""
    if rng is None:
        if sense == "G":
            return rhs, None
        if sense == "L":
            return None, rhs
        return rhs, rhs
    if sense == "G":
        return rhs, rhs + abs(rng)
    if sense == "L":
        return rhs - abs(rng), rhs
    if rng >= 0:
        return rhs, rhs + rng
    return rhs + rng, rhs


def load_optima(path) -> dict[str, float]:
    """Read a reference-optima sidecar: one `name value` pair per line, the
    value finite and each name on one line only, case aside (the CLI
    matches names case-insensitively).  A malformed line raises
    ``ValueError`` naming the file and the line."""
    out: dict[str, float] = {}
    lines: dict[str, int] = {}  # lower-cased name -> its line
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {ln}: expected 'name value'")
            name, text = parts
            try:
                value = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}: line {ln}: optimum {text!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {ln}: optimum {text} is not finite")
            # names are matched case-insensitively, so T1 repeats t1
            first = lines.setdefault(name.lower(), ln)
            if first != ln:
                raise ValueError(
                    f"{path}: line {ln}: name {name!r} repeats line {first}"
                )
            out[name] = value
    return out
