"""Seeded MILP families for the closure benchmark, and their MPS form.

Every generator returns a :class:`Model`: the original (pre-normalization)
data of a program with lower bounds 0,

    max/min c'x   s.t.  A x (<= or >=) rhs,  0 <= x <= ub,
    x_j integer for j < num_integer,

where ``ub`` may hold ``inf``.  The generated families are pure integer.
The benchmark writes each model as MPS and the program under test only
ever sees that file.  ``canonical`` restates
the documented canonical form (``max c'x, A'x >= b, x >= 0`` with finite
upper bounds as ``-x_j >= -ub_j`` rows) independently of the program, so
the round-trip check and the references need no code from the package.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Model:
    name: str
    sense: str  # 'max' or 'min'
    c: np.ndarray  # (n,)
    a: np.ndarray  # (m, n)
    row_sense: str  # 'L' (<=) or 'G' (>=), the same for every row
    rhs: np.ndarray  # (m,)
    ub: np.ndarray  # (n,), inf for no upper bound
    binary: bool  # every variable in {0, 1}
    num_integer: int  # the first num_integer columns are integer

    def digest(self) -> str:
        """Content hash: equal digests mean equal models."""
        h = hashlib.sha256()
        h.update(
            f"{self.sense}|{self.row_sense}|{self.a.shape}|{self.num_integer}".encode()
        )
        for arr in (self.c, self.a, self.rhs, self.ub):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()[:24]

    def permuted(self, rng: np.random.Generator, name: str):
        """The same program with rows and columns in a seeded random order.

        Returns the model and the column permutation: column j of the new
        model is column ``cols[j]`` of this one.  Only pure-integer models
        are permuted, so integer columns stay first.
        """
        assert self.num_integer == self.c.size
        rows = rng.permutation(self.a.shape[0])
        cols = rng.permutation(self.c.size)
        model = Model(
            name, self.sense, self.c[cols], self.a[rows][:, cols],
            self.row_sense, self.rhs[rows], self.ub[cols], self.binary,
            self.num_integer,
        )
        return model, cols

    def save(self, path) -> None:
        np.savez(
            path, name=self.name, sense=self.sense, c=self.c, a=self.a,
            row_sense=self.row_sense, rhs=self.rhs, ub=self.ub,
            binary=self.binary, num_integer=self.num_integer,
        )

    @classmethod
    def load(cls, path) -> "Model":
        with np.load(path, allow_pickle=False) as z:
            return cls(
                str(z["name"]), str(z["sense"]), z["c"], z["a"],
                str(z["row_sense"]), z["rhs"], z["ub"], bool(z["binary"]),
                int(z["num_integer"]),
            )


def multi_knapsack(rng: np.random.Generator, m: int, n: int, name: str) -> Model:
    """Binary multi-dimensional knapsack, W ~ U{5..39}, half-full rows."""
    w = rng.integers(5, 40, size=(m, n)).astype(float)
    c = rng.integers(10, 60, size=n).astype(float)
    cap = np.floor(0.5 * w.sum(axis=1))
    return Model(name, "max", c, w, "L", cap, np.ones(n), True, n)


def set_cover(
    rng: np.random.Generator, m: int, n: int, density: float, name: str
) -> Model:
    """Random unit-cost set cover: every row hit by at least two columns."""
    a = (rng.random((m, n)) < density).astype(float)
    for i in range(m):
        while a[i].sum() < 2:
            a[i, int(rng.integers(0, n))] = 1.0
    return Model(name, "min", np.ones(n), a, "G", np.ones(m), np.ones(n), True, n)


def bose_steiner(t: int, name: str) -> Model:
    """Hitting set of the Bose Steiner triple system on v = 6t+3 points.

    Points are (x, i) with x in Z_q, q = 2t+1, i in Z_3.  The triples are
    {(x,0),(x,1),(x,2)} and {(x,i),(y,i),(x o y, i+1)} for x < y, with the
    idempotent quasigroup x o y = (x+y)(t+1) mod q.  Each triple must hold a
    chosen point (the stein15/stein27 structure).
    """
    q = 2 * t + 1
    v = 3 * q

    def pt(x: int, i: int) -> int:
        return 3 * x + i

    triples = [(pt(x, 0), pt(x, 1), pt(x, 2)) for x in range(q)]
    for x in range(q):
        for y in range(x + 1, q):
            z = ((x + y) * (t + 1)) % q
            for i in range(3):
                triples.append((pt(x, i), pt(y, i), pt(z, (i + 1) % 3)))
    assert len(triples) == v * (v - 1) // 6
    a = np.zeros((len(triples), v))
    for r, tri in enumerate(triples):
        a[r, list(tri)] = 1.0
    return Model(
        name, "min", np.ones(v), a, "G", np.ones(len(triples)), np.ones(v),
        True, v,
    )


def general_knapsack(
    rng: np.random.Generator, m: int, n: int, name: str
) -> Model:
    """General-integer multi-dimensional knapsack without upper bounds."""
    w = rng.integers(5, 40, size=(m, n)).astype(float)
    c = rng.integers(10, 60, size=n).astype(float)
    cap = np.floor(0.25 * w.sum(axis=1))
    return Model(name, "max", c, w, "L", cap, np.full(n, np.inf), False, n)


# ---------------------------------------------------------------------------
# MPS output and the independent canonical form


def _num(v: float) -> str:
    return repr(float(v)) if v != int(v) else str(int(v))


def write_mps(model: Model, path) -> None:
    """Free-format MPS with an integer marker block and explicit bounds."""
    assert model.num_integer == model.c.size, "only pure-integer models"
    m, n = model.a.shape
    out = [f"NAME {model.name}", "OBJSENSE", f"    {model.sense.upper()}", "ROWS"]
    out.append(" N obj")
    out += [f" {model.row_sense} r{i}" for i in range(m)]
    out.append("COLUMNS")
    out.append("    M1 'MARKER' 'INTORG'")
    for j in range(n):
        entries = [("obj", model.c[j])] if model.c[j] else []
        entries += [(f"r{i}", model.a[i, j]) for i in np.nonzero(model.a[:, j])[0]]
        for k in range(0, len(entries), 2):
            pairs = " ".join(f"{r} {_num(v)}" for r, v in entries[k : k + 2])
            out.append(f"    x{j} {pairs}")
        if not entries:
            out.append(f"    x{j} obj 0")
    out.append("    M2 'MARKER' 'INTEND'")
    out.append("RHS")
    out += [f"    rhs r{i} {_num(model.rhs[i])}" for i in range(m) if model.rhs[i]]
    out.append("BOUNDS")
    for j in range(n):
        if math.isinf(model.ub[j]):
            out.append(f" PL bnd x{j}")
        else:
            out.append(f" UP bnd x{j} {_num(model.ub[j])}")
    out.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


@dataclass
class Canonical:
    objective: np.ndarray  # maximized
    a: np.ndarray
    b: np.ndarray
    sign: float  # +1 for an original max, -1 for min
    bound_rows: int


def canonical(model: Model) -> Canonical:
    """``max c'x, A'x >= b, x >= 0`` as the package documents it.

    <= rows are negated, finite upper bounds become ``-x_j >= -ub_j`` rows
    after the model rows, and a minimization objective is negated.
    """
    sign = 1.0 if model.sense == "max" else -1.0
    rows = model.a if model.row_sense == "G" else -model.a
    rhs = model.rhs if model.row_sense == "G" else -model.rhs
    finite = np.nonzero(np.isfinite(model.ub))[0]
    bound_a = np.zeros((finite.size, model.a.shape[1]))
    bound_a[np.arange(finite.size), finite] = -1.0
    return Canonical(
        objective=sign * model.c,
        a=np.vstack([rows, bound_a]),
        b=np.concatenate([rhs, -model.ub[finite]]),
        sign=sign,
        bound_rows=int(finite.size),
    )
