"""Reference values for the closure benchmark, computed with HiGHS.

Run as a child process of ``run.py`` so that neither its time nor its
memory counts toward the measured workload:

    python3 perfbench/reference.py JOB.json OUT.json

``JOB.json`` lists ``{"model": <.npz path>, "pe": bool}`` entries; the
answer holds, per entry, the LP relaxation optimum ``z_lp``, the MILP
optimum ``z_opt`` with an optimal point ``x_opt`` (original space) and, for
binary models with ``pe`` set, the exact elementary-closure bound ``z_pe``
from the lifted formulation of Balas, Ceria and Cornuejols (Math. Prog. 58,
1993).  Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

sys.path.insert(0, str(Path(__file__).resolve().parent))
from generators import Model, canonical  # noqa: E402

MILP_TIME_LIMIT = 150.0


def _row_bounds(model: Model):
    if model.row_sense == "L":
        return -np.inf, model.rhs
    return model.rhs, np.inf


def lp_optimum(model: Model) -> float:
    """Optimum of the LP relaxation of the original model."""
    sign = 1.0 if model.sense == "max" else -1.0
    a_ub = model.a if model.row_sense == "L" else -model.a
    b_ub = model.rhs if model.row_sense == "L" else -model.rhs
    res = linprog(
        -sign * model.c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=np.column_stack([np.zeros(model.c.size), model.ub]),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"{model.name}: LP status {res.status}: {res.message}")
    return float(-sign * res.fun)


def milp_optimum(model: Model) -> tuple[float | None, np.ndarray | None]:
    """Proven optimum (zero relative gap) of the original model, or
    ``(None, None)`` when it has no integer point."""
    sign = 1.0 if model.sense == "max" else -1.0
    n, p = model.c.size, model.num_integer
    integrality = np.zeros(n)
    integrality[:p] = 1
    res = milp(
        -sign * model.c,
        constraints=LinearConstraint(model.a, *_row_bounds(model)),
        integrality=integrality,
        bounds=Bounds(np.zeros(n), model.ub),
        options={"mip_rel_gap": 0.0, "time_limit": MILP_TIME_LIMIT},
    )
    if res.status == 2:
        return None, None
    if res.status != 0:
        raise RuntimeError(f"{model.name}: milp status {res.status}: {res.message}")
    x = res.x.copy()
    x[:p] = np.round(x[:p])
    return float(model.c @ x), x


def lifted_pe_bound(model: Model) -> float:
    """Elementary-closure bound of a binary model as one LP.

    For every k: x = y^k + z^k, A'y^k >= b lam_k, y^k_k <= 0,
    A'z^k >= b (1 - lam_k), z^k_k >= 1 - lam_k, y, z >= 0, 0 <= lam_k <= 1.
    """
    if not model.binary:
        raise ValueError("the lifted pe oracle needs a binary model")
    can = canonical(model)
    mrow, n = can.a.shape
    a = sp.csr_matrix(can.a)
    b = sp.csr_matrix(can.b.reshape(-1, 1))
    block = 2 * n + 1  # y^k, z^k, lam_k
    nvar = n + n * block
    eye = sp.identity(n, format="csr")
    eq_rows, ub_rows, ub_rhs = [], [], []
    for k in range(n):
        off = n + k * block
        pad_l = sp.csr_matrix((n, off - n))
        pad_r = sp.csr_matrix((n, nvar - off - block))
        eq_rows.append(
            sp.hstack([eye, pad_l, -eye, -eye, sp.csr_matrix((n, 1)), pad_r])
        )
        zl = sp.csr_matrix((mrow, off))
        zr = sp.csr_matrix((mrow, nvar - off - block))
        zn = sp.csr_matrix((mrow, n))
        # -(A'y - b lam) <= 0  and  -(A'z + b lam) <= -b
        ub_rows.append(sp.hstack([zl, -a, zn, b, zr]))
        ub_rhs.append(np.zeros(mrow))
        ub_rows.append(sp.hstack([zl, zn, -a, -b, zr]))
        ub_rhs.append(-can.b)
        # -(z_k + lam) <= -1
        row = sp.csr_matrix(
            ([-1.0, -1.0], ([0, 0], [off + n + k, off + 2 * n])), shape=(1, nvar)
        )
        ub_rows.append(row)
        ub_rhs.append(np.array([-1.0]))
    upper = np.full(nvar, np.inf)
    for k in range(n):
        off = n + k * block
        upper[off + k] = 0.0  # y^k_k <= 0
        upper[off + 2 * n] = 1.0  # lam_k <= 1
    cost = np.zeros(nvar)
    cost[:n] = -can.objective
    res = linprog(
        cost,
        A_ub=sp.vstack(ub_rows, format="csr"),
        b_ub=np.concatenate(ub_rhs),
        A_eq=sp.vstack(eq_rows, format="csr"),
        b_eq=np.zeros(n * n),
        bounds=np.column_stack([np.zeros(nvar), upper]),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"{model.name}: lifted LP status {res.status}")
    return float(can.sign * -res.fun)


def main(argv: list[str]) -> int:
    job_path, out_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    out = []
    for entry in job:
        model = Model.load(entry["model"])
        z_opt, x_opt = milp_optimum(model)
        rec = {
            "z_lp": lp_optimum(model),
            "z_opt": z_opt,
            "x_opt": None if x_opt is None else x_opt.tolist(),
        }
        if entry["pe"]:
            rec["z_pe"] = lifted_pe_bound(model)
        out.append(rec)
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
