import os

import numpy as np
import pytest

from liftproject.instances import normalize, parse_mps
from liftproject.standard_form import Basis, pivoted_qr

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
MIPLIB_DIR = os.path.join(DATA_DIR, "miplib3")

T1_MPS = """NAME          T1
ROWS
 N  COST
 L  R1
 L  R2
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    X1        R1             2.0   R2            -2.0
    MARKER                 'MARKER'                 'INTEND'
    X2        COST          -1.0   R1             1.0
    X2        R2             1.0
RHS
    RHS       R1             2.0
BOUNDS
 PL BND       X1
ENDATA
"""


def crash_basis(a: np.ndarray) -> Basis:
    """A start for a test LP over ``a`` that has none of its own: the
    columns a pivoted QR of ``a`` picks first, in ascending order, every
    other column at its lower bound.  A row-rank deficient ``a`` has no
    basis and raises ``ValueError``."""
    rmat, perm = pivoted_qr(a)
    rows = a.shape[0]
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.count_nonzero(np.abs(np.diag(rmat)) > 1e-10 * scale) < rows:
        raise ValueError("constraint matrix is row-rank deficient")
    return Basis(np.sort(perm[:rows]), np.zeros(a.shape[1], dtype=bool))


@pytest.fixture
def t1_instance():
    return parse_mps(T1_MPS)


@pytest.fixture
def t1(t1_instance):
    return normalize(t1_instance)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def miplib_path(name: str) -> str | None:
    """Path of a MIPLIB 3.0 instance if the user has provided it."""
    for fname in (f"{name}.mps", f"{name}.MPS", f"{name}.mps.gz"):
        path = os.path.join(MIPLIB_DIR, fname)
        if os.path.exists(path) and not fname.endswith(".gz"):
            return path
    return None


def require_miplib(name: str) -> str:
    path = miplib_path(name)
    if path is None:
        pytest.skip(
            f"MIPLIB 3.0 instance '{name}' not available; place {name}.mps "
            f"under data/miplib3/ to run this test (see data/miplib3/README.md)"
        )
    return path
