"""Rank-1 lift-and-project / GMI closure bounds for MILPs.

The package optimizes the simple elementary-disjunction closure of a MILP
exactly (up to a tolerance) and approximates the strengthened (GMI)
closure, using a bound-revision membership LP as the separation oracle
inside a Kelley cutting-plane loop.
"""

from .closure import (
    ClosureConfig,
    ClosureReport,
    gap_closed,
    gmi_rounds,
    optimize_closure,
)
from .cuts import CutRow, gmi_cut, intersection_cut
from .instances import (
    MilpInstance,
    MpsParseError,
    NormalizedMilp,
    NormalizeError,
    load_optima,
    normalize,
    parse_mps,
    read_mps,
)
from .membership import (
    DualCertificate,
    FractionalPoint,
    Separation,
    membership_problem,
    membership_value,
    separate,
)
from .simplex import BoundedLp, SimplexResult, Status, solve
from .standard_form import Basis, StandardLp, to_standard

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BoundedLp",
    "ClosureConfig",
    "ClosureReport",
    "CutRow",
    "DualCertificate",
    "FractionalPoint",
    "MilpInstance",
    "MpsParseError",
    "NormalizedMilp",
    "NormalizeError",
    "Separation",
    "SimplexResult",
    "StandardLp",
    "Status",
    "gap_closed",
    "gmi_cut",
    "gmi_rounds",
    "intersection_cut",
    "load_optima",
    "membership_problem",
    "membership_value",
    "normalize",
    "optimize_closure",
    "parse_mps",
    "read_mps",
    "separate",
    "solve",
    "to_standard",
]
