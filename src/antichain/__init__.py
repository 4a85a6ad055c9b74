"""Antichain surfaces of maximal Hausdorff measure in the unit cube.

The package builds the graph of F(x) = 1 - p(f(x_1), ..., f(x_{n-1})) for a
strictly increasing singular function f and the sorted-coordinate monotone
map p, checks that no two graph points are comparable, and estimates the
graph's Hausdorff quantities (cover sums, box dimension, planar length,
sampled projection areas) on dyadic grids.
"""

from .errors import (
    DEFAULT_EVAL_BUDGET,
    AntichainError,
    BudgetError,
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    PrecisionError,
)
from .measure import (
    DimensionEstimate,
    alpha,
    box_dimension,
    graph_length_n2,
    occupied_cell_count,
    projection_lower_bound,
    projection_measures,
)
from .singular import (
    SALEM,
    SingularFunctionSpec,
    SingularSetProbe,
    dyadic_slope,
    evaluate,
    evaluate_many,
    in_singular_set,
)
from .surface import (
    PairVerdict,
    Point,
    ScanResult,
    SurfaceSpec,
    F_eval,
    antichain_scan,
    check_antichain_pair,
    p_eval,
)

__version__ = "0.1.0"

__all__ = [
    "AntichainError",
    "BudgetError",
    "ConfigurationError",
    "DomainError",
    "InsufficientDataError",
    "PrecisionError",
    "DEFAULT_EVAL_BUDGET",
    "DimensionEstimate",
    "alpha",
    "box_dimension",
    "graph_length_n2",
    "occupied_cell_count",
    "projection_lower_bound",
    "projection_measures",
    "SALEM",
    "SingularFunctionSpec",
    "SingularSetProbe",
    "dyadic_slope",
    "evaluate",
    "evaluate_many",
    "in_singular_set",
    "PairVerdict",
    "Point",
    "ScanResult",
    "SurfaceSpec",
    "F_eval",
    "antichain_scan",
    "check_antichain_pair",
    "p_eval",
    "__version__",
]
