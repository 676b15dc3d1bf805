"""High-order spline interpolation on regular rectangular grids.

Derivation runs in exact rational arithmetic; evaluation runs on precomputed
float Horner forms.  See the README for the command-line interface.
"""

from .basis import (
    MAX_NODES,
    MAX_ORDER,
    AlphaFamily,
    BetaFamily,
    SplineKind,
    ValidationReport,
    alpha_closed_form,
    beta_eval,
    derive_alpha,
    derive_beta,
    derive_beta_direct,
    export_records,
    validate_family,
)
from .errors import DerivativeTooHigh, InvalidKind, InvalidOrder, InvalidPoint, OutOfDomain, SingularMatrix
from .exact import (
    RationalPolynomial,
    rational_from_str,
    rational_to_str,
    solve_linear_system,
)
from .field import (
    PERIODIC,
    STRICT,
    GridField,
    evaluate,
    evaluate_at_cell,
    evaluate_derivative,
    evaluate_hermite,
    evaluate_many,
    gather_local,
    grid_coordinates,
    load_field,
    partitioned_evaluate,
    save_field,
)
from .stencil import derive_stencil

__version__ = "0.1.0"

__all__ = [
    "AlphaFamily",
    "BetaFamily",
    "DerivativeTooHigh",
    "GridField",
    "InvalidKind",
    "InvalidOrder",
    "InvalidPoint",
    "MAX_NODES",
    "MAX_ORDER",
    "OutOfDomain",
    "PERIODIC",
    "RationalPolynomial",
    "STRICT",
    "SingularMatrix",
    "SplineKind",
    "ValidationReport",
    "alpha_closed_form",
    "beta_eval",
    "derive_alpha",
    "derive_beta",
    "derive_beta_direct",
    "derive_stencil",
    "evaluate",
    "evaluate_at_cell",
    "evaluate_derivative",
    "evaluate_hermite",
    "evaluate_many",
    "export_records",
    "gather_local",
    "grid_coordinates",
    "load_field",
    "partitioned_evaluate",
    "rational_from_str",
    "rational_to_str",
    "save_field",
    "solve_linear_system",
    "validate_family",
]
