"""Closed-contour B-spline interpolation and surface lofting.

Interpolates serial closed contours with periodic B-spline curves, lofts
them into a surface over a minimal common knot vector, and ships a
randomized harness that stress-tests the invertibility/full-rank conditions
the knot selection relies on.
"""

__version__ = "0.1.0"

from .errors import (
    ClosedLoftError,
    ContractError,
    DomainError,
    InvalidInputError,
    PreconditionError,
    SingularSystemError,
)
from .spline_core import (
    BSplineCurve,
    BSplineSurface,
    KnotVector,
    basis_derivatives,
    basis_functions,
    clamp_closed_curve,
    clamped_knot_vector,
    curve_derivatives,
    cyclic_knot_vector,
    eval_curve,
    eval_surface,
    merge_knot_vectors,
    refine_knots,
    surface_partial,
)
from .param_knots import (
    ParameterValues,
    averaging_knots_open,
    check_conjecture1,
    check_conjecture2,
    closed_knots,
    closed_parameters,
    open_parameters,
    shift_parameters,
)
from .curve_interp import (
    ClosedInterpolationProblem,
    InterpolationResult,
    build_domain_knots_by_input_knots,
    interpolate_closed_energy,
    interpolate_closed_square,
    interpolate_open,
    interpolate_points_by_input_knots,
)
from .loft import (
    ContourRows,
    LoftResult,
    align_contours,
    build_common_domain_knots,
    interpolate_all_row_points,
    loft_closed_park,
    loft_closed_piegl,
    loft_open,
)
from .conjecture_lab import (
    TrialConfig,
    TrialReport,
    boundary_stress,
    run_conjecture1_trials,
    run_conjecture2_trials,
)
from .cli_io import (
    SurfaceFile,
    export_obj,
    format_report,
    main,
    parse_contours,
    parse_surface,
    serialize_surface,
)
