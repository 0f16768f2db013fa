"""Surface lofting through serial contours.

Two closed pipelines are provided.  The knot-reuse path interpolates each
row against a threaded input knot vector so rows share as many knots as
possible.  The common-knots path first builds one set of domain knots
feasible for every row, solves each row on that shared cyclic knot vector
(by energy minimization when under-determined), and clamps it; the rows are
compatible by construction.  An open-section pipeline (per-row averaging
knots) serves as the traditional baseline.

All three end in one shared step, :func:`_loft`: refine the clamped row
curves to the merge of their knot vectors (skipped when the caller passes
the knot vector they already share, as the common-knots path does),
interpolate the columns of row control points with open curves, and check
that the surface passes through every row point.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from typing import List, Optional

import numpy as np

from .errors import ClosedLoftError, InvalidInputError
from .curve_interp import (
    ClosedInterpolationProblem,
    build_domain_knots_by_input_knots,
    interpolate_closed_energy,
    interpolate_closed_square,
    interpolate_open,
    interpolate_points_by_input_knots,
)
from .linalg_solve import (
    assemble_open_collocation,
    semi_bandwidth,
    solve_banded_no_pivot,
    solve_dense,
    stiffness_matrix,
)
from .param_knots import (
    ParameterValues,
    averaging_knots_open,
    closed_parameters,
    open_parameters,
    parity_form,
)
from .spline_core import (
    BSplineSurface,
    KnotVector,
    as_points,
    bbox_diagonal,
    check_knot_multiplicities,
    clamp_closed_curve,
    clamped_knot_vector,
    cyclic_knot_vector,
    eval_surface,
    merge_domain_knots,
    merge_knot_vectors,
    missing_knots,
    refine_knots,
)

SURFACE_RESIDUAL_TOL = 1e-6


@dataclass
class ContourRows:
    """Serial rows of 3D points, optionally aligned.

    ``baseline`` records, per row, the index (in the row as supplied) of the
    point that became the starting point; ``reversed_flags`` records rows
    whose orientation was flipped to agree with the previous row's winding.
    """

    rows: List[np.ndarray]
    aligned: bool = False
    baseline: Optional[List[int]] = None
    reversed_flags: Optional[List[bool]] = None

    def __post_init__(self):
        self.rows = [as_points(r, min_count=3) for r in self.rows]
        if not self.rows:
            raise InvalidInputError("need at least one row of points")
        if self.aligned and self.baseline is None:
            self.baseline = [0] * len(self.rows)


def as_contour_rows(rows):
    return rows if isinstance(rows, ContourRows) else ContourRows(list(rows))


def _validate_closed_rows(rows, degree):
    for i, r in enumerate(rows.rows):
        if r.shape[0] < degree + 2:
            raise InvalidInputError(
                f"row {i}: closed degree-{degree} interpolation needs at least "
                f"{degree + 2} points, got {r.shape[0]}"
            )
        gaps = np.linalg.norm(np.roll(r, -1, axis=0) - r, axis=1)
        if np.any(gaps == 0.0):
            j = int(np.argmin(gaps))
            raise InvalidInputError(f"row {i}: coincident consecutive points at index {j}")


def _area_normal(points):
    c = points.mean(axis=0)
    rel = points - c
    return np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0) / 2.0


def align_contours(rows):
    """Chain-align rows: match each row's winding to the previous row and
    cyclically shift it so its start is nearest the previous start."""
    rows = as_contour_rows(rows)
    if len(rows.rows) < 2:
        raise InvalidInputError("alignment needs at least two rows")
    for i, r in enumerate(rows.rows):
        if np.ptp(r, axis=0).max() == 0.0:
            raise InvalidInputError(f"row {i}: all points coincide")
    out = [rows.rows[0]]
    baseline = [0]
    flipped = [False]
    prev_normal = _area_normal(rows.rows[0])
    prev_start = rows.rows[0][0]
    for r in rows.rows[1:]:
        rev = False
        normal = _area_normal(r)
        if np.dot(normal, prev_normal) < 0.0:
            r = r[::-1]
            normal = -normal
            rev = True
        shift = int(np.argmin(np.linalg.norm(r - prev_start, axis=1)))
        aligned = np.roll(r, -shift, axis=0)
        out.append(aligned)
        baseline.append((r.shape[0] - 1 - shift) if rev else shift)
        flipped.append(rev)
        if np.linalg.norm(normal) > 0.0:
            prev_normal = normal
        prev_start = aligned[0]
    return ContourRows(out, aligned=True, baseline=baseline, reversed_flags=flipped)


def _prepare(rows, degree, align):
    """The rows, validated as supplied, then aligned under ``align="auto"``."""
    rows = as_contour_rows(rows)
    _validate_closed_rows(rows, degree)
    if align == "none" or rows.aligned or len(rows.rows) == 1:
        return rows
    if align != "auto":
        raise InvalidInputError(f"unknown alignment mode {align!r}")
    return align_contours(rows)


@contextmanager
def _row(i):
    """Prefix a library error raised by row i's steps with ``row {i}: ``."""
    try:
        yield
    except ClosedLoftError as exc:
        raise type(exc)(f"row {i}: {exc}") from exc


def _row_parameters(rows):
    """Chord parameters of every row."""
    params = []
    for i, r in enumerate(rows):
        with _row(i):
            params.append(closed_parameters(r))
    return params


def _averaged_max_row_parameters(params):
    """Elementwise average of the chord parameters of the largest rows."""
    n_max = max(t.n for t in params)
    return ParameterValues(np.mean([t.values for t in params if t.n == n_max], axis=0))


def interpolate_all_row_points(rows, degree, per):
    """Interpolate every row against a threaded knot vector; returns each
    row's clamped curve, not yet refined to a common knot vector, and its
    solve parameters.

    The seed vector is the :func:`parity_form` anchors of the averaged
    parameters of the largest rows (natural knots for odd degree, shifting
    knots for even), and that call checks ``per``; each row's selections
    are merged back so later rows reuse earlier knots.  The rows are taken
    as given: a loft validates and aligns them first.
    """
    rows = as_contour_rows(rows)
    params = _row_parameters(rows.rows)
    seed_domain = parity_form(_averaged_max_row_parameters(params), degree, per)[0]
    threaded = clamped_knot_vector(seed_domain, degree)

    curves, solve_params = [], []
    for i, (r, t_row) in enumerate(zip(rows.rows, params)):
        with _row(i):
            out = interpolate_points_by_input_knots(r, t_row, threaded, degree, per)
            # a knot group that overfills the row's own curve fails every refinement
            check_knot_multiplicities(out.curve.knots.knots, degree)
        threaded = out.updated_input
        curves.append(out.curve)
        solve_params.append(out.solve_params.values)
    return curves, solve_params


def build_common_domain_knots(params, degree, per):
    """One set of domain knots feasible for every row, from the rows' chord
    parameters.

    Seeded by the :func:`parity_form` anchors of the averaged largest-row
    parameters, and that call checks ``per``; each row's selection is
    merged into the threaded seed (steering later rows toward shared knots)
    and the returned set is the merge of the per-row selections, so every
    row has a feasible subsequence in it.
    """
    threaded = parity_form(_averaged_max_row_parameters(params), degree, per)[0]
    collected = None
    for i, t_row in enumerate(params):
        with _row(i):
            selection = build_domain_knots_by_input_knots(t_row, threaded, degree, per)
        threaded = merge_domain_knots(threaded, selection)
        collected = selection if collected is None else merge_domain_knots(collected, selection)
    return collected


def _column_parameters(net):
    """Chord parameters of the column control polygons, averaged across columns.

    Columns of zero length count for nothing.  When no column has a length,
    or the averages do not increase strictly (two identical consecutive
    rows give every column a zero chord), the parameters are uniform.
    """
    m1 = net.shape[0]
    # one contiguous row per column, so each column's chords are summed in
    # the pairwise order of a sum over that column alone
    chords = np.linalg.norm(np.diff(np.ascontiguousarray(net.transpose(1, 0, 2)), axis=1), axis=2)
    total = chords.sum(axis=1)
    valid = ~(total <= 0.0)
    if not valid.any():
        return ParameterValues(np.linspace(0.0, 1.0, m1))
    params = np.zeros((int(valid.sum()), m1))
    params[:, 1:] = np.cumsum(chords[valid], axis=1) / total[valid, None]
    s = params.sum(axis=0) / params.shape[0]  # column after column
    s[0], s[-1] = 0.0, 1.0
    if np.any(np.diff(s) <= 0.0):
        return ParameterValues(np.linspace(0.0, 1.0, m1))
    return ParameterValues(s)


def _interpolate_columns(net, degree):
    """Open interpolation of all columns at shared longitudinal parameters."""
    m1, cols, _ = net.shape
    if m1 - 1 < degree:
        raise InvalidInputError(
            f"lofting degree {degree} needs at least {degree + 1} rows, got {m1}"
        )
    s = _column_parameters(net)
    kv_u = averaging_knots_open(s, degree)
    matrix = assemble_open_collocation(s, kv_u)
    rhs = net.reshape(m1, cols * 3)
    bw = semi_bandwidth(matrix)
    sol = solve_banded_no_pivot(matrix, bw, rhs) if bw < degree else solve_dense(matrix, rhs)
    return sol.reshape(m1, cols, 3), kv_u, s


@dataclass
class LoftResult:
    """A lofted surface with the diagnostics the pipelines report."""

    surface: BSplineSurface
    common_knots: KnotVector
    longitudinal_params: np.ndarray
    row_params: List[np.ndarray]
    max_surface_residual: float
    method: str
    per: Optional[float] = None
    rows: Optional[ContourRows] = None  # the (aligned) rows the result refers to

    @property
    def control_dims(self):
        return self.surface.net_shape

    @property
    def interior_knot_count(self):
        return self.common_knots.interior_count()


def _loft(rows, degree_u, method, per, curves, solve_params, common=None):
    """The step every pipeline ends with: make the clamped row curves
    compatible, interpolate the columns of their control points and check
    that the surface passes through every row point.

    Unless ``common`` is the knot vector the curves already share, each
    curve is refined to the merge of their knot vectors.
    """
    if common is None:
        common = reduce(merge_knot_vectors, (c.knots for c in curves))
        curves = [refine_knots(c, missing_knots(common, c.knots)) for c in curves]
        for c in curves:
            if c.knots.size != common.size or np.abs(c.knots.knots - common.knots).max() > 1e-9:
                raise ClosedLoftError("knot refinement failed to reach the common knot vector")
    control_net, kv_u, s = _interpolate_columns(np.stack([c.control_points for c in curves]), degree_u)
    surface = BSplineSurface(kv_u, common, control_net, closed_v=method != "open")
    scale = max(bbox_diagonal(np.vstack(rows.rows)), 1e-30)
    # every row's points in one evaluation: row i at u = s_i
    us = np.repeat(s.values, [t.size for t in solve_params])
    pts = eval_surface(surface, us, np.concatenate(solve_params))
    worst = float(np.linalg.norm(pts - np.concatenate(rows.rows), axis=1).max())
    if worst > SURFACE_RESIDUAL_TOL * scale:
        raise ClosedLoftError(
            f"surface residual {worst:.3e} exceeds {SURFACE_RESIDUAL_TOL:.0e} "
            "of the bounding-box diagonal"
        )
    return LoftResult(surface, common, s.values, solve_params, worst, method, per, rows)


def loft_closed_piegl(rows, degree_u, degree_v, per, align="auto"):
    """Closed lofting via per-row knot reuse, clamping and refinement."""
    rows = _prepare(rows, degree_v, align)
    curves, solve_params = interpolate_all_row_points(rows, degree_v, per)
    return _loft(rows, degree_u, "piegl", per, curves, solve_params)


def park_bend_weight(degree_v, beta):
    """The bend weight ``park`` solves with: 0 at degree 1, where second
    derivatives of the basis vanish inside every span."""
    return beta if degree_v >= 2 else 0.0


def loft_closed_park(rows, degree_u, degree_v, per, alpha=1.0, beta=0.2, align="auto"):
    """Closed lofting via common domain knots and per-row energy solves.

    Every row shares one cyclic knot vector, so a single clamping pass per
    row yields compatible curves without refinement.  The stiffness matrix
    of the energy solves is built once for all rows.  The bend weight used
    is that of :func:`park_bend_weight`.
    """
    beta = park_bend_weight(degree_v, beta)
    rows = _prepare(rows, degree_v, align)
    params = _row_parameters(rows.rows)
    common_domain = build_common_domain_knots(params, degree_v, per)
    stiff = None
    curves, solve_params = [], []
    for i, (r, t_row) in enumerate(zip(rows.rows, params)):
        with _row(i):
            t_solve = parity_form(t_row, degree_v)[1]
            problem = ClosedInterpolationProblem(r, t_solve, common_domain, degree_v)
            if problem.nhat > problem.n:
                if stiff is None:
                    kv = cyclic_knot_vector(common_domain, degree_v)
                    stiff = stiffness_matrix(kv, alpha, beta)
                res = interpolate_closed_energy(problem, stiff)
            else:
                res = interpolate_closed_square(problem)
            curves.append(clamp_closed_curve(res.curve))
        solve_params.append(t_solve.values)
    # all rows share the cyclic knot vector, so the clamped one too
    return _loft(rows, degree_u, "park", per, curves, solve_params, common=curves[0].knots)


def loft_open(rows, degree_u, degree_v):
    """Traditional open-section lofting: averaging knots per row, then the
    shared merge, refinement and column interpolation."""
    rows = as_contour_rows(rows)
    curves, params = [], []
    for i, r in enumerate(rows.rows):
        with _row(i):
            t_row = open_parameters(r)
            kv = averaging_knots_open(t_row, degree_v)
            curves.append(interpolate_open(r, t_row, kv).curve)
        params.append(t_row.values)
    return _loft(rows, degree_u, "open", None, curves, params)
