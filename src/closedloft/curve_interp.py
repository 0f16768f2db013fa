"""Open and closed B-spline curve interpolation, the energy-minimizing
under-determined variant, and the condition-guided knot selection used when
interpolating against an existing knot vector.

The closed solvers solve for the n̂+1 distinct controls directly, with the
folded periodic collocation matrix N·E (see ``periodic_collocation``).  The
interpolation conditions are stated for the stacked system [N; A], collocation
rows over wrap-constraint rows; N·E is invertible exactly when [N; A] is.
Closure holds by construction: there are no wrap copies to snap.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ContractError, InvalidInputError, PreconditionError, SingularSystemError
from .linalg_solve import (
    RankReport,
    assemble_open_collocation,
    periodic_collocation,
    rank_report,
    semi_bandwidth,
    solve_banded_no_pivot,
    solve_dense,
    solve_kkt,
)
from .param_knots import SELECT_MARGIN, check_conjecture1, check_conjecture2, parity_form
from .spline_core import (
    BSplineCurve,
    KnotVector,
    as_points,
    bbox_diagonal,
    clamp_closed_curve,
    cyclic_knot_vector,
    eval_curve,
    knot_multiplicities,
    merge_knot_vectors,
    validate_domain_knots,
)

OPEN_RESIDUAL_TOL = 1e-9
CLOSED_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class InterpolationResult:
    """A solved interpolation: the curve, its worst residual (model units),
    and the system matrix that produced it."""

    curve: BSplineCurve
    max_residual: float
    system: np.ndarray
    condition_ok: Optional[bool] = None

    @cached_property
    def diagnostics(self) -> RankReport:
        """Rank and condition of :attr:`system`.  The SVD runs on first read:
        the lofting pipelines never read it."""
        return rank_report(self.system)


@dataclass(frozen=True)
class ClosedInterpolationProblem:
    """Data points with their parameters and candidate domain knots.

    The parity contract (even degree uses shifted parameters, odd unshifted)
    is reported by :attr:`parity_ok`; the solvers warn when it is broken
    because the sufficient condition can then not be evaluated.
    """

    points: np.ndarray
    params: object
    domain_knots: np.ndarray
    degree: int

    def __post_init__(self):
        pts = as_points(self.points, min_count=3)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain_knots", validate_domain_knots(self.domain_knots))
        p = int(self.degree)
        if pts.shape[0] != self.params.values.size:
            raise InvalidInputError("one parameter per data point is required")
        if pts.shape[0] < p + 2:
            raise InvalidInputError(
                f"closed degree-{p} interpolation needs at least {p + 2} points"
            )
        if self.params.values[-1] >= 1.0:
            raise InvalidInputError("closed parameters must lie in [0, 1)")
        if self.nhat < self.n:
            raise InvalidInputError("domain knots provide fewer knots than data points")

    @property
    def n(self):
        return self.points.shape[0] - 1

    @property
    def nhat(self):
        return self.domain_knots.size - 2

    @property
    def parity_ok(self):
        return (self.degree % 2 == 0) == bool(self.params.shifted)


def _relative_scale(points):
    return max(bbox_diagonal(points), np.abs(points).max(), 1e-30)


def interpolate_open(points, params, kv):
    """Square open interpolation over a clamped knot vector.

    Uses the no-pivot banded path when the collocation matrix is banded (the
    averaging-knot case), and pivoted dense elimination otherwise.
    """
    pts = as_points(points, min_count=2)
    if params.values.size != pts.shape[0]:
        raise InvalidInputError("one parameter per data point is required")
    if kv.n_basis != pts.shape[0]:
        raise InvalidInputError(
            f"square interpolation needs {kv.n_basis} points for this knot vector"
        )
    matrix = assemble_open_collocation(params, kv)
    bw = semi_bandwidth(matrix)
    ctrl = solve_banded_no_pivot(matrix, bw, pts) if bw < kv.degree else solve_dense(matrix, pts)
    residual = float(np.linalg.norm(matrix @ ctrl - pts, axis=1).max())
    if residual > OPEN_RESIDUAL_TOL * _relative_scale(pts):
        raise SingularSystemError(
            f"open interpolation residual {residual:.3e} exceeds tolerance",
            rank_report=rank_report(matrix),
        )
    curve = BSplineCurve(kv, ctrl)
    return InterpolationResult(curve, residual, matrix)


def interpolate_closed_square(problem):
    """Square closed interpolation (as many distinct controls as points)."""
    if problem.nhat != problem.n:
        raise InvalidInputError("square closed interpolation requires nhat == n")
    p = problem.degree
    if not problem.parity_ok:
        verdict = None
        warnings.warn(
            f"degree-{p} closed interpolation with "
            f"{'shifted' if problem.params.shifted else 'unshifted'} parameters: "
            "the invertibility condition cannot be checked and the system "
            "may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        verdict = check_conjecture1(problem.params, problem.domain_knots, p)
        if not verdict:
            warnings.warn(
                "domain knots violate the closed interpolation condition; "
                "the system matrix may be singular",
                RuntimeWarning,
                stacklevel=2,
            )
    kv = cyclic_knot_vector(problem.domain_knots, p)
    matrix = periodic_collocation(problem.params, kv)
    try:
        ctrl = solve_dense(matrix, problem.points)
    except SingularSystemError as exc:
        raise SingularSystemError(
            "closed system matrix is numerically singular",
            rank_report=exc.rank_report or rank_report(matrix),
            condition_ok=verdict,
        ) from exc
    return _finish_closed(problem, kv, matrix, ctrl, verdict)


def interpolate_closed_energy(problem, stiff):
    """Under-determined closed interpolation by constrained energy minimization.

    Refuses to run when no subsequence of the domain knots satisfies the
    square condition, since full rank of the constraint block is then not
    guaranteed.  The energy is ``stiff``, a ``stiffness_matrix(kv, alpha,
    beta)`` on the cyclic knot vector of the domain knots; rows lofted on
    one set of domain knots share it.
    """
    p = problem.degree
    if not problem.parity_ok:
        raise ContractError(
            "energy interpolation requires parity-correct parameters "
            "(shifted iff the degree is even)"
        )
    ok, _witness = check_conjecture2(problem.params, problem.domain_knots, p)
    if not ok:
        raise PreconditionError(
            "no subsequence of the domain knots satisfies the closed "
            "interpolation condition; full rank is not guaranteed"
        )
    import scipy.sparse  # here, not at the top: `import closedloft` stays lean

    kv = cyclic_knot_vector(problem.domain_knots, p)
    matrix = periodic_collocation(problem.params, kv)
    if np.shape(stiff) != (kv.n_basis, kv.n_basis):
        raise InvalidInputError("stiffness matrix does not match the knot vector")
    # EᵀKE: fold rows and columns like the collocation columns; solve_kkt
    # sums the duplicate entries
    k = scipy.sparse.coo_array(stiff)
    m = matrix.shape[1]
    folded = scipy.sparse.coo_array((k.data, (k.row % m, k.col % m)), shape=(m, m))
    ctrl, _mults = solve_kkt(folded, matrix, problem.points)
    return _finish_closed(problem, kv, matrix, ctrl, True)


def _finish_closed(problem, kv, matrix, ctrl, verdict):
    curve = BSplineCurve(kv, ctrl)
    residual = float(
        np.linalg.norm(
            eval_curve(curve, problem.params.values) - problem.points, axis=1
        ).max()
    )
    if residual > CLOSED_RESIDUAL_TOL * _relative_scale(problem.points):
        raise SingularSystemError(
            f"closed interpolation residual {residual:.3e} exceeds tolerance",
            rank_report=rank_report(matrix),
            condition_ok=verdict,
        )
    return InterpolationResult(curve, residual, matrix, verdict)


def select_domain_knots(params, input_kv, degree, per):
    """Knot selection against an existing knot vector (the square pipeline).

    Bracket i (the per-scaled bracket (a_i, b_i) of :func:`parity_form`)
    takes the distinct input knot nearest its anchor u_i, the smaller of two
    at equal distance, when that knot lies more than ``SELECT_MARGIN``
    inside the bracket, and u_i otherwise.  The brackets are disjoint and
    ordered, so the selections increase strictly without a check against
    the previous one.
    """
    anchors, _, a, b = parity_form(params, degree, per)
    u = anchors[1:-1]
    candidates = np.asarray(knot_multiplicities(input_kv.knots)[0])
    # the neighbours around each anchor; the nearer wins, the left one on a tie
    j = np.clip(np.searchsorted(candidates, u, "left"), 1, candidates.size - 1)
    left, right = candidates[j - 1], candidates[j]
    c = np.where(u - left <= right - u, left, right)
    inside = (a + SELECT_MARGIN < c) & (c < b - SELECT_MARGIN)
    return validate_domain_knots(np.concatenate([[0.0], np.where(inside, c, u), [1.0]]))


@dataclass(frozen=True)
class InputKnotInterpolation:
    """Output bundle of the interpolate-against-input-knots pipeline."""

    curve: BSplineCurve          # clamped
    updated_input: KnotVector
    result: InterpolationResult  # the underlying closed square solve
    solve_params: object = None  # parameters the curve interpolates at


def interpolate_points_by_input_knots(points, params, input_kv, degree, per):
    """Closed interpolation reusing knots of an input vector where possible.

    Selects parity-correct domain knots inside the per-intervals, solves the
    square closed system on the resulting cyclic knot vector, clamps the
    curve, and merges its clamped knot vector into the input vector.
    """
    p = int(degree)
    if input_kv.degree != p:
        raise InvalidInputError("input knot vector degree must match the requested degree")
    if params.shifted:
        raise ContractError("pass unshifted parameters; shifting is applied internally")
    pts = as_points(points, min_count=3)
    domain = select_domain_knots(params, input_kv, p, per)
    solve_params = parity_form(params, p)[1]
    problem = ClosedInterpolationProblem(pts, solve_params, domain, p)
    result = interpolate_closed_square(problem)
    clamped = clamp_closed_curve(result.curve)
    updated = merge_knot_vectors(input_kv, clamped.knots)
    return InputKnotInterpolation(clamped, updated, result, solve_params)


def build_domain_knots_by_input_knots(params, input_domain, degree, per):
    """Selection of domain knots from an input domain-knot set, one input
    knot per bracket at most.

    Bracket i (the per-scaled bracket (a_i, b_i) of :func:`parity_form`)
    takes d_j, the first input knot at or above a_i + ``SELECT_MARGIN``,
    when d_j lies below b_i - ``SELECT_MARGIN``, and its anchor u_i
    otherwise (also when no such input knot exists).  The output always
    satisfies the square condition for these parameters.

    This is the span scan over the input knots in closed form.  The scan
    offers bracket i + 1 the knot after a pick and the same knot after a
    miss, then steps over every knot below a_{i+1} + ``SELECT_MARGIN``.  A
    pick d_j lies below b_i - ``SELECT_MARGIN``, under a_{i+1} +
    ``SELECT_MARGIN``, so the search for bracket i + 1 lands after j too;
    a miss re-offers d_j, which that search reaches again since a_{i+1} >=
    a_i.  So the scan's knot is the search's for every bracket, and each
    pick lies above the previous bracket and its selection.
    """
    d = validate_domain_knots(input_domain)
    anchors, _, a, b = parity_form(params, degree, per)
    j = np.searchsorted(d, a + SELECT_MARGIN, "left")
    c = d[np.minimum(j, d.size - 1)]
    inside = (j < d.size) & (c < b - SELECT_MARGIN)
    return validate_domain_knots(np.concatenate([[0.0], np.where(inside, c, anchors[1:-1]), [1.0]]))
