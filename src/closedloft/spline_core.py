"""B-spline primitives: knot vectors, basis evaluation, open/closed curves,
tensor-product surfaces, clamping, knot refinement and knot-vector merging.

Knot refinement inserts all new knots in one vectorized pass (the Oslo
algorithm), not one Boehm insertion at a time.  Knot multisets (grouping,
merging, missing knots) are numpy passes too; only a chain of knots closer
than ``KNOT_TOL`` that spans more than it is walked knot by knot.

Conventions used throughout the package:

* All knot vectors are normalized to the domain ``[0, 1]``.
* Points are float64 arrays of shape ``(n, 3)``; single points are ``(3,)``.
* Closed curves are stored in canonical form: the distinct control points
  only.  The evaluation kernels read basis function j of a cyclic knot
  vector from distinct control j mod n̂+1 (see :mod:`closedloft._kernels`).
* Evaluation at the right domain endpoint is the limit from the left, so
  ``eval_curve(c, 1.0)`` is always defined.

Everything here is a pure function over immutable values; arrays are never
mutated after construction.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, InvalidInputError

CLAMPED = "clamped"
CYCLIC = "cyclic"

# Knots closer than this (on the normalized [0,1] domain) are treated as the
# same knot when merging and counting multiplicities.
KNOT_TOL = 1e-10


def as_points(points, min_count=1):
    """Validate and return an (n, 3) float64 point array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"expected an (n, 3) point array, got shape {pts.shape}")
    if pts.shape[0] < min_count:
        raise InvalidInputError(f"need at least {min_count} points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("point coordinates must be finite")
    return pts


def bbox_diagonal(points):
    pts = np.asarray(points, dtype=float)
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def row_prefix(lengths, width):
    """Mask of a padded batch: entry (b, j) is True for j < lengths[b]."""
    return np.arange(width) < np.asarray(lengths)[:, None]


def row_window(a, start, count):
    """``a[..., start: start + count]``; ``start`` is an int, or one start per
    row of a 2-D ``a``."""
    if isinstance(start, (int, np.integer)):
        return a[..., start: start + count]
    return np.take_along_axis(a, np.asarray(start)[:, None] + np.arange(count), axis=-1)


def check_lengths(lengths, rows, width, minimum):
    """Row lengths of a padded (rows, width) batch, each in [minimum, width]."""
    n = np.asarray(lengths)
    if n.shape != (rows,) or n.dtype.kind not in "iu":
        raise InvalidInputError("row lengths must be one integer per row")
    if (n < minimum).any() or (n > width).any():
        raise InvalidInputError(f"row lengths must lie in [{minimum}, {width}]")
    return n


def validate_domain_knots(values, lengths=None):
    """Validate a domain-knot sequence u_0 < ... < u_{n+1} with u_0 = 0, u_{n+1} = 1.

    With ``lengths``, ``values`` is a padded 2-D batch: row b holds a
    sequence of lengths[b] knots, then padding that is not checked.  Every
    row must pass.
    """
    d = np.asarray(values, dtype=float)
    if d.ndim != (1 if lengths is None else 2) or d.shape[-1] < 2:
        raise InvalidInputError("domain knots must be a 1-D sequence of length >= 2")
    if lengths is None:
        live, last, falls = d, d[-1], d[1:] <= d[:-1]
    else:
        n = check_lengths(lengths, d.shape[0], d.shape[1], 2)
        valid = row_prefix(n, d.shape[1])
        live, last = d[valid], row_window(d, n - 1, 1)
        falls = (d[:, 1:] <= d[:, :-1]) & valid[:, 1:]
    if not np.isfinite(live).all():
        raise InvalidInputError("domain knots must be finite")
    if (np.abs(d[..., 0]) > 1e-12).any() or (np.abs(last - 1.0) > 1e-12).any():
        raise InvalidInputError("domain knots must start at 0 and end at 1")
    if falls.any():  # finite, so the same as diff <= 0
        raise InvalidInputError("domain knots must be strictly increasing")
    return d


@dataclass(frozen=True)
class KnotVector:
    """A full knot array with its degree and style (clamped or cyclic).

    ``knots`` is the complete array including the p+1 repeated end knots
    (clamped) or the p cyclically-extended knots on each side (cyclic).
    With ``lengths``, ``knots`` is a padded 2-D batch of knot vectors of one
    degree and style: row b holds lengths[b] knots, then padding that is not
    checked.  Every row must pass the checks, and ``size`` and ``n_basis``
    become one value per row.
    """

    knots: np.ndarray
    degree: int
    style: str
    lengths: Optional[np.ndarray] = None

    def __post_init__(self):
        kv = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", kv)
        p = self.degree
        if p < 1:
            raise InvalidInputError(f"degree must be >= 1, got {p}")
        if self.style not in (CLAMPED, CYCLIC):
            raise InvalidInputError(f"unknown knot-vector style {self.style!r}")
        if kv.ndim != (1 if self.lengths is None else 2):
            raise InvalidInputError("knots must be 1-D, or a 2-D batch with lengths")
        if kv.shape[-1] < 2 * p + 2:
            raise InvalidInputError("knot array too short for degree")
        if self.lengths is None:
            size, live, falls = kv.shape[-1], kv, kv[1:] < kv[:-1]
        else:
            size = check_lengths(self.lengths, kv.shape[0], kv.shape[1], 2 * p + 2)
            object.__setattr__(self, "lengths", size)
            valid = row_prefix(size, kv.shape[1])
            live, falls = kv[valid], (kv[:, 1:] < kv[:, :-1]) & valid[:, 1:]
        if not np.isfinite(live).all():
            raise InvalidInputError("knots must be finite")
        if falls.any():  # finite, so the same as a decrease
            raise InvalidInputError("knots must be non-decreasing")
        lo, hi = kv[..., p], row_window(kv, size - p - 1, 1)
        if (np.abs(lo) > 1e-12).any() or (np.abs(hi - 1.0) > 1e-12).any():
            raise InvalidInputError("domain must be [0, 1]")
        if self.style == CLAMPED:
            if (kv[..., : p + 1] != kv[..., :1]).any() or (row_window(kv, size - p - 1, p + 1) != hi).any():
                raise InvalidInputError("clamped style requires p+1 equal end knots")
        else:
            self._check_cyclic_extension(kv, p, size)

    @staticmethod
    def _check_cyclic_extension(kv, p, size):
        # the recurrences of cyclic_knot_vector for all p knots of a side at
        # once: knot q < p against q+1, q+n1, q+n1+1; knot r > p+n1 against
        # r-1, r-n1, r-n1-1
        n1 = size - 2 * p - 1  # domain index of u_{n+1}
        left = kv[..., :p]
        left_ref = kv[..., 1: p + 1] + row_window(kv, n1, p) - row_window(kv, n1 + 1, p)
        right = row_window(kv, p + n1 + 1, p)
        right_ref = row_window(kv, p + n1, p) + kv[..., p + 1: 2 * p + 1] - kv[..., p: 2 * p]
        if (np.abs(left - left_ref) > 1e-9).any() or (np.abs(right - right_ref) > 1e-9).any():
            raise InvalidInputError("knots do not satisfy the cyclic extension recurrences")

    @property
    def size(self):
        return int(self.knots.shape[-1]) if self.lengths is None else self.lengths

    @property
    def n_basis(self):
        """Number of basis functions defined over this knot vector."""
        return self.size - self.degree - 1

    @property
    def domain_knots(self):
        """The domain segment u_0 .. u_{n+1} (a view); in a padded batch, row
        b's domain is the first lengths[b] - 2p entries of its row."""
        return self.knots[..., self.degree: self.knots.shape[-1] - self.degree]

    def interior_count(self):
        """Number of domain knots strictly inside (0, 1), with multiplicity."""
        d = self.domain_knots
        return int(np.sum((d > KNOT_TOL) & (d < 1.0 - KNOT_TOL)))

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.style == other.style
            and self.knots.shape == other.knots.shape
            and bool(np.all(self.knots == other.knots))
            and np.array_equal(self.size, other.size)
        )


def cyclic_knot_vector(domain, degree, lengths=None):
    """Extend domain knots by the period-preserving recurrences on both sides.

    The p knots on each side are u_{-i} = u_{-(i-1)} + u_{n-i+1} - u_{n-i+2}
    and u_{n+i+1} = u_{n+i} + u_i - u_{i-1}; the domain segment is preserved
    verbatim.  With ``lengths``, ``domain`` is a padded batch of domains (see
    :func:`validate_domain_knots`); each row is extended by the same
    recurrences, at its own column indices, into a padded batch
    :class:`KnotVector`.  The padding of row b follows its lengths[b] + 2p
    knots, copied from ``domain``'s padding.
    """
    d = validate_domain_knots(domain, lengths)
    p = int(degree)
    if p < 1:
        raise InvalidInputError(f"degree must be >= 1, got {p}")
    n1 = (d.shape[-1] if lengths is None else np.asarray(lengths)) - 1  # index of u_{n+1}
    full = np.empty(d.shape[:-1] + (d.shape[-1] + 2 * p,))
    full[..., p: p + d.shape[-1]] = d
    at = ()
    if lengths is not None:
        full[:, p + d.shape[1]:] = d[:, -1:]  # more padding; the longest rows extend into it
        at = (np.arange(d.shape[0]),)  # one column index per row
    # The recurrences may reference already-extended knots when the domain is
    # shorter than the degree (e.g. a single span), so index the full array.
    for i in range(1, p + 1):
        full[..., p - i] = full[..., p - i + 1] + full[at + (p + n1 - i,)] - full[at + (p + n1 - i + 1,)]
        full[at + (p + n1 + i,)] = full[at + (p + n1 + i - 1,)] + full[..., p + i] - full[..., p + i - 1]
    return KnotVector(full, p, CYCLIC, None if lengths is None else n1 + 1 + 2 * p)


def clamped_knot_vector(domain, degree):
    """Clamped knot vector: p+1 zeros, the interior domain knots, p+1 ones."""
    d = validate_domain_knots(domain)
    p = int(degree)
    if p < 1:
        raise InvalidInputError(f"degree must be >= 1, got {p}")
    full = np.concatenate([np.zeros(p), d, np.ones(p)])
    return KnotVector(full, p, CLAMPED)


def _check_in_domain(u):
    u = np.asarray(u, dtype=float)
    # written so that NaN, which fails every comparison, is rejected too
    outside = ~((u >= 0.0) & (u <= 1.0))
    if np.any(outside):
        raise DomainError(f"parameter {float(u[outside][0])} outside domain [0, 1]")
    return u


def find_span(kv, u):
    _check_in_domain(u)
    return int(_kernels.find_span(kv.knots, kv.degree, float(u)))


def nonzero_basis(kv, u):
    """The p+1 nonzero basis values at u, with the containing span index."""
    _check_in_domain(u)
    span = int(_kernels.find_span(kv.knots, kv.degree, float(u)))
    return span, _kernels.basis_funs(kv.knots, kv.degree, span, float(u))


def basis_functions(kv, u):
    """Full row of basis values N_{j,p}(u), j = 0 .. n_basis-1."""
    _check_in_domain(u)
    row = _kernels.collocation_matrix(kv.knots, kv.degree, kv.n_basis, np.array([float(u)]))
    return row[0]


def basis_derivatives(kv, u, order):
    """Derivatives of the nonzero basis functions at u, orders 0 .. order.

    Returns ``(span, ders)`` with ders of shape (order+1, p+1): row k holds
    the k-th derivatives of basis functions span-p .. span.  order = 0
    reproduces :func:`nonzero_basis`.
    """
    _check_in_domain(u)
    k = int(order)
    if k < 0 or k > kv.degree:
        raise InvalidInputError(f"derivative order {k} outside 0..{kv.degree}")
    span = int(_kernels.find_span(kv.knots, kv.degree, float(u)))
    return span, _kernels.ders_basis_funs(kv.knots, kv.degree, span, float(u), k)


def _distinct_count(kv):
    """Control points (net columns) over a knot vector: one per basis
    function, less the p that a cyclic knot vector wraps."""
    return kv.n_basis - (kv.degree if kv.style == CYCLIC else 0)


@dataclass(frozen=True)
class BSplineCurve:
    """A knot vector plus its distinct control points.

    Over a clamped knot vector the curve is open and has ``n_basis``
    controls.  Over a cyclic one it is closed and has ``n_basis - p``: basis
    function j uses control j mod (n̂+1).  ``degree`` and ``kind`` ("open"
    or "closed") are read from the knot vector.
    """

    knots: KnotVector
    control_points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "control_points", as_points(self.control_points))
        want, n = _distinct_count(self.knots), self.control_points.shape[0]
        if n != want:
            raise InvalidInputError(f"{self.kind} curve needs {want} control points, got {n}")

    @property
    def degree(self):
        return self.knots.degree

    @property
    def kind(self):
        return "closed" if self.knots.style == CYCLIC else "open"


def eval_curve(curve, u):
    """Point(s) on the curve; scalar u gives (3,), array u gives (m, 3)."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    _check_in_domain(u_arr)
    pts = _kernels.curve_points(
        curve.knots.knots, curve.degree, curve.control_points, u_arr
    )
    return pts[0] if np.isscalar(u) or np.ndim(u) == 0 else pts


def curve_derivatives(curve, u, order):
    """Derivatives d^k C / du^k for k = 0 .. order at u; shape (order+1, 3)."""
    if order < 0 or order > curve.degree:
        raise InvalidInputError(f"derivative order {order} outside 0..{curve.degree}")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    _check_in_domain(u_arr)
    ders = _kernels.curve_derivatives(
        curve.knots.knots, curve.degree, curve.control_points, u_arr, int(order)
    )
    return ders[0] if np.isscalar(u) or np.ndim(u) == 0 else ders


@dataclass(frozen=True)
class BSplineSurface:
    """Tensor-product surface: two knot vectors and the control net.

    The u knot vector is clamped; v may be clamped or cyclic.  Over a
    cyclic v knot vector the net holds the distinct columns only, as a
    closed curve holds its distinct controls.  ``closed_v`` marks surfaces
    that are geometrically closed in v even when stored over a clamped v
    knot vector (the lofting pipelines clamp rows before assembling the
    net); it is set for a cyclic v knot vector.  ``degree_u`` and
    ``degree_v`` are read from the knot vectors.
    """

    knots_u: KnotVector
    knots_v: KnotVector
    control_net: np.ndarray
    closed_v: bool = False

    def __post_init__(self):
        net = np.asarray(self.control_net, dtype=float)
        object.__setattr__(self, "control_net", net)
        if net.ndim != 3 or net.shape[2] != 3:
            raise InvalidInputError("control net must have shape (rows, cols, 3)")
        if not np.all(np.isfinite(net)):
            raise InvalidInputError("control net must be finite")
        if self.knots_u.style != CLAMPED:
            raise InvalidInputError("surfaces are open (clamped) in the u direction")
        if net.shape[0] != self.knots_u.n_basis:
            raise InvalidInputError("control net row count does not match u knot vector")
        want_cols = _distinct_count(self.knots_v)
        if net.shape[1] != want_cols:
            raise InvalidInputError(
                f"control net needs {want_cols} columns, got {net.shape[1]}"
            )
        if self.knots_v.style == CYCLIC:
            object.__setattr__(self, "closed_v", True)

    @property
    def degree_u(self):
        return self.knots_u.degree

    @property
    def degree_v(self):
        return self.knots_v.degree

    @property
    def net_shape(self):
        return self.control_net.shape[:2]


def eval_surface(surface, u, v):
    """Point(s) on the surface at (u, v); accepts scalars or 1-1 arrays."""
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if u_arr.shape != v_arr.shape:
        raise InvalidInputError("u and v sample arrays must have equal length")
    _check_in_domain(u_arr)
    _check_in_domain(v_arr)
    pts = _kernels.surface_points(
        surface.knots_u.knots, surface.degree_u,
        surface.knots_v.knots, surface.degree_v,
        surface.control_net, u_arr, v_arr,
    )
    return pts[0] if scalar else pts


def surface_partial(surface, u, v, du, dv):
    """The (du, dv) mixed partial of the surface at (u, v)."""
    if du < 0 or du > surface.degree_u or dv < 0 or dv > surface.degree_v:
        raise InvalidInputError("partial order outside the degree range")
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    _check_in_domain(u_arr)
    _check_in_domain(v_arr)
    pts = _kernels.surface_partial(
        surface.knots_u.knots, surface.degree_u,
        surface.knots_v.knots, surface.degree_v,
        surface.control_net, u_arr, v_arr, int(du), int(dv),
    )
    return pts[0] if scalar else pts


def clamp_closed_curve(curve):
    """Re-express a closed curve over a clamped knot vector (Procedure-1 style).

    The two triangular passes blend the first/last control points with
    alpha ratios taken from the cyclic extension knots; the curve is
    pointwise unchanged on [0, 1].  The two extreme knots are untouched by
    the passes and are set to the domain endpoints afterwards.
    """
    if curve.knots.style != CYCLIC:
        raise InvalidInputError("clamp_closed_curve expects a closed curve on a cyclic knot vector")
    p = curve.degree
    distinct = curve.control_points.shape[0]
    ctrl = curve.control_points[np.arange(distinct + p) % distinct]  # a copy, wrapped
    knots = curve.knots.knots.copy()
    n = ctrl.shape[0] - 1  # highest wrapped control index

    for i in range(p - 2, -1, -1):
        for j in range(i + 1):
            den = knots[p + j + 1] - knots[p - 1 - i + j]
            alpha = (knots[p] - knots[p - 1 - i + j]) / den
            ctrl[j] = (1.0 - alpha) * ctrl[j] + alpha * ctrl[j + 1]
        knots[p - i - 1] = knots[p]

    for i in range(p - 2, -1, -1):
        for j in range(i + 1):
            den = knots[n - j + i + 2] - knots[n - j]
            alpha = (knots[n + 1] - knots[n - j]) / den
            # mirror of the left pass: the convex weight on the inner
            # neighbour must be 1 - alpha or the end evaluations change
            ctrl[n - j] = alpha * ctrl[n - j] + (1.0 - alpha) * ctrl[n - j - 1]
        knots[n + i + 2] = knots[n + 1]

    knots[0] = knots[p]
    knots[n + p + 1] = knots[n + 1]
    return BSplineCurve(KnotVector(knots, p, CLAMPED), ctrl)


def check_knot_multiplicities(knots, degree):
    """Raise if a knot group of a clamped knot vector exceeds its multiplicity.

    Groups are those of :func:`knot_multiplicities`; interior groups may hold
    at most ``degree`` knots and the two end groups exactly ``degree + 1``.
    A group of more than ``degree`` knots spans at most ``KNOT_TOL``, so the
    exact grouping runs only when some window of ``degree + 1`` consecutive
    interior knots is that narrow.
    """
    p = degree
    inner = knots[1:-1]
    if not np.any(inner[p:] - inner[:-p] <= KNOT_TOL):
        return
    values, counts = knot_multiplicities(knots)
    for k, (v, c) in enumerate(zip(values, counts)):
        limit = p + 1 if k in (0, len(values) - 1) else p
        if c > limit:
            raise InvalidInputError(
                f"refinement would give knot {v!r} multiplicity {c}, beyond the degree {p}"
            )


def refine_knots(curve, new_knots):
    """Insert knots into an open (clamped) curve; the shape is unchanged.

    All knots go in at once (the Oslo algorithm): new control point j is
    sum_i alpha_i(j) P_i over the old span mu with t_mu <= tau_j < t_mu+1,
    where the discrete B-spline row alpha(j) = R_1(tau_j+1) ... R_p(tau_j+p)
    is the Cox-de Boor recurrence with x replaced by successive new knots.
    """
    if curve.knots.style != CLAMPED:
        raise InvalidInputError("refine_knots operates on clamped (open) curves")
    add = np.atleast_1d(np.asarray(new_knots, dtype=float))
    if add.size == 0:
        return curve
    if np.any(add <= 0.0) or np.any(add >= 1.0):
        raise InvalidInputError("refinement knots must lie strictly inside (0, 1)")
    p = curve.degree
    t = curve.knots.knots
    tau = np.sort(np.concatenate([t, add]))
    check_knot_multiplicities(tau, p)
    n_new = tau.size - p - 1
    # tau_j < 1 for every new control point, so mu <= n_old - 1 and the
    # denominators t_{i+k} - t_i >= t_{mu+1} - t_mu are positive
    mu = np.searchsorted(t, tau[:n_new], side="right") - 1
    alpha = np.ones((n_new, 1))
    for k in range(1, p + 1):
        i = mu[:, None] + np.arange(1 - k, 1)
        lo, hi = t[i], t[i + k]
        x = tau[k: n_new + k, None]
        w = alpha / (hi - lo)
        nxt = np.zeros((n_new, k + 1))
        nxt[:, :-1] += w * (hi - x)
        nxt[:, 1:] += w * (x - lo)
        alpha = nxt
    gathered = curve.control_points[mu[:, None] + np.arange(-p, 1)]
    ctrl = np.einsum("jr,jrc->jc", alpha, gathered)
    return BSplineCurve(KnotVector(tau, p, CLAMPED), ctrl)


def _knot_groups(arr):
    """Start indices of the knot groups of a sorted array.

    A knot opens a new group when it lies more than ``KNOT_TOL`` above the
    group's first knot.  A gap above ``KNOT_TOL`` between neighbours always
    opens one; only a run of close neighbours spanning more than
    ``KNOT_TOL`` is walked knot by knot.
    """
    if arr.size == 0:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], np.diff(arr) > KNOT_TOL)))
    ends = np.append(starts[1:], arr.size)
    wide = np.flatnonzero(arr[ends - 1] - arr[starts] > KNOT_TOL)
    if wide.size == 0:
        return starts
    extra = []
    for c in wide:
        first = arr[starts[c]]
        for k in range(starts[c] + 1, ends[c]):
            if arr[k] - first > KNOT_TOL:
                extra.append(k)
                first = arr[k]
    return np.sort(np.concatenate([starts, extra]).astype(np.intp))


def _multiset(knots):
    """(values, counts) arrays of the knot groups of a sorted knot array."""
    arr = np.asarray(knots, dtype=float)
    starts = _knot_groups(arr)
    return arr[starts], np.diff(np.append(starts, arr.size))


def knot_multiplicities(knots):
    """Group a sorted knot array into (values, counts); values within
    ``KNOT_TOL`` of the group representative (its first knot) collapse
    together."""
    values, counts = _multiset(knots)
    return values.tolist(), counts.tolist()


def _merge_walk(va, ca, vb, cb):
    """Two-pointer merge of sorted (values, counts) lists: a knot of one list
    more than ``KNOT_TOL`` below the other's current knot is taken alone,
    otherwise the two pair up as the smaller value with the larger count."""
    out_v, out_c = [], []
    i = j = 0
    while i < len(va) or j < len(vb):
        if j >= len(vb) or (i < len(va) and va[i] < vb[j] - KNOT_TOL):
            out_v.append(va[i]); out_c.append(ca[i]); i += 1
        elif i >= len(va) or vb[j] < va[i] - KNOT_TOL:
            out_v.append(vb[j]); out_c.append(cb[j]); j += 1
        else:
            out_v.append(min(va[i], vb[j])); out_c.append(max(ca[i], cb[j]))
            i += 1; j += 1
    return out_v, out_c


def _merge_multisets(va, ca, vb, cb):
    """The result of :func:`_merge_walk`, as (values, counts) arrays.

    Sorted together, the knots of both lists fall into clusters where a knot
    x and the next y satisfy x < y - ``KNOT_TOL``; the walk never pairs knots across
    that gap and finishes one cluster before the next.  A cluster holding at
    most one knot of each list is a pair or a single knot; only clusters
    with more are walked.
    """
    va, vb = np.asarray(va, dtype=float), np.asarray(vb, dtype=float)
    ca, cb = np.asarray(ca, dtype=np.int64), np.asarray(cb, dtype=np.int64)
    both = np.concatenate([va, vb])
    if both.size == 0:
        return both, np.zeros(0, dtype=np.int64)
    # stable: a tie lists the knot of va first, as min(va[i], vb[j]) returns it
    order = np.argsort(both, kind="stable")
    x = both[order]
    starts = np.flatnonzero(np.concatenate(([True], x[:-1] < x[1:] - KNOT_TOL)))
    values = x[starts]
    counts = np.maximum.reduceat(np.concatenate([ca, cb])[order], starts)
    na = np.add.reduceat((order < va.size).astype(np.int64), starts)
    nb = np.diff(np.append(starts, x.size)) - na
    busy = np.flatnonzero((na > 1) | (nb > 1))
    if busy.size == 0:
        return values, counts
    a0 = np.cumsum(na) - na
    b0 = np.cumsum(nb) - nb
    out_v, out_c, done = [], [], 0
    for k in busy:
        sa, sb = slice(a0[k], a0[k] + na[k]), slice(b0[k], b0[k] + nb[k])
        v, c = _merge_walk(va[sa].tolist(), ca[sa].tolist(), vb[sb].tolist(), cb[sb].tolist())
        out_v += [values[done:k], np.asarray(v, dtype=float)]
        out_c += [counts[done:k], np.asarray(c, dtype=np.int64)]
        done = k + 1
    return (np.concatenate(out_v + [values[done:]]),
            np.concatenate(out_c + [counts[done:]]))


def merge_knot_vectors(a, b):
    """Union of two clamped knot vectors, per-knot multiplicity = max of the two."""
    if a.degree != b.degree:
        raise InvalidInputError("cannot merge knot vectors of different degree")
    if a.style != CLAMPED or b.style != CLAMPED:
        raise InvalidInputError("merge_knot_vectors expects clamped knot vectors")
    out_v, out_c = _merge_multisets(*_multiset(a.knots), *_multiset(b.knots))
    return KnotVector(np.repeat(out_v, out_c), a.degree, CLAMPED)


def merge_domain_knots(a, b):
    """Sorted union of two strictly-increasing domain-knot sequences."""
    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out_v, _ = _merge_multisets(va, np.ones(va.size), vb, np.ones(vb.size))
    return out_v


def missing_knots(target, base):
    """Knots (with multiplicity) present in target but not in base.

    Each knot group of target is matched with the first group of base not
    more than ``KNOT_TOL`` below it, when that group lies within it.
    """
    vt, ct = _multiset(target.knots)
    vb, cb = _multiset(base.knots)
    j = np.searchsorted(vb, vt - KNOT_TOL, side="left")
    jc = np.minimum(j, vb.size - 1)
    near = (j < vb.size) & (np.abs(vb[jc] - vt) <= KNOT_TOL)
    have = np.where(near, cb[jc], 0)
    return np.repeat(vt, np.maximum(0, ct - have))
