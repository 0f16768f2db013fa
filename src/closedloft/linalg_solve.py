"""Collocation-system assembly, dense/banded solves, stiffness matrices by
Gauss quadrature, KKT saddle-point solves, and rank diagnostics.

Dense factorizations are delegated to LAPACK (scipy/numpy); the no-pivot
banded elimination and all assembly code live here.  Collocation systems
are dense row-major.  Stiffness matrices and KKT systems, which reach a few
thousand unknowns when rows share many domain knots, are sparse and are
factored by SuperLU.  ``scipy.linalg`` and ``scipy.sparse`` are imported by
the functions that use them, so importing the package does not load scipy.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError, SingularSystemError
from .spline_core import CYCLIC, CLAMPED, row_prefix, row_window

# A pivot below this fraction of the largest matrix entry is treated as an
# exact zero (numerically singular).
PIVOT_TOL = 1e-14

# A singular value below this fraction of the largest does not count
# toward the rank.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class RankReport:
    """Singular-value summary of a matrix."""

    rank: int
    singular_values: np.ndarray
    condition: float
    tolerance: float


def singular_value_rank(s, rel_tol, lengths=None):
    """``(rank, largest, smallest, condition)`` from singular values in
    descending order (LAPACK's) over the last axis, with leading stack axes
    allowed.  With ``lengths``, row b of a 2-D ``s`` holds its first
    lengths[b] >= 1 values and then zeros, which count for nothing.
    """
    if s.shape[-1] == 0:
        top = bottom = np.zeros(s.shape[:-1])
    else:
        top = s[..., 0]
        bottom = s[..., -1] if lengths is None else row_window(s, lengths - 1, 1)[:, 0]
    live = top > 0.0  # a zero (or NaN) top singular value means rank 0
    rank = np.where(live, np.sum(s > rel_tol * top[..., None], axis=-1), 0)
    cond = np.full(top.shape, np.inf)
    finite = live & (bottom > 0)
    cond[finite] = top[finite] / bottom[finite]
    return rank, top, bottom, cond


def rank_report(matrix):
    """Rank and condition estimate of one matrix via its singular values
    (LAPACK bidiagonalization), at :data:`RANK_TOL`."""
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    rank, _top, _bottom, cond = singular_value_rank(s, RANK_TOL)
    return RankReport(int(rank), s, float(cond), RANK_TOL)


def assemble_open_collocation(params, kv):
    """Collocation matrix N with N[i, j] = N_{j,p}(t_i) over a clamped knot vector."""
    if kv.style != CLAMPED:
        raise InvalidInputError("open collocation requires a clamped knot vector")
    t = params.values
    if t[0] < 0.0 or t[-1] > 1.0:
        raise InvalidInputError("parameters outside the knot vector domain")
    return _kernels.collocation_matrix(kv.knots, kv.degree, kv.n_basis, t)


def _check_closed(kv, first, last):
    """The knot style and parameter range of every closed matrix."""
    if kv.style != CYCLIC:
        raise InvalidInputError("closed systems require a cyclic knot vector")
    if np.any(first < 0.0) or np.any(last >= 1.0):
        raise InvalidInputError("closed collocation parameters must lie in [0, 1)")


def assemble_closed_system(params, kv, nhat):
    """Closed system matrix [N; A]: basis rows stacked over the p wrap-constraint rows.

    Row r of the constraint block reads +1 at column r and -1 at column
    n̂+1+r, enforcing the control-point wrap of the cyclic representation.
    This is the matrix the interpolation conditions are stated for; the
    solvers use :func:`periodic_collocation`, which has the same rank
    deficiency.

    A padded batch (parameters and knot vector with ``lengths``, one n̂ per
    row) gives its B matrices as one zero-padded (B, rows, cols) array:
    matrix b is ``out[b, :n_b+1+p, :n̂_b+p+1]`` and everything past it is 0.
    The batch takes one span search per knot row and one ``basis_funs``
    call over all its parameters, with the arithmetic of one matrix at a
    time; a single matrix is built as a batch of one.
    """
    p = kv.degree
    if (kv.lengths is None) != (params.lengths is None):
        raise InvalidInputError("a padded batch needs padded parameters and knot vectors")
    if kv.lengths is None:
        t, knots = params.values[None], kv.knots[None]
        counts, sizes = np.array([t.shape[1]]), np.array([knots.shape[1]])
    else:
        t, counts, knots, sizes = params.values, params.lengths, kv.knots, kv.lengths
    nhat = np.broadcast_to(np.asarray(nhat, dtype=int), counts.shape)
    n_basis = sizes - p - 1
    bad = np.flatnonzero(n_basis != nhat + p + 1)
    if bad.size:
        raise InvalidInputError(
            f"knot vector supports {n_basis[bad[0]]} basis functions, expected {nhat[bad[0]] + p + 1}"
        )
    if t.shape[0] != knots.shape[0]:
        raise InvalidInputError("parameter and knot batches differ in length")
    _check_closed(kv, t[:, 0], row_window(t, counts - 1, 1))
    width = knots.shape[1]
    valid = row_prefix(counts, t.shape[1])
    row, col = np.nonzero(valid)  # row-major: each matrix's parameters in order
    # +inf padding keeps each knot row sorted, so its search sees its own
    # knots; the minimum is the clip to its own last span
    live = np.where(row_prefix(sizes, width), knots, np.inf)
    spans = np.minimum(_kernels.find_span(live, p, t)[valid], (sizes - p - 2)[row])
    values = _kernels.basis_funs(knots.ravel(), p, spans + width * row, t[valid])
    out = np.zeros((counts.size, (counts + p).max(), (nhat + p + 1).max()))
    height, cols = out.shape[1:]
    flat = out.reshape(-1)
    at = (row * height + col) * cols + spans - p
    for j in range(p + 1):
        flat[at + j] = values[j]
    r = np.arange(p)
    wrap = ((np.arange(counts.size) * height + counts)[:, None] + r) * cols + r
    flat[wrap] = 1.0
    flat[wrap + (nhat + 1)[:, None]] = -1.0
    return out if kv.lengths is not None else out[0]


def periodic_collocation(params, kv):
    """Folded closed collocation matrix N·E of size (n+1)×(n̂+1).

    E maps the n̂+1 distinct controls to the n̂+p+1 basis functions (basis
    function j takes control j mod (n̂+1)), so N·E holds basis function j
    in column j mod (n̂+1); ``collocation_matrix`` adds it there.  N·E is
    invertible exactly when [N; A] is: the kernel of A is the range of E,
    and E is injective.  A row has p+1 consecutive nonzeros, so when
    n̂+1 > p (every solvable problem) no entry is the sum of two nonzero
    values and the wrap rounds nothing.
    """
    t = params.values
    _check_closed(kv, t[0], t[-1])
    return _kernels.collocation_matrix(kv.knots, kv.degree, kv.n_basis - kv.degree, t)


def solve_dense(matrix, rhs):
    """LU solve with partial pivoting; raises on numerically singular input."""
    import scipy.linalg  # here, not at the top: `import closedloft` stays lean

    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("solve_dense requires a square matrix")
    scale = np.abs(m).max()
    if scale == 0.0:
        raise SingularSystemError("zero matrix")
    with warnings.catch_warnings():
        # singularity is detected below via the pivot magnitudes
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    if np.abs(np.diag(lu)).min() <= PIVOT_TOL * scale:
        del lu  # the rank report copies m; at a few thousand unknowns both are large
        raise SingularSystemError(
            "matrix is numerically singular", rank_report=rank_report(m)
        )
    return scipy.linalg.lu_solve((lu, piv), np.asarray(rhs, dtype=float), check_finite=False)


def solve_banded_no_pivot(matrix, semi_bandwidth, rhs):
    """Gaussian elimination without pivoting, restricted to the band.

    Meant for the totally-positive banded systems of open averaging-knot
    interpolation.  On a vanishing pivot the system is solved by
    :func:`solve_dense` instead, which pivots.
    """
    a = np.array(matrix, dtype=float)
    b = np.atleast_2d(np.asarray(rhs, dtype=float).T).T.copy()
    n = a.shape[0]
    if a.shape[1] != n:
        raise InvalidInputError("banded solver requires a square matrix")
    bw = int(semi_bandwidth)
    scale = np.abs(a).max()
    for k in range(n):
        piv = a[k, k]
        if abs(piv) <= PIVOT_TOL * scale:
            return solve_dense(matrix, rhs)
        hi = min(k + bw + 1, n)
        for i in range(k + 1, hi):
            if a[i, k] != 0.0:
                f = a[i, k] / piv
                a[i, k:hi] -= f * a[k, k:hi]
                b[i] -= f * b[k]
    # back substitution in place: rows below i of b already hold the solution
    for i in range(n - 1, -1, -1):
        hi = min(i + bw + 1, n)
        b[i] = (b[i] - a[i, i + 1: hi].T @ b[i + 1: hi]) / a[i, i]
    return b if np.ndim(rhs) > 1 else b[:, 0]


def semi_bandwidth(matrix):
    """Largest |i - j| with a nonzero entry."""
    rows, cols = np.nonzero(matrix)
    return int(np.abs(rows - cols).max()) if rows.size else 0


def stiffness_matrix(kv, alpha=1.0, beta=0.2):
    """Gram matrix of basis derivatives: ∫ α N'N'ᵀ + β N''N''ᵀ over [0, 1].

    Uses (p+1)-point Gauss-Legendre per distinct knot span, which integrates
    the piecewise-polynomial integrands (degree <= 2p-2) exactly.  For a
    cyclic knot vector the integral covers one period only.  The result is a
    ``scipy.sparse.csr_array``, exactly symmetric and banded with bandwidth
    2p+1.

    All Gauss nodes are evaluated in one batch; the node terms are summed
    into band storage in node order, α term before β term, so every entry is
    the same floating-point sum a node-by-node loop gives.
    """
    import scipy.sparse  # here, not at the top: `import closedloft` stays lean

    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise InvalidInputError("stretch and bend weights must be finite")
    if alpha < 0.0 or beta < 0.0:
        raise InvalidInputError("stretch and bend weights must be non-negative")
    p = kv.degree
    if beta > 0.0 and p < 2:
        raise InvalidInputError("bend energy requires degree >= 2")
    nb = kv.n_basis
    if alpha == 0.0 and beta == 0.0:
        return scipy.sparse.csr_array((nb, nb))
    nodes, weights = np.polynomial.legendre.leggauss(p + 1)
    d = kv.domain_knots
    live = np.flatnonzero(d[1:] > d[:-1])
    mid, half = (d[live] + d[live + 1]) / 2.0, (d[live + 1] - d[live]) / 2.0
    us = (mid[:, None] + half[:, None] * nodes).ravel()
    spans = np.repeat(live + p, p + 1)
    half_n = np.repeat(half, p + 1)
    w_n = np.tile(weights, live.size)
    ders = _kernels.ders_basis_funs(kv.knots, p, spans, us, 2 if beta > 0.0 else 1)
    # node-major: the α then the β term of node 0, then of node 1, ...;
    # bincount adds in input order, starting from 0.0
    vals = np.stack([
        (weight * w_n * half_n)[:, None, None] * (ders[k].T[:, :, None] * ders[k].T[:, None, :])
        for k, weight in ((1, alpha), (2, beta)) if weight > 0.0
    ], axis=1)
    local = np.arange(p + 1)
    # band storage: entry (i, j) of the matrix at flat index i*(2p+1) + j-i+p
    at = (spans - p)[:, None, None] * (2 * p + 1) + local[:, None] * (2 * p) + local + p
    at = np.broadcast_to(at[:, None], vals.shape)
    band = np.bincount(at.ravel(), weights=vals.ravel(), minlength=nb * (2 * p + 1))
    r = np.repeat(np.arange(nb), 2 * p + 1)
    c = r + np.tile(np.arange(-p, p + 1), nb)
    keep = (band != 0.0) & (c >= 0) & (c < nb)
    return scipy.sparse.csr_array((band[keep], (r[keep], c[keep])), shape=(nb, nb))


def curve_energy(stiff, controls):
    """Total PᵀKP energy summed over the coordinate columns."""
    c = np.asarray(controls, dtype=float)
    return float(np.sum(c * (stiff @ c)))


def solve_kkt(stiff, constraints, rhs):
    """Minimize PᵀKP subject to C P = rhs via the Lagrange saddle system.

    The saddle matrix [[K, Cᵀ], [C, 0]] is assembled sparse, scaled on both
    sides by D = diag(1/√(max_j |a_ij|)) and factored by SuperLU.  The bend
    term grows like 1/h³ on short spans while C holds basis values below 1,
    so the unscaled matrix can be far worse conditioned than the problem.
    ``stiff`` may be dense or sparse.  Returns ``(P, multipliers)``; rhs may
    have several columns (one per coordinate).
    """
    import scipy.sparse  # here, not at the top: `import closedloft` stays lean
    import scipy.sparse.linalg

    k = scipy.sparse.coo_array(stiff, dtype=float)
    k.sum_duplicates()
    c = np.asarray(constraints, dtype=float)
    r = np.asarray(rhs, dtype=float)
    nb = k.shape[0]
    nc = c.shape[0]
    if k.shape != (nb, nb) or c.ndim != 2 or c.shape[1] != nb or r.shape[0] != nc:
        raise InvalidInputError("inconsistent KKT block dimensions")
    n = nb + nc
    ci, cj = np.nonzero(c)
    cv = c[ci, cj]
    rows = np.concatenate([k.row, ci + nb, cj])
    cols = np.concatenate([k.col, cj, ci + nb])
    vals = np.concatenate([k.data, cv, cv])
    row_max = np.zeros(n)
    np.maximum.at(row_max, rows, np.abs(vals))
    sol = None
    if row_max.min() > 0.0:
        d = 1.0 / np.sqrt(row_max)
        scaled = scipy.sparse.csc_array((vals * d[rows] * d[cols], (rows, cols)), shape=(n, n))
        try:
            lu = scipy.sparse.linalg.splu(scaled)
        except RuntimeError:  # SuperLU stops at an exactly zero pivot
            lu = None
        if lu is not None and np.abs(lu.U.diagonal()).min() > PIVOT_TOL * np.abs(scaled.data).max():
            dr = d.reshape((n,) + (1,) * (r.ndim - 1))
            full_rhs = np.concatenate([np.zeros((nb,) + r.shape[1:]), r])
            sol = dr * lu.solve(dr * full_rhs)
    if sol is None:
        c_report = rank_report(c)
        if c_report.rank < nc:
            raise SingularSystemError(
                f"constraint block is rank-deficient (rank {c_report.rank} of {nc})",
                rank_report=c_report,
            )
        dense = scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n)).toarray()
        raise SingularSystemError(
            "KKT matrix is singular (stiffness block degenerate on the feasible set)",
            rank_report=rank_report(dense),
        )
    return sol[:nb], sol[nb:]
