"""Hot evaluation kernels: knot-span lookup, Cox-de Boor basis values and
derivatives, collocation rows, and batched curve/surface evaluation.

All kernels take raw float64 arrays.  Knot vectors are the *full* arrays
(clamped or cyclically extended); callers are responsible for domain checks.
A cyclic knot vector of degree p carries n̂+p+1 basis functions over n̂+1
distinct controls: the evaluation kernels take the distinct controls (net
columns, in v) and read basis function j from control j mod n̂+1, and
``collocation_matrix`` adds basis function j into column j mod its column
count.  This module is the only place the wrap happens; for clamped data
every index is already below the count and the modulo changes nothing.
``find_span`` also takes a stack of sorted knot rows, shape (B, K), with the
parameters as a (B, m) array: row b of the parameters is searched in knot
row b.

Every kernel runs over all of its parameters at once: the Python loops go
over the degree (or the p+1 local basis indices) only, with the parameters
as the last axis.  Terms are added in the order a point-by-point loop adds
them, so each output is the same floating-point value that loop gives.
"""

import numpy as np


def searchsorted_right(a, v):
    """``np.searchsorted(a, v, "right")`` for a sorted row ``a``, or row by row
    for a stack of sorted rows (B, K) and values (B, m) or (m,)."""
    if a.ndim == 1:
        return np.searchsorted(a, v, "right")
    if np.ndim(v) == 1:  # one set of values for every row
        v = np.broadcast_to(v, a.shape[:1] + np.shape(v))
    # a loop of binary searches beats one (B, m, K) comparison at every B
    return np.array([np.searchsorted(row, x, "right") for row, x in zip(a, v)])


def find_span(knots, degree, u):
    """Index of the half-open knot span holding u (a scalar or an array).

    The right domain endpoint maps to the last span (limit from the left)
    so that evaluation at u = 1 is well defined.
    """
    hi_span = knots.shape[-1] - degree - 2
    # np.minimum/np.maximum, not np.clip, whose Python wrapper costs more
    # than the search on a short knot row
    return np.minimum(np.maximum(searchsorted_right(knots, u) - 1, degree), hi_span)


def basis_funs(knots, degree, span, u):
    """The p+1 nonzero basis values at u (The NURBS Book, A2.2); shape
    (degree+1,) + ``u``'s shape.

    Only ``knots[span - degree + 1: span + degree + 1]`` is read, so a batch
    of knot rows can be passed flattened, each span offset to its row."""
    u = np.asarray(u, dtype=float)
    values = np.empty((degree + 1,) + u.shape)
    left = np.empty((degree + 1,) + u.shape)
    right = np.empty((degree + 1,) + u.shape)
    values[0] = 1.0
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            temp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        values[j] = saved
    return values


def ders_basis_funs(knots, degree, span, u, order):
    """Derivatives of orders 0 .. order of the p+1 nonzero basis functions.

    ``u`` is one parameter or an array of them, ``span`` its knot span (or
    the array of spans).  Returns shape (order+1, degree+1) + ``u``'s shape
    (The NURBS Book, A2.3).
    """
    p = degree
    u = np.asarray(u, dtype=float)
    span = np.asarray(span)
    shape = u.shape
    ndu = np.empty((p + 1, p + 1) + shape)
    left = np.empty((p + 1,) + shape)
    right = np.empty((p + 1,) + shape)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = np.zeros(shape)
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((order + 1, p + 1) + shape)
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1) + shape)
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, order + 1):
            d = np.zeros(shape)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(p)
    for k in range(1, order + 1):
        ders[k] *= fac
        fac *= p - k
    return ders


def collocation_matrix(knots, degree, ncols, params):
    """Rows of basis values at ``params``, basis function j in column
    j mod ``ncols``.  With fewer columns than p+1, several of a row's local
    functions share a column and add, in the order of j."""
    out = np.zeros(params.shape + (ncols,))
    spans = find_span(knots, degree, params)
    vals = basis_funs(knots, degree, spans, params)
    rows = out.reshape(-1, ncols)  # a view: one row per parameter
    at = np.arange(params.size)
    for j in range(degree + 1):
        rows[at, (spans - degree + j).ravel() % ncols] += vals[j].ravel()
    return out


def curve_points(knots, degree, ctrl, params):
    out = np.zeros((params.shape[0], ctrl.shape[1]))
    spans = find_span(knots, degree, params)
    vals = basis_funs(knots, degree, spans, params)
    for j in range(degree + 1):
        out += vals[j][:, None] * ctrl[(spans - degree + j) % ctrl.shape[0]]
    return out


def curve_derivatives(knots, degree, ctrl, params, order):
    out = np.zeros((params.shape[0], order + 1, ctrl.shape[1]))
    spans = find_span(knots, degree, params)
    ders = ders_basis_funs(knots, degree, spans, params, order)
    for j in range(degree + 1):
        at = (spans - degree + j) % ctrl.shape[0]
        for k in range(order + 1):
            out[:, k] += ders[k, j][:, None] * ctrl[at]
    return out


def _tensor_sum(net, deg_u, deg_v, su, sv, bu, bv):
    """Sum of bu[i] * bv[j] * net[su-p+i, (sv-q+j) mod cols], i-major, one
    point per row."""
    at_v = [(sv - deg_v + j) % net.shape[1] for j in range(deg_v + 1)]
    out = np.zeros((su.shape[0], net.shape[2]))
    for i in range(deg_u + 1):
        at_u = su - deg_u + i
        for j in range(deg_v + 1):
            out += (bu[i] * bv[j])[:, None] * net[at_u, at_v[j]]
    return out


def surface_points(knots_u, deg_u, knots_v, deg_v, net, us, vs):
    su = find_span(knots_u, deg_u, us)
    sv = find_span(knots_v, deg_v, vs)
    bu = basis_funs(knots_u, deg_u, su, us)
    bv = basis_funs(knots_v, deg_v, sv, vs)
    return _tensor_sum(net, deg_u, deg_v, su, sv, bu, bv)


def surface_partial(knots_u, deg_u, knots_v, deg_v, net, us, vs, du, dv):
    su = find_span(knots_u, deg_u, us)
    sv = find_span(knots_v, deg_v, vs)
    bu = ders_basis_funs(knots_u, deg_u, su, us, du)[du]
    bv = ders_basis_funs(knots_v, deg_v, sv, vs, dv)[dv]
    return _tensor_sum(net, deg_u, deg_v, su, sv, bu, bv)
