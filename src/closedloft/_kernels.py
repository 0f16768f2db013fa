"""Hot evaluation kernels: knot-span lookup, Cox-de Boor basis values and
derivatives, collocation rows, and batched curve/surface evaluation.

The functions below are written in loop style so the exact same source runs
either JIT-compiled by numba or interpreted on plain numpy arrays.  The
fallback is selected by setting ``CLOSEDLOFT_NO_NUMBA=1`` in the environment
(or automatically when numba is not installed).

All kernels take raw float64 arrays.  Knot vectors are the *full* arrays
(clamped or cyclically extended); callers are responsible for domain checks.
"""

import os

import numpy as np


def _py_find_span(knots, degree, u):
    # Half-open spans; the right domain endpoint maps to the last span
    # (limit from the left) so that evaluation at u = 1 is well defined.
    hi_span = knots.shape[0] - degree - 2
    if u >= knots[hi_span + 1]:
        return hi_span
    if u <= knots[degree]:
        return degree
    low = degree
    high = hi_span + 1
    mid = (low + high) // 2
    while u < knots[mid] or u >= knots[mid + 1]:
        if u < knots[mid]:
            high = mid
        else:
            low = mid
        mid = (low + high) // 2
    return mid


def _py_basis_funs(knots, degree, span, u):
    values = np.empty(degree + 1)
    left = np.empty(degree + 1)
    right = np.empty(degree + 1)
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


def _py_ders_basis_funs(knots, degree, span, u, order):
    ders = np.zeros((order + 1, degree + 1))
    ndu = np.empty((degree + 1, degree + 1))
    left = np.empty(degree + 1)
    right = np.empty(degree + 1)
    a = np.empty((2, degree + 1))

    ndu[0, 0] = 1.0
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    for j in range(degree + 1):
        ders[0, j] = ndu[j, degree]

    for r in range(degree + 1):
        s1 = 0
        s2 = 1
        a[0, 0] = 1.0
        for k in range(1, order + 1):
            d = 0.0
            rk = r - k
            pk = degree - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else degree - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            j = s1
            s1 = s2
            s2 = j

    fac = float(degree)
    for k in range(1, order + 1):
        for j in range(degree + 1):
            ders[k, j] *= fac
        fac *= degree - k
    return ders


def _py_collocation_matrix(knots, degree, n_basis, params):
    out = np.zeros((params.shape[0], n_basis))
    for i in range(params.shape[0]):
        span = _find_span(knots, degree, params[i])
        vals = _basis_funs(knots, degree, span, params[i])
        for j in range(degree + 1):
            out[i, span - degree + j] = vals[j]
    return out


def _py_curve_points(knots, degree, ctrl, params):
    dim = ctrl.shape[1]
    out = np.zeros((params.shape[0], dim))
    for i in range(params.shape[0]):
        span = _find_span(knots, degree, params[i])
        vals = _basis_funs(knots, degree, span, params[i])
        for j in range(degree + 1):
            c = span - degree + j
            for d in range(dim):
                out[i, d] += vals[j] * ctrl[c, d]
    return out


def _py_curve_derivatives(knots, degree, ctrl, params, order):
    dim = ctrl.shape[1]
    out = np.zeros((params.shape[0], order + 1, dim))
    for i in range(params.shape[0]):
        span = _find_span(knots, degree, params[i])
        ders = _ders_basis_funs(knots, degree, span, params[i], order)
        for k in range(order + 1):
            for j in range(degree + 1):
                c = span - degree + j
                for d in range(dim):
                    out[i, k, d] += ders[k, j] * ctrl[c, d]
    return out


def _py_surface_points(knots_u, deg_u, knots_v, deg_v, net, us, vs):
    dim = net.shape[2]
    out = np.zeros((us.shape[0], dim))
    for k in range(us.shape[0]):
        su = _find_span(knots_u, deg_u, us[k])
        sv = _find_span(knots_v, deg_v, vs[k])
        bu = _basis_funs(knots_u, deg_u, su, us[k])
        bv = _basis_funs(knots_v, deg_v, sv, vs[k])
        for i in range(deg_u + 1):
            for j in range(deg_v + 1):
                w = bu[i] * bv[j]
                for d in range(dim):
                    out[k, d] += w * net[su - deg_u + i, sv - deg_v + j, d]
    return out


def _py_surface_partial(knots_u, deg_u, knots_v, deg_v, net, us, vs, du, dv):
    dim = net.shape[2]
    out = np.zeros((us.shape[0], dim))
    for k in range(us.shape[0]):
        su = _find_span(knots_u, deg_u, us[k])
        sv = _find_span(knots_v, deg_v, vs[k])
        bu = _ders_basis_funs(knots_u, deg_u, su, us[k], du)
        bv = _ders_basis_funs(knots_v, deg_v, sv, vs[k], dv)
        for i in range(deg_u + 1):
            for j in range(deg_v + 1):
                w = bu[du, i] * bv[dv, j]
                for d in range(dim):
                    out[k, d] += w * net[su - deg_u + i, sv - deg_v + j, d]
    return out


def _env_disables_numba():
    return os.environ.get("CLOSEDLOFT_NO_NUMBA", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


ACCEL = "numpy"
if not _env_disables_numba():
    try:
        from numba import njit

        _jit = njit(cache=True)
        _py_find_span = _jit(_py_find_span)
        _py_basis_funs = _jit(_py_basis_funs)
        _py_ders_basis_funs = _jit(_py_ders_basis_funs)
        _py_collocation_matrix = _jit(_py_collocation_matrix)
        _py_curve_points = _jit(_py_curve_points)
        _py_curve_derivatives = _jit(_py_curve_derivatives)
        _py_surface_points = _jit(_py_surface_points)
        _py_surface_partial = _jit(_py_surface_partial)
        ACCEL = "numba"
    except ImportError:
        pass

# Names used internally by the kernels themselves (so the jitted versions
# call each other) and exported to the rest of the package.
_find_span = _py_find_span
_basis_funs = _py_basis_funs
_ders_basis_funs = _py_ders_basis_funs

find_span = _py_find_span
basis_funs = _py_basis_funs
ders_basis_funs = _py_ders_basis_funs
collocation_matrix = _py_collocation_matrix
curve_points = _py_curve_points
curve_derivatives = _py_curve_derivatives
surface_points = _py_surface_points
surface_partial = _py_surface_partial
