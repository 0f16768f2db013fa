"""The batched kernels against point-by-point reference loops.

The references below are the kernels as they were written before they ran
over arrays: one parameter at a time, adding terms in the same order.  The
batched kernels must give the same floating-point values, so every
comparison is exact.  Like the kernels, the references take the distinct
controls of a cyclic knot vector (the distinct columns of a net, in v) and
wrap basis function j to control (and collocation column) j mod their count.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from closedloft import _kernels, linalg_solve, param_knots, spline_core


# --- point-by-point references ---

def find_span_ref(knots, degree, u):
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


def basis_funs_ref(knots, degree, span, u):
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


def collocation_matrix_ref(knots, degree, ncols, params):
    out = np.zeros((params.shape[0], ncols))
    for i in range(params.shape[0]):
        span = find_span_ref(knots, degree, params[i])
        vals = basis_funs_ref(knots, degree, span, params[i])
        for j in range(degree + 1):
            out[i, (span - degree + j) % ncols] += vals[j]
    return out


def curve_points_ref(knots, degree, ctrl, params):
    dim = ctrl.shape[1]
    out = np.zeros((params.shape[0], dim))
    for i in range(params.shape[0]):
        span = find_span_ref(knots, degree, params[i])
        vals = basis_funs_ref(knots, degree, span, params[i])
        for j in range(degree + 1):
            c = (span - degree + j) % ctrl.shape[0]
            for d in range(dim):
                out[i, d] += vals[j] * ctrl[c, d]
    return out


def curve_derivatives_ref(knots, degree, ctrl, params, order):
    dim = ctrl.shape[1]
    out = np.zeros((params.shape[0], order + 1, dim))
    for i in range(params.shape[0]):
        span = find_span_ref(knots, degree, params[i])
        ders = _kernels.ders_basis_funs(knots, degree, span, params[i], order)
        for k in range(order + 1):
            for j in range(degree + 1):
                c = (span - degree + j) % ctrl.shape[0]
                for d in range(dim):
                    out[i, k, d] += ders[k, j] * ctrl[c, d]
    return out


def surface_points_ref(knots_u, deg_u, knots_v, deg_v, net, us, vs):
    dim = net.shape[2]
    out = np.zeros((us.shape[0], dim))
    for k in range(us.shape[0]):
        su = find_span_ref(knots_u, deg_u, us[k])
        sv = find_span_ref(knots_v, deg_v, vs[k])
        bu = basis_funs_ref(knots_u, deg_u, su, us[k])
        bv = basis_funs_ref(knots_v, deg_v, sv, vs[k])
        for i in range(deg_u + 1):
            for j in range(deg_v + 1):
                w = bu[i] * bv[j]
                for d in range(dim):
                    out[k, d] += w * net[su - deg_u + i, (sv - deg_v + j) % net.shape[1], d]
    return out


def surface_partial_ref(knots_u, deg_u, knots_v, deg_v, net, us, vs, du, dv):
    dim = net.shape[2]
    out = np.zeros((us.shape[0], dim))
    for k in range(us.shape[0]):
        su = find_span_ref(knots_u, deg_u, us[k])
        sv = find_span_ref(knots_v, deg_v, vs[k])
        bu = _kernels.ders_basis_funs(knots_u, deg_u, su, us[k], du)
        bv = _kernels.ders_basis_funs(knots_v, deg_v, sv, vs[k], dv)
        for i in range(deg_u + 1):
            for j in range(deg_v + 1):
                w = bu[du, i] * bv[dv, j]
                for d in range(dim):
                    out[k, d] += w * net[su - deg_u + i, (sv - deg_v + j) % net.shape[1], d]
    return out


# --- strategies ---

@st.composite
def knot_vectors(draw):
    """(knots, degree, controls): clamped or cyclically extended, interior
    knots of multiplicity up to the degree, and the number of distinct
    controls over them."""
    p = draw(st.integers(1, 5))
    distinct = draw(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=6, unique=True))
    mults = draw(st.lists(st.integers(1, p), min_size=len(distinct), max_size=len(distinct)))
    domain = np.concatenate([[0.0], np.sort(np.repeat(distinct, mults)), [1.0]])
    if draw(st.booleans()):
        return np.concatenate([np.zeros(p), domain, np.ones(p)]), p, domain.size + p - 1
    # the period-preserving extension of spline_core.cyclic_knot_vector,
    # here also over repeated domain knots
    n1 = domain.size - 1
    full = np.empty(domain.size + 2 * p)
    full[p: p + domain.size] = domain
    for i in range(1, p + 1):
        full[p - i] = full[p - i + 1] + full[p + n1 - i] - full[p + n1 - i + 1]
        full[p + n1 + i] = full[p + n1 + i - 1] + full[p + i] - full[p + i - 1]
    return full, p, n1


def parameters(draw, knots, p, size=None):
    """Parameters in [0, 1], among them domain knots, 0 and 1."""
    on_knots = st.sampled_from(sorted(set(knots[p: knots.size - p]) | {0.0, 1.0}))
    values = draw(st.lists(
        st.one_of(st.floats(0.0, 1.0), on_knots),
        min_size=size or 1, max_size=size or 24,
    ))
    return np.array(values)


def _padded(rows, fill):
    lengths = np.array([row.size for row in rows])
    out = np.full((len(rows), lengths.max()), fill)
    for row, values in zip(out, rows):
        row[: values.size] = values
    return out, lengths


@st.composite
def knot_stacks(draw):
    """(knot rows, degree, parameter rows): cyclic knot vectors of one degree
    and of different lengths, each with its own number of closed parameters
    t_0 = 0 < ... < t_n < 1."""
    p = draw(st.integers(1, 5))
    rows, params = [], []
    for _ in range(draw(st.integers(1, 4))):
        interior = draw(st.integers(0, 6))
        distinct = draw(st.lists(st.floats(0.01, 0.99), min_size=interior, max_size=interior, unique=True))
        knots = spline_core.cyclic_knot_vector(np.concatenate([[0.0], np.sort(distinct), [1.0]]), p).knots
        u = np.unique(np.concatenate([[0.0, 0.5], parameters(draw, knots, p)]))
        rows.append(knots)
        params.append(u[u < 1.0])
    return rows, p, params


@st.composite
def curve_cases(draw):
    knots, p, count = draw(knot_vectors())
    us = parameters(draw, knots, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctrl = rng.normal(size=(count, 3))
    return knots, p, us, ctrl


@st.composite
def surface_cases(draw):
    """Any knot vector in u, with one net row per basis function (rows do
    not wrap); any in v, with its distinct columns."""
    knots_u, p, _ = draw(knot_vectors())
    knots_v, q, cols = draw(knot_vectors())
    us = parameters(draw, knots_u, p)
    vs = parameters(draw, knots_v, q, size=us.size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = rng.normal(size=(knots_u.size - p - 1, cols, 3))
    return knots_u, p, knots_v, q, net, us, vs


@st.composite
def short_cyclic_cases(draw):
    """A closed curve and a surface closed in v whose cyclic knot vector of
    degree p has n̂+1 <= p distinct controls, so that several local basis
    functions of a span wrap onto one control."""
    p = draw(st.integers(2, 6))
    distinct = draw(st.lists(st.floats(0.01, 0.99), min_size=0, max_size=p - 1, unique=True))
    kv = spline_core.cyclic_knot_vector(np.concatenate([[0.0], np.sort(distinct), [1.0]]), p)
    ku = spline_core.clamped_knot_vector([0.0, draw(st.floats(0.01, 0.99)), 1.0], draw(st.integers(1, 3)))
    us = parameters(draw, kv.knots, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    curve = spline_core.BSplineCurve(kv, rng.normal(size=(kv.n_basis - p, 3)))
    surface = spline_core.BSplineSurface(ku, kv, rng.normal(size=(ku.n_basis, kv.n_basis - p, 3)))
    return curve, surface, us


# --- batched equals point by point ---

@settings(deadline=None, max_examples=200)
@given(curve_cases())
def test_find_span_and_basis_funs(case):
    knots, p, us, _ctrl = case
    spans = _kernels.find_span(knots, p, us)
    np.testing.assert_array_equal(spans, [find_span_ref(knots, p, u) for u in us])
    assert _kernels.find_span(knots, p, us[0]) == spans[0]
    vals = _kernels.basis_funs(knots, p, spans, us)
    assert vals.shape == (p + 1, us.size)
    for m, u in enumerate(us):
        ref = basis_funs_ref(knots, p, spans[m], u)
        np.testing.assert_array_equal(vals[:, m], ref)
        np.testing.assert_array_equal(_kernels.basis_funs(knots, p, spans[m], u), ref)


@settings(deadline=None, max_examples=200)
@given(curve_cases())
def test_collocation_matrix(case):
    knots, p, us, ctrl = case
    for ncols in (knots.size - p - 1, ctrl.shape[0]):  # every basis function, and wrapped
        np.testing.assert_array_equal(
            _kernels.collocation_matrix(knots, p, ncols, us),
            collocation_matrix_ref(knots, p, ncols, us),
        )


@settings(deadline=None, max_examples=200)
@given(curve_cases())
def test_curve_points(case):
    knots, p, us, ctrl = case
    np.testing.assert_array_equal(
        _kernels.curve_points(knots, p, ctrl, us), curve_points_ref(knots, p, ctrl, us)
    )


@settings(deadline=None, max_examples=100)
@given(curve_cases(), st.integers(0, 5))
def test_curve_derivatives(case, order):
    knots, p, us, ctrl = case
    order = min(order, p)
    np.testing.assert_array_equal(
        _kernels.curve_derivatives(knots, p, ctrl, us, order),
        curve_derivatives_ref(knots, p, ctrl, us, order),
    )


@settings(deadline=None, max_examples=100)
@given(surface_cases())
def test_surface_points(case):
    np.testing.assert_array_equal(_kernels.surface_points(*case), surface_points_ref(*case))


@settings(deadline=None, max_examples=100)
@given(surface_cases(), st.integers(0, 5), st.integers(0, 5))
def test_surface_partial(case, du, dv):
    du, dv = min(du, case[1]), min(dv, case[3])
    np.testing.assert_array_equal(
        _kernels.surface_partial(*case, du, dv), surface_partial_ref(*case, du, dv)
    )


@settings(deadline=None, max_examples=200)
@given(knot_stacks())
def test_stacked_knot_rows_equal_row_by_row(case):
    # the padded batch of the trial harness: one span search per +inf-padded
    # knot row, one basis_funs call over the flattened rows, and the matrices
    # of linalg_solve.assemble_closed_system
    rows, p, params = case
    knots, sizes = _padded(rows, np.inf)
    t, counts = _padded(params, 1.0)
    spans = _kernels.find_span(knots, p, t)
    batch = linalg_solve.assemble_closed_system(
        param_knots.ParameterValues(t, lengths=counts),
        spline_core.KnotVector(knots, p, spline_core.CYCLIC, sizes),
        sizes - 2 * p - 2,
    )
    assert batch.shape == (len(rows), counts.max() + p, sizes.max() - p - 1)
    for b, (row, u) in enumerate(zip(rows, params)):
        n_basis = row.size - p - 1
        np.testing.assert_array_equal(spans[b, : u.size], [find_span_ref(row, p, x) for x in u])
        matrix = batch[b, : u.size + p, :n_basis]
        assert matrix[: u.size].tobytes() == collocation_matrix_ref(row, p, n_basis, u).tobytes()
        wrap = np.zeros((p, n_basis))
        wrap[np.arange(p), np.arange(p)] = 1.0
        wrap[np.arange(p), n_basis - p + np.arange(p)] = -1.0
        np.testing.assert_array_equal(matrix[u.size:], wrap)
        assert not batch[b, u.size + p:].any() and not batch[b, :, n_basis:].any()


@settings(deadline=None, max_examples=100)
@given(short_cyclic_cases(), st.integers(0, 6))
def test_wrapped_controls_equal_expanded_storage(case, order):
    # n̂+1 <= p: one span reaches a distinct control more than once.  Reading
    # control j mod n̂+1 gives, bit for bit, what the kernels give on the
    # controls copied out to one per basis function (expanded storage), and
    # collocation columns wrapped as they are added equal the full matrix
    # with column j folded onto column j mod n̂+1.
    curve, surface, us = case
    kv, ctrl, p = curve.knots, curve.control_points, curve.degree
    full = ctrl[np.arange(kv.n_basis) % ctrl.shape[0]]
    points = spline_core.eval_curve(curve, us)
    assert points.tobytes() == _kernels.curve_points(kv.knots, p, full, us).tobytes()
    assert points.tobytes() == curve_points_ref(kv.knots, p, ctrl, us).tobytes()
    order = min(order, p)
    ders = _kernels.curve_derivatives(kv.knots, p, ctrl, us, order)
    assert ders.tobytes() == _kernels.curve_derivatives(kv.knots, p, full, us, order).tobytes()
    assert ders.tobytes() == curve_derivatives_ref(kv.knots, p, ctrl, us, order).tobytes()

    folded = _kernels.collocation_matrix(kv.knots, p, kv.n_basis, us)
    cols = ctrl.shape[0]
    for j in range(cols, kv.n_basis):
        folded[:, j % cols] += folded[:, j]
    wrapped = _kernels.collocation_matrix(kv.knots, p, cols, us)
    assert wrapped.tobytes() == folded[:, :cols].copy().tobytes()
    assert wrapped.tobytes() == collocation_matrix_ref(kv.knots, p, cols, us).tobytes()

    ku, net = surface.knots_u, surface.control_net
    vs = us[::-1].copy()
    uu = np.linspace(0.0, 1.0, us.size)
    net_full = net[:, np.arange(kv.n_basis) % net.shape[1]]
    args = (ku.knots, ku.degree, kv.knots, p)
    pts = spline_core.eval_surface(surface, uu, vs)
    assert pts.tobytes() == _kernels.surface_points(*args, net_full, uu, vs).tobytes()
    assert pts.tobytes() == surface_points_ref(*args, net, uu, vs).tobytes()
    du, dv = min(order, ku.degree), order
    part = spline_core.surface_partial(surface, uu, vs, du, dv)
    assert part.tobytes() == _kernels.surface_partial(*args, net_full, uu, vs, du, dv).tobytes()
    assert part.tobytes() == surface_partial_ref(*args, net, uu, vs, du, dv).tobytes()
