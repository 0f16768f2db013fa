import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import spline_core as sc
from closedloft.errors import DomainError, InvalidInputError

from conftest import circle_points, expanded, random_closed_curve


# --- knot vector construction ---

def test_cyclic_uniform_extends_uniformly():
    kv = sc.cyclic_knot_vector([0, 0.25, 0.5, 0.75, 1], 2)
    np.testing.assert_allclose(
        kv.knots, [-0.5, -0.25, 0, 0.25, 0.5, 0.75, 1, 1.25, 1.5], atol=1e-15
    )


def test_cyclic_recurrence_example():
    kv = sc.cyclic_knot_vector([0, 0.1, 0.6, 1], 1)
    np.testing.assert_allclose(kv.knots, [-0.4, 0, 0.1, 0.6, 1, 1.1], atol=1e-15)


def test_cyclic_single_span():
    kv = sc.cyclic_knot_vector([0, 1], 1)
    np.testing.assert_allclose(kv.knots, [-1, 0, 1, 2], atol=0)


def test_cyclic_rejects_degenerate_domain():
    with pytest.raises(InvalidInputError):
        sc.cyclic_knot_vector([0, 0.5, 0.5, 1], 2)
    with pytest.raises(InvalidInputError):
        sc.cyclic_knot_vector([0, 0.7, 0.4, 1], 2)


def _padded_domains(rng, interiors, fill=np.inf):
    """Domains with the given interior counts, padded with ``fill``, and
    their lengths."""
    rows = [np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, k)), [1.0]]) for k in interiors]
    lengths = np.array([row.size for row in rows])
    out = np.full((len(rows), lengths.max()), fill)
    for row, domain in zip(out, rows):
        row[: domain.size] = domain
    return out, lengths


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("interior", [0, 1, 4, 9])
def test_cyclic_stack_equals_row_by_row(rng, degree, interior):
    # a padded batch of domains of 0 .. interior interior knots
    domains, lengths = _padded_domains(rng, [interior, 0, interior // 2, interior, 1 % (interior + 1)])
    stack = sc.cyclic_knot_vector(domains, degree, lengths)
    assert stack.knots.shape == (5, interior + 2 + 2 * degree)
    assert stack.size.tolist() == (lengths + 2 * degree).tolist()
    assert stack.n_basis.tolist() == (lengths - 2 + degree + 1).tolist()
    for row, domain, size, length in zip(stack.knots, domains, stack.size, lengths):
        one = sc.cyclic_knot_vector(domain[:length], degree)
        assert row[:size].tobytes() == one.knots.tobytes()
        assert (row[size:] == np.inf).all()  # the padding carries on
        assert row[degree: size - degree].tobytes() == domain[:length].tobytes()


def test_stacks_are_checked_row_by_row():
    good = [0.0, 0.3, 0.6, 1.0]
    short = [0.0, 0.5, 1.0, np.nan]  # three knots; the padding is never read
    lengths = np.array([4, 3])
    sc.cyclic_knot_vector([good, short], 2, lengths)
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        sc.cyclic_knot_vector([good, [0.0, 0.6, 0.3, 1.0]], 2, [4, 4])
    with pytest.raises(InvalidInputError, match="start at 0 and end at 1"):
        sc.cyclic_knot_vector([good, [0.0, 0.3, 0.6, 0.9]], 2, [4, 4])
    with pytest.raises(InvalidInputError, match="start at 0 and end at 1"):
        sc.cyclic_knot_vector([good, short], 2, [4, 2])  # row 1 ends at 0.5
    with pytest.raises(InvalidInputError, match="finite"):
        sc.cyclic_knot_vector([good, short], 2, [4, 4])
    for bad in ([4, 1], [4, 5], [4], [4.0, 3.0]):
        with pytest.raises(InvalidInputError, match="row lengths"):
            sc.validate_domain_knots([good, short], bad)
    with pytest.raises(InvalidInputError, match="1-D sequence"):
        sc.validate_domain_knots([good, good])  # a batch only with lengths
    batch = sc.cyclic_knot_vector([good, short], 2, lengths)
    with pytest.raises(InvalidInputError, match="2-D batch with lengths"):
        sc.KnotVector(batch.knots, 2, "cyclic")
    for row, column in ((0, 0), (1, 6), (1, 5)):  # a left, and two right extension knots
        knots = batch.knots.copy()
        knots[row, column] -= 0.1
        with pytest.raises(InvalidInputError, match="cyclic extension|non-decreasing"):
            sc.KnotVector(knots, 2, "cyclic", batch.size)
    knots = batch.knots.copy()
    knots[1, 7:] = -5.0  # padding of row 1 is not checked
    assert sc.KnotVector(knots, 2, "cyclic", batch.size) == sc.KnotVector(knots, 2, "cyclic", batch.size)
    clamped = np.array([[0, 0, 0, 0.5, 1, 1, 1, 7], [0, 0, 0, 1, 1, 1, 7, 7]], float)
    sc.KnotVector(clamped, 2, "clamped", [7, 6])
    with pytest.raises(InvalidInputError, match="p\\+1 equal end knots"):
        sc.KnotVector(clamped, 2, "clamped", [8, 6])


def test_clamped_knot_vector_examples():
    np.testing.assert_array_equal(
        sc.clamped_knot_vector([0, 0.5, 1], 2).knots, [0, 0, 0, 0.5, 1, 1, 1]
    )
    np.testing.assert_array_equal(
        sc.clamped_knot_vector([0, 1], 3).knots, [0, 0, 0, 0, 1, 1, 1, 1]
    )
    kv = sc.clamped_knot_vector([0, 0.4667, 1], 3)
    np.testing.assert_allclose(kv.knots, [0, 0, 0, 0, 0.4667, 1, 1, 1, 1])


def test_knot_vector_style_validation():
    with pytest.raises(InvalidInputError):
        sc.KnotVector(np.array([0.0, 0, 0.5, 1, 1]), 2, "clamped")  # ends not repeated p+1
    with pytest.raises(InvalidInputError):
        sc.KnotVector(np.array([-0.3, 0, 0.5, 1, 1.2]), 1, "cyclic")  # wrong extension


# --- basis functions ---

def test_degree_zero_like_indicator_via_linear_hat():
    kv = sc.clamped_knot_vector([0, 0.5, 1], 1)
    span, vals = sc.nonzero_basis(kv, 0.25)
    assert vals.sum() == pytest.approx(1.0)


def test_bernstein_quadratic_midpoint():
    kv = sc.clamped_knot_vector([0, 1], 2)
    np.testing.assert_allclose(sc.basis_functions(kv, 0.5), [0.25, 0.5, 0.25])


def test_partition_of_unity_cyclic_and_clamped(rng):
    kvs = [
        sc.cyclic_knot_vector([0, 0.2, 0.4, 0.6, 0.8, 1], 3),
        sc.cyclic_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.95, 7)), [1]]), 4),
        sc.clamped_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.95, 5)), [1]]), 3),
    ]
    for kv in kvs:
        for u in rng.uniform(0, 1, 1000):
            assert abs(sc.basis_functions(kv, u).sum() - 1.0) < 1e-13


def test_local_support(rng):
    kv = sc.cyclic_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.95, 6)), [1]]), 3)
    knots = kv.knots
    for u in rng.uniform(0, 1, 200):
        row = sc.basis_functions(kv, u)
        for i in np.nonzero(row)[0]:
            assert knots[i] <= u <= knots[i + 3 + 1]


def test_basis_domain_error():
    kv = sc.clamped_knot_vector([0, 1], 2)
    with pytest.raises(DomainError):
        sc.basis_functions(kv, 1.0001)
    with pytest.raises(DomainError):
        sc.basis_functions(kv, -0.1)


_KV = sc.clamped_knot_vector([0, 0.5, 1], 2)
_CURVE = sc.BSplineCurve(_KV, np.arange(12.0).reshape(4, 3))
_SURFACE = sc.BSplineSurface(_KV, _KV, np.arange(48.0).reshape(4, 4, 3))
_ENTRY_POINTS = {
    "find_span": lambda u: sc.find_span(_KV, u),
    "nonzero_basis": lambda u: sc.nonzero_basis(_KV, u),
    "basis_functions": lambda u: sc.basis_functions(_KV, u),
    "basis_derivatives": lambda u: sc.basis_derivatives(_KV, u, 1),
    "eval_curve": lambda u: sc.eval_curve(_CURVE, u),
    "curve_derivatives": lambda u: sc.curve_derivatives(_CURVE, u, 1),
    "eval_surface_u": lambda u: sc.eval_surface(_SURFACE, u, 0.5),
    "eval_surface_v": lambda u: sc.eval_surface(_SURFACE, [0.5, 0.5], [0.5, u]),
    "surface_partial": lambda u: sc.surface_partial(_SURFACE, 0.5, u, 1, 0),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_is_a_domain_error(name, bad):
    _ENTRY_POINTS[name](0.25)
    with pytest.raises(DomainError, match=f"parameter {bad}"):
        _ENTRY_POINTS[name](bad)


# --- basis derivatives ---

def test_zeroth_derivative_matches_basis(rng):
    kv = sc.cyclic_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.1, 0.9, 5)), [1]]), 3)
    for u in rng.uniform(0, 1, 20):
        span, ders = sc.basis_derivatives(kv, u, 0)
        span2, vals = sc.nonzero_basis(kv, u)
        assert span == span2
        np.testing.assert_allclose(ders[0], vals, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knot_vector_rejects_non_finite_knots(bad):
    clamped = sc.clamped_knot_vector([0, 0.5, 1], 2).knots.copy()
    clamped[3] = bad  # the interior knot
    cyclic = sc.cyclic_knot_vector([0, 0.5, 1], 2).knots.copy()
    cyclic[0] = bad  # an extension knot
    for knots, style in ((clamped, "clamped"), (cyclic, "cyclic")):
        with pytest.raises(InvalidInputError, match="knots must be finite"):
            sc.KnotVector(knots, 2, style)


def test_padded_knot_batch_checks_finiteness_within_each_row():
    batch = np.full((2, 8), np.inf)  # padded with +inf, as the trial harness pads
    batch[0, :7] = sc.cyclic_knot_vector([0, 0.5, 1], 2).knots
    batch[1] = sc.cyclic_knot_vector([0, 0.25, 0.5, 1], 2).knots
    lengths = np.array([7, 8])
    assert sc.KnotVector(batch, 2, "cyclic", lengths).n_basis.tolist() == [4, 5]
    batch[0, 1] = np.nan
    with pytest.raises(InvalidInputError, match="knots must be finite"):
        sc.KnotVector(batch, 2, "cyclic", lengths)


def test_linear_hat_slopes():
    kv = sc.clamped_knot_vector([0, 1], 1)
    _, ders = sc.basis_derivatives(kv, 0.3, 1)
    np.testing.assert_allclose(ders[1], [-1.0, 1.0])


def test_first_derivative_finite_difference(rng):
    kv = sc.cyclic_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.1, 0.9, 6)), [1]]), 3)
    h = 1e-6
    checked = 0
    while checked < 25:
        u = rng.uniform(0.05, 0.95)
        if np.abs(kv.knots - u).min() < 4 * h:
            continue
        span, ders = sc.basis_derivatives(kv, u, 1)
        analytic = np.zeros(kv.n_basis)
        analytic[span - kv.degree: span + 1] = ders[1]
        fd = (sc.basis_functions(kv, u + h) - sc.basis_functions(kv, u - h)) / (2 * h)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)
        checked += 1


def test_derivative_order_validation():
    kv = sc.clamped_knot_vector([0, 1], 2)
    with pytest.raises(InvalidInputError):
        sc.basis_derivatives(kv, 0.5, 3)


# --- curve evaluation ---

def test_closed_curve_closure(rng):
    c = random_closed_curve(rng, 3)
    assert np.linalg.norm(sc.eval_curve(c, 0.0) - sc.eval_curve(c, 1.0)) < 1e-12


def test_one_point_closed_curve_evaluates_to_its_point():
    # one distinct control, degree 2: the wrap repeats the point twice
    kv = sc.cyclic_knot_vector([0, 1], 2)
    c = sc.BSplineCurve(kv, np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(sc.eval_curve(c, [0.0, 0.3, 0.99]), [[1.0, 2.0, 3.0]] * 3, atol=1e-14)


def test_closed_curve_with_fewer_controls_than_degree_wraps_cyclically():
    from scipy.interpolate import BSpline

    kv = sc.cyclic_knot_vector([0, 0.4, 1], 3)  # two distinct controls
    ctrl = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0]])
    c = sc.BSplineCurve(kv, ctrl)
    full = expanded(c)
    np.testing.assert_array_equal(full, ctrl[[0, 1, 0, 1, 0]])
    u = np.linspace(0.0, 1.0, 23)
    np.testing.assert_allclose(sc.eval_curve(c, u), BSpline(kv.knots, full, 3)(u), atol=1e-13)


def test_surface_with_one_cyclic_column_evaluates():
    ku = sc.clamped_knot_vector([0, 1], 1)
    kv = sc.cyclic_knot_vector([0, 1], 2)
    net = np.array([[[0.0, 0.0, 0.0]], [[2.0, 4.0, 6.0]]])
    s = sc.BSplineSurface(ku, kv, net)
    u = np.array([0.0, 0.25, 1.0])
    pts = sc.eval_surface(s, u, np.array([0.5, 0.0, 0.9]))
    np.testing.assert_allclose(pts, u[:, None] * [2.0, 4.0, 6.0], atol=1e-14)


def test_degree_and_kind_are_read_from_the_knot_vector():
    closed = sc.BSplineCurve(sc.cyclic_knot_vector([0, 0.5, 1], 3), np.zeros((2, 3)))
    assert (closed.degree, closed.kind) == (3, "closed")
    open_ = sc.BSplineCurve(_KV, np.zeros((4, 3)))
    assert (open_.degree, open_.kind) == (2, "open")
    s = sc.BSplineSurface(sc.clamped_knot_vector([0, 1], 1), sc.cyclic_knot_vector([0, 0.5, 1], 3), np.zeros((2, 2, 3)))
    assert (s.degree_u, s.degree_v, s.closed_v) == (1, 3, True)
    with pytest.raises(InvalidInputError, match="closed curve needs 2 control points, got 5"):
        sc.BSplineCurve(closed.knots, np.zeros((5, 3)))  # the expanded count is not accepted
    with pytest.raises(InvalidInputError, match="open curve needs 4 control points, got 2"):
        sc.BSplineCurve(_KV, np.zeros((2, 3)))


def test_open_linear_midpoint():
    kv = sc.clamped_knot_vector([0, 1], 1)
    c = sc.BSplineCurve(kv, np.array([[0, 0, 0], [1, 0, 0]], float))
    np.testing.assert_allclose(sc.eval_curve(c, 0.5), [0.5, 0, 0])


def test_closed_interpolant_near_circle():
    # solved in test_curve_interp too; here just curve evaluation geometry
    from closedloft.param_knots import closed_parameters, closed_knots
    from closedloft.curve_interp import ClosedInterpolationProblem, interpolate_closed_square

    pts = circle_points(16)
    t = closed_parameters(pts)
    domain, _ = closed_knots(t, "natural", 3)
    res = interpolate_closed_square(ClosedInterpolationProblem(pts, t, domain, 3))
    samples = sc.eval_curve(res.curve, np.linspace(0, 1, 400))
    radial = np.abs(np.linalg.norm(samples[:, :2], axis=1) - 1.0)
    assert radial.max() < 1e-3


def test_curve_domain_error(rng):
    c = random_closed_curve(rng, 2)
    with pytest.raises(DomainError):
        sc.eval_curve(c, 1.5)


def test_seam_derivative_continuity(rng):
    for degree in (2, 3, 4, 5):
        c = random_closed_curve(rng, degree)
        d0 = sc.curve_derivatives(c, 0.0, degree - 1)
        d1 = sc.curve_derivatives(c, 1.0, degree - 1)
        scale = max(np.abs(d0).max(), 1.0)
        assert np.abs(d0 - d1).max() / scale < 1e-8


# --- surface evaluation ---

def test_bilinear_patch_corners():
    kv = sc.clamped_knot_vector([0, 1], 1)
    net = np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 1]]], float)
    s = sc.BSplineSurface(kv, kv, net)
    np.testing.assert_allclose(sc.eval_surface(s, 0, 0), net[0, 0])
    np.testing.assert_allclose(sc.eval_surface(s, 1, 0), net[1, 0])
    np.testing.assert_allclose(sc.eval_surface(s, 0, 1), net[0, 1])
    np.testing.assert_allclose(sc.eval_surface(s, 1, 1), net[1, 1])


def test_cyclic_v_surface_wraps(rng):
    ku = sc.clamped_knot_vector([0, 0.5, 1], 2)
    kv = sc.cyclic_knot_vector([0, 0.2, 0.4, 0.6, 0.8, 1], 3)
    net = rng.normal(size=(ku.n_basis, kv.n_basis - 3, 3))
    s = sc.BSplineSurface(ku, kv, net)
    assert s.closed_v
    us = np.linspace(0, 1, 10)
    p0 = sc.eval_surface(s, us, np.zeros(10))
    p1 = sc.eval_surface(s, us, np.ones(10))
    assert np.abs(p0 - p1).max() < 1e-12


# --- clamping ---

def test_clamp_degree_one_keeps_controls(rng):
    c = random_closed_curve(rng, 1)
    clamped = sc.clamp_closed_curve(c)
    np.testing.assert_array_equal(clamped.control_points, expanded(c))


def test_clamp_p2_uniform_first_control():
    kv = sc.cyclic_knot_vector([0, 0.25, 0.5, 0.75, 1], 2)
    ctrl = np.arange(12, dtype=float).reshape(4, 3)
    c = sc.BSplineCurve(kv, ctrl)
    clamped = sc.clamp_closed_curve(c)
    np.testing.assert_allclose(clamped.control_points[0], 0.5 * ctrl[0] + 0.5 * ctrl[1])


def test_clamp_requires_cyclic():
    kv = sc.clamped_knot_vector([0, 0.5, 1], 2)
    c = sc.BSplineCurve(kv, np.zeros((4, 3)))
    with pytest.raises(InvalidInputError):
        sc.clamp_closed_curve(c)


def test_clamp_evaluation_invariance(rng):
    for degree in (2, 3, 4, 5):
        c = random_closed_curve(rng, degree)
        clamped = sc.clamp_closed_curve(c)
        us = rng.uniform(0, 1, 200)
        dev = np.linalg.norm(sc.eval_curve(c, us) - sc.eval_curve(clamped, us), axis=1).max()
        assert dev <= 1e-12 * max(sc.bbox_diagonal(c.control_points), 1.0)


# --- refinement ---

def test_refine_no_knots_is_identity(rng):
    c = sc.clamp_closed_curve(random_closed_curve(rng, 3))
    assert sc.refine_knots(c, []) is c


def test_refine_linear_subdivision():
    kv = sc.clamped_knot_vector([0, 1], 1)
    c = sc.BSplineCurve(kv, np.array([[0, 0, 0], [1, 0, 0]], float))
    refined = sc.refine_knots(c, [0.5])
    np.testing.assert_allclose(refined.control_points[1], [0.5, 0, 0])
    np.testing.assert_array_equal(refined.knots.knots, [0, 0, 0.5, 1, 1])


def test_refine_invariance_random(rng):
    c = sc.clamp_closed_curve(random_closed_curve(rng, 3))
    refined = sc.refine_knots(c, rng.uniform(0.05, 0.95, 5))
    us = rng.uniform(0, 1, 200)
    dev = np.linalg.norm(sc.eval_curve(c, us) - sc.eval_curve(refined, us), axis=1).max()
    assert dev < 1e-12 * max(sc.bbox_diagonal(c.control_points), 1.0)


def test_refine_rejects_out_of_domain(rng):
    c = sc.clamp_closed_curve(random_closed_curve(rng, 2))
    with pytest.raises(InvalidInputError):
        sc.refine_knots(c, [1.2])


def _cubic_with_interior(interior):
    kv = sc.KnotVector(np.concatenate([np.zeros(4), interior, np.ones(4)]), 3, "clamped")
    ctrl = np.random.default_rng(3).normal(size=(kv.n_basis, 3))
    return sc.BSplineCurve(kv, ctrl)


@pytest.mark.parametrize("existing, added", [([0.5], 2), ([], 3)])
def test_refine_allows_multiplicity_up_to_degree(existing, added):
    c = _cubic_with_interior(existing)
    refined = sc.refine_knots(c, [0.5] * added)
    values, counts = sc.knot_multiplicities(refined.knots.knots)
    assert counts[values.index(0.5)] == 3


@pytest.mark.parametrize("existing, added", [([0.5], 3), ([0.5], 5), ([], 4)])
def test_refine_rejects_multiplicity_beyond_degree(existing, added):
    c = _cubic_with_interior(existing)
    with pytest.raises(InvalidInputError, match="knot 0.5 multiplicity"):
        sc.refine_knots(c, [0.5] * added)


def test_refine_rejects_knot_merging_into_an_end():
    c = _cubic_with_interior([0.5])
    with pytest.raises(InvalidInputError, match="knot 0.0 multiplicity 5"):
        sc.refine_knots(c, [1e-12])


def _boehm_refine(curve, new_knots):
    """Reference: one Boehm insertion per knot (The NURBS Book, A5.1)."""
    p = curve.degree
    knots, ctrl = curve.knots.knots, curve.control_points
    for u in np.sort(new_knots):
        span = int(np.searchsorted(knots, u, side="right")) - 1
        i = np.arange(span - p + 1, span + 1)
        alpha = ((u - knots[i]) / (knots[i + p] - knots[i]))[:, None]
        mid = alpha * ctrl[i] + (1.0 - alpha) * ctrl[i - 1]
        ctrl = np.vstack([ctrl[: span - p + 1], mid, ctrl[span:]])
        knots = np.insert(knots, span + 1, u)
    return knots, ctrl


@st.composite
def refinement_cases(draw):
    """A clamped curve with interior knots on a 1/64 grid, and knots to insert
    on a 1/128 grid (so some coincide with existing knots), split in two parts.
    No knot exceeds multiplicity p after insertion."""
    p = draw(st.integers(1, 5))
    existing = {
        2 * k: draw(st.integers(1, p))
        for k in draw(st.sets(st.integers(1, 63), max_size=8))
    }
    added = []
    for k in draw(st.sets(st.integers(1, 127), min_size=1, max_size=10)):
        room = p - existing.get(k, 0)
        added += [k / 128] * draw(st.integers(0, room))
    added = draw(st.permutations(added))
    split = draw(st.integers(0, len(added)))
    interior = np.repeat([k / 128 for k in sorted(existing)], [existing[k] for k in sorted(existing)])
    kv = sc.KnotVector(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p, "clamped")
    seed = draw(st.integers(0, 2**32 - 1))
    ctrl = np.random.default_rng(seed).normal(size=(kv.n_basis, 3))
    curve = sc.BSplineCurve(kv, ctrl)
    return curve, np.asarray(added), added[:split], added[split:]


@settings(deadline=None, max_examples=150)
@given(refinement_cases())
def test_refine_properties(case):
    c, added, a, b = case
    scale = max(sc.bbox_diagonal(c.control_points), 1.0)
    refined = sc.refine_knots(c, added)
    np.testing.assert_array_equal(refined.knots.knots, np.sort(np.concatenate([c.knots.knots, added])))
    us = np.linspace(0.0, 1.0, 200)
    dev = np.linalg.norm(sc.eval_curve(c, us) - sc.eval_curve(refined, us), axis=1).max()
    assert dev <= 1e-12 * scale
    ref_knots, ref_ctrl = _boehm_refine(c, added)
    np.testing.assert_array_equal(refined.knots.knots, ref_knots)
    assert np.abs(refined.control_points - ref_ctrl).max() <= 1e-13 * scale
    twice = sc.refine_knots(sc.refine_knots(c, a), b)
    np.testing.assert_array_equal(twice.knots.knots, refined.knots.knots)
    assert np.abs(twice.control_points - refined.control_points).max() <= 1e-13 * scale


# --- merging ---

def _kv(vals, p):
    return sc.KnotVector(np.asarray(vals, float), p, "clamped")


def test_merge_idempotent():
    a = _kv([0, 0, 0.3, 1, 1], 1)
    assert sc.merge_knot_vectors(a, a) == a


def test_merge_disjoint_interiors():
    a = _kv([0, 0, 0.3, 1, 1], 1)
    b = _kv([0, 0, 0.6, 1, 1], 1)
    np.testing.assert_array_equal(sc.merge_knot_vectors(a, b).knots, [0, 0, 0.3, 0.6, 1, 1])


def test_merge_max_multiplicity():
    a = _kv([0, 0, 0, 0.3, 0.3, 1, 1, 1], 2)
    b = _kv([0, 0, 0, 0.3, 1, 1, 1], 2)
    merged = sc.merge_knot_vectors(a, b)
    vals, counts = sc.knot_multiplicities(merged.knots)
    assert dict(zip(vals, counts))[0.3] == 2


def test_merge_commutative_associative(rng):
    kvs = []
    for _ in range(3):
        interior = np.sort(rng.choice(np.arange(1, 10) / 10.0, size=3, replace=False))
        kvs.append(sc.clamped_knot_vector(np.concatenate([[0], interior, [1]]), 2))
    a, b, c = kvs
    assert sc.merge_knot_vectors(a, b) == sc.merge_knot_vectors(b, a)
    assert sc.merge_knot_vectors(sc.merge_knot_vectors(a, b), c) == sc.merge_knot_vectors(
        a, sc.merge_knot_vectors(b, c)
    )


def test_merge_degree_mismatch():
    with pytest.raises(InvalidInputError):
        sc.merge_knot_vectors(_kv([0, 0, 1, 1], 1), _kv([0, 0, 0, 1, 1, 1], 2))


# --- knot multisets against the sequential loops ---
#
# The loops below are the knot-by-knot implementations the vectorized helpers
# replaced; the helpers must give the same values, counts and knot vectors.

def _loop_multiplicities(knots, tol=sc.KNOT_TOL):
    values, counts = [], []
    for x in np.asarray(knots, dtype=float):
        if values and x - values[-1] <= tol:
            counts[-1] += 1
        else:
            values.append(float(x))
            counts.append(1)
    return values, counts


def _loop_merge_multisets(va, ca, vb, cb, tol=sc.KNOT_TOL):
    out_v, out_c = [], []
    i = j = 0
    while i < len(va) or j < len(vb):
        if j >= len(vb) or (i < len(va) and va[i] < vb[j] - tol):
            out_v.append(va[i]); out_c.append(ca[i]); i += 1
        elif i >= len(va) or vb[j] < va[i] - tol:
            out_v.append(vb[j]); out_c.append(cb[j]); j += 1
        else:
            out_v.append(min(va[i], vb[j])); out_c.append(max(ca[i], cb[j]))
            i += 1; j += 1
    return out_v, out_c


def _loop_merge_knot_vectors(a, b):
    va, ca = _loop_multiplicities(a.knots)
    vb, cb = _loop_multiplicities(b.knots)
    out_v, out_c = _loop_merge_multisets(va, ca, vb, cb)
    return sc.KnotVector(np.repeat(out_v, out_c), a.degree, "clamped")


def _loop_merge_domain_knots(a, b, tol=sc.KNOT_TOL):
    va = [float(x) for x in np.asarray(a, dtype=float)]
    vb = [float(x) for x in np.asarray(b, dtype=float)]
    out_v, _ = _loop_merge_multisets(va, [1] * len(va), vb, [1] * len(vb), tol)
    return np.asarray(out_v)


def _loop_missing_knots(target, base, tol=sc.KNOT_TOL):
    vt, ct = _loop_multiplicities(target.knots, tol)
    vb, cb = _loop_multiplicities(base.knots, tol)
    out = []
    j = 0
    for v, c in zip(vt, ct):
        while j < len(vb) and vb[j] < v - tol:
            j += 1
        have = cb[j] if j < len(vb) and abs(vb[j] - v) <= tol else 0
        out.extend([v] * max(0, c - have))
    return np.asarray(out)


_TOL_STEPS = tuple(f * sc.KNOT_TOL for f in (0.0, 0.3, 0.5, 0.9, 1.0, 1.1, 2.0))


@st.composite
def knot_runs(draw, lo=0.0, hi=1.0, strict=False):
    """Sorted knots in (lo, hi): runs that start on a coarse grid (shared by
    independent draws, so two draws collide) and climb by steps of 0, 0.3,
    0.5, 0.9, 1.0, 1.1 or 2 times KNOT_TOL, so chains of close knots can
    span more than KNOT_TOL and a knot can lie within tolerance of two
    neighbours.  ``strict`` drops repeated values."""
    out = []
    for g in draw(st.lists(st.integers(1, 15), max_size=6, unique=True)):
        x = lo + (hi - lo) * g / 16 + draw(st.sampled_from(_TOL_STEPS))
        for step in draw(st.lists(st.sampled_from(_TOL_STEPS), max_size=5)):
            out.append(x)
            x += step
        out.append(x)
    out = np.sort(np.asarray(out, dtype=float))
    return np.unique(out) if strict else out


@st.composite
def clamped_vectors(draw, p):
    """Clamped knot vectors whose interior may crowd the ends within KNOT_TOL."""
    interior = draw(knot_runs())
    near_ends = draw(st.lists(st.sampled_from(_TOL_STEPS[1:4]), max_size=2))
    interior = np.sort(np.concatenate([interior, near_ends, [1.0 - e for e in near_ends]]))
    interior = interior[(interior > 0.0) & (interior < 1.0)]
    return sc.KnotVector(np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p, "clamped")


def _same_multiset(got, want):
    assert got[0] == want[0] and got[1] == want[1]
    assert all(type(v) is float for v in got[0]) and all(type(c) is int for c in got[1])


@settings(deadline=None, max_examples=300)
@given(knot_runs())
def test_knot_multiplicities_match_loop(knots):
    _same_multiset(sc.knot_multiplicities(knots), _loop_multiplicities(knots))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 5).flatmap(lambda p: st.tuples(clamped_vectors(p), clamped_vectors(p))))
def test_merge_knot_vectors_and_missing_knots_match_loops(pair):
    a, b = pair
    try:
        want = _loop_merge_knot_vectors(a, b)
    except InvalidInputError as exc:
        # an end group that absorbs a near-end knot takes it as its value
        with pytest.raises(InvalidInputError, match=re.escape(str(exc))):
            sc.merge_knot_vectors(a, b)
        merged = a
    else:
        merged = sc.merge_knot_vectors(a, b)
        assert merged == want and merged.knots.tobytes() == want.knots.tobytes()
    for target, base in ((a, b), (b, a), (merged, a), (a, merged)):
        got, want = sc.missing_knots(target, base), _loop_missing_knots(target, base)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=300)
@given(knot_runs(strict=True), knot_runs(strict=True))
def test_merge_domain_knots_matches_loop(a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        got, want = sc.merge_domain_knots(x, y), _loop_merge_domain_knots(x, y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "knots",
    [[], [0.0], [0.0, 0.0, 1.0, 1.0], [0.5, 0.5 + 0.6e-10, 0.5 + 1.2e-10, 0.5 + 1.8e-10],
     [0.5, 0.5 + 0.9e-10, 0.5 + 1.8e-10, 0.5 + 2.7e-10, 0.5 + 2.8e-10]],
)
def test_knot_multiplicities_edge_cases(knots):
    _same_multiset(sc.knot_multiplicities(knots), _loop_multiplicities(knots))


def test_merge_domain_knots_with_empty_and_end_only():
    ends = np.array([0.0, 1.0])
    for a, b in ((np.zeros(0), ends), (ends, np.zeros(0)), (ends, ends), (np.zeros(0), np.zeros(0))):
        got, want = sc.merge_domain_knots(a, b), _loop_merge_domain_knots(a, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_knot_between_two_neighbours_pairs_with_the_first():
    t = sc.KNOT_TOL
    a = np.array([0.5, 0.5 + 1.1 * t])
    b = np.array([0.5 + 0.6 * t])  # within tol of both knots of a
    np.testing.assert_array_equal(sc.merge_domain_knots(a, b), _loop_merge_domain_knots(a, b))
    np.testing.assert_array_equal(sc.merge_domain_knots(a, b), a)
