from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import curve_interp as ci
from closedloft import linalg_solve as la
from closedloft import param_knots as pk
from closedloft import spline_core as sc
from closedloft.errors import (
    ClosedLoftError,
    ContractError,
    InvalidInputError,
    PreconditionError,
    SingularSystemError,
)

from conftest import circle_points, ellipse_points, energy_stiffness, expanded, square_points


def _closed_problem(points, degree, method=None):
    t = pk.closed_parameters(points)
    method = method or ("natural" if degree % 2 == 1 else "shifting")
    domain, solve_params = pk.closed_knots(t, method, degree)
    return ci.ClosedInterpolationProblem(points, solve_params, domain, degree)


def _scale(points):
    return sc.bbox_diagonal(points)


# --- open interpolation ---

def test_open_two_points_segment():
    pts = np.array([[0, 0, 0], [2, 1, 0]], float)
    t = pk.open_parameters(pts)
    res = ci.interpolate_open(pts, t, pk.averaging_knots_open(t, 1))
    assert res.max_residual == 0.0
    np.testing.assert_allclose(sc.eval_curve(res.curve, 0.5), [1, 0.5, 0])


def test_open_collinear_points_linear_precision(rng):
    xs = np.array([0.0, 0.7, 1.1, 2.5, 4.0])
    pts = np.stack([xs, 2 * xs, -xs], axis=1)
    t = pk.open_parameters(pts)
    res = ci.interpolate_open(pts, t, pk.averaging_knots_open(t, 3))
    samples = sc.eval_curve(res.curve, np.linspace(0, 1, 50))
    # all sampled points must stay on the line x*(1,2,-1)
    line_dir = np.array([1.0, 2.0, -1.0]) / np.sqrt(6)
    offsets = samples - np.outer(samples @ line_dir, line_dir)
    assert np.abs(offsets).max() < 1e-10


def test_open_sine_arc_residual(rng):
    xs = np.linspace(0, np.pi, 9)
    pts = np.stack([xs, np.sin(xs), np.zeros_like(xs)], axis=1)
    t = pk.open_parameters(pts)
    res = ci.interpolate_open(pts, t, pk.averaging_knots_open(t, 3))
    assert res.max_residual < 1e-10


# --- closed square interpolation ---

def test_square_polyline_through_corners():
    res = ci.interpolate_closed_square(_closed_problem(square_points(), 1))
    assert res.max_residual == 0.0
    assert res.condition_ok


def test_circle16_natural_cubic():
    pts = circle_points(16)
    res = ci.interpolate_closed_square(_closed_problem(pts, 3, "natural"))
    assert res.max_residual < 1e-10 * _scale(pts)
    c = res.curve
    d0 = sc.curve_derivatives(c, 0.0, 2)
    d1 = sc.curve_derivatives(c, 1.0, 2)
    assert np.abs(d0 - d1).max() / max(np.abs(d0).max(), 1.0) < 1e-8


def test_diagnostics_run_the_svd_only_when_read(monkeypatch):
    calls = []
    monkeypatch.setattr(ci, "rank_report", lambda m: calls.append(m) or la.rank_report(m))
    pts = circle_points(12)
    closed = ci.interpolate_closed_square(_closed_problem(pts, 3))
    t = pk.open_parameters(pts)
    opened = ci.interpolate_open(pts, t, pk.averaging_knots_open(t, 3))
    assert calls == []
    for res in (closed, opened):
        assert res.diagnostics.rank == res.system.shape[1]
        assert res.diagnostics is res.diagnostics
    assert len(calls) == 2


def test_ellipse12_shifting_quartic():
    pts = ellipse_points(12)
    res = ci.interpolate_closed_square(_closed_problem(pts, 4, "shifting"))
    assert res.max_residual < 1e-10 * _scale(pts)
    assert res.condition_ok


def test_closed_square_requires_matching_sizes():
    pts = circle_points(8)
    t = pk.closed_parameters(pts)
    domain, _ = pk.closed_knots(t, "natural", 3)
    bigger = sc.merge_domain_knots(domain, [0.513])
    problem = ci.ClosedInterpolationProblem(pts, t, bigger, 3)
    with pytest.raises(InvalidInputError):
        ci.interpolate_closed_square(problem)


def test_closed_parity_mismatch_warns():
    # even degree with natural knots: the documented ill-conditioned choice;
    # on uniform data the system is outright singular and the error carries
    # the diagnostics
    pts = circle_points(10)
    t = pk.closed_parameters(pts)
    domain, _ = pk.closed_knots(t, "natural", 4)  # even degree, unshifted params
    problem = ci.ClosedInterpolationProblem(pts, t, domain, 4)
    assert not problem.parity_ok
    with pytest.warns(RuntimeWarning):
        try:
            ci.interpolate_closed_square(problem)
        except SingularSystemError as exc:
            assert exc.rank_report is not None
            assert exc.condition_ok is None


def test_wrap_identity_exact(rng):
    pts = circle_points(12, radius=2.0) + rng.normal(scale=0.05, size=(12, 3))
    res = ci.interpolate_closed_square(_closed_problem(pts, 3))
    c = res.curve
    full = expanded(c)
    np.testing.assert_array_equal(full[-3:], full[:3])


# --- folded solves against the stacked [N; A] solves ---

def _stacked_solve(problem, stiff=None):
    """Reference: solve [N; A] for the n̂+p+1 expanded controls, square (LU)
    or by the energy KKT system over the unfolded stiffness."""
    p = problem.degree
    kv = sc.cyclic_knot_vector(problem.domain_knots, p)
    matrix = la.assemble_closed_system(problem.params, kv, problem.nhat)
    rhs = np.vstack([problem.points, np.zeros((p, 3))])
    if stiff is None:
        return la.solve_dense(matrix, rhs)
    return la.solve_kkt(stiff, matrix, rhs)[0]


def _noisy_problem(rng, degree, extra):
    n1 = int(rng.integers(degree + 3, 20))
    pts = circle_points(n1, radius=rng.uniform(0.5, 3.0)) + rng.normal(scale=0.05, size=(n1, 3))
    return _energy_problem(pts, degree, np.sort(rng.uniform(0.03, 0.97, extra)))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_folded_square_solve_matches_stacked_solve(rng, degree):
    for _ in range(10):
        problem = _noisy_problem(rng, degree, 0)
        res = ci.interpolate_closed_square(problem)
        ref = _stacked_solve(problem)
        np.testing.assert_allclose(expanded(res.curve), ref, rtol=0,
                                   atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_folded_energy_solve_matches_stacked_solve(rng, degree):
    for _ in range(10):
        problem = _noisy_problem(rng, degree, int(rng.integers(1, 8)))
        kv = sc.cyclic_knot_vector(problem.domain_knots, degree)
        stiff = la.stiffness_matrix(kv, 1.0, 0.2)
        res = ci.interpolate_closed_energy(problem, stiff)
        assert res.system.shape == (problem.n + 1, problem.nhat + 1)
        ref = _stacked_solve(problem, stiff)
        np.testing.assert_allclose(expanded(res.curve), ref, rtol=0,
                                   atol=1e-9 * np.abs(ref).max())


# --- closed energy interpolation ---

def _energy_problem(points, degree, extra_knots):
    t = pk.closed_parameters(points)
    method = "natural" if degree % 2 == 1 else "shifting"
    domain, solve_params = pk.closed_knots(t, method, degree)
    domain = sc.merge_domain_knots(domain, extra_knots)
    return ci.ClosedInterpolationProblem(points, solve_params, domain, degree)


def test_energy_reduces_to_square_when_fully_constrained():
    pts = circle_points(10)
    problem = _closed_problem(pts, 3)
    square = ci.interpolate_closed_square(problem)
    energy = ci.interpolate_closed_energy(problem, energy_stiffness(problem))
    np.testing.assert_allclose(
        energy.curve.control_points, square.curve.control_points, atol=1e-8
    )


def test_energy_circle8_optimality(rng):
    pts = circle_points(8)
    extra = np.sort(rng.uniform(0.05, 0.95, 5))
    problem = _energy_problem(pts, 3, extra)
    assert problem.nhat == 12
    res = ci.interpolate_closed_energy(problem, energy_stiffness(problem))
    assert res.max_residual < 1e-8 * _scale(pts)
    kv = res.curve.knots
    stiff = la.stiffness_matrix(kv, 1.0, 0.2)
    base = la.curve_energy(stiff, expanded(res.curve))
    matrix = la.assemble_closed_system(problem.params, kv, problem.nhat)
    import scipy.linalg

    z = scipy.linalg.null_space(matrix)
    for _ in range(100):
        delta = (z @ rng.normal(size=(z.shape[1], 3)))
        perturbed = expanded(res.curve) + delta
        assert la.curve_energy(stiff, perturbed) >= base - 1e-10


def test_energy_linearity_under_scaling(rng):
    pts = circle_points(9, radius=1.3)
    extra = np.sort(rng.uniform(0.1, 0.9, 3))
    p1 = _energy_problem(pts, 3, extra)
    p2 = _energy_problem(2.0 * pts, 3, extra)
    r1 = ci.interpolate_closed_energy(p1, energy_stiffness(p1))
    r2 = ci.interpolate_closed_energy(p2, energy_stiffness(p2))
    np.testing.assert_allclose(
        r2.curve.control_points, 2.0 * r1.curve.control_points, rtol=0, atol=1e-9
    )


def test_energy_refuses_without_witness():
    pts = np.array([[np.cos(a), np.sin(a), 0.0] for a in np.linspace(0, 2 * np.pi, 7)[:-1]])
    t = pk.closed_parameters(pts)
    clustered = np.concatenate([[0.0], np.linspace(0.005, 0.02, 8), [1.0]])
    problem = ci.ClosedInterpolationProblem(pts, t, clustered, 3)
    with pytest.raises(PreconditionError):
        ci.interpolate_closed_energy(problem, energy_stiffness(problem))


def test_energy_parity_contract():
    pts = circle_points(10)
    t = pk.closed_parameters(pts)
    domain, _ = pk.closed_knots(t, "natural", 4)
    problem = ci.ClosedInterpolationProblem(pts, t, domain, 4)
    with pytest.raises(ContractError):
        ci.interpolate_closed_energy(problem, energy_stiffness(problem))


def test_energy_below_square_on_witness_subset(rng):
    # the energy minimum over the bigger space beats any square interpolant
    # on a feasible knot subsequence
    pts = circle_points(9) + rng.normal(scale=0.02, size=(9, 3))
    extra = np.sort(rng.uniform(0.08, 0.92, 5))
    problem = _energy_problem(pts, 3, extra)
    res = ci.interpolate_closed_energy(problem, energy_stiffness(problem))
    ok, witness = pk.check_conjecture2(problem.params, problem.domain_knots, 3)
    assert ok
    square = ci.interpolate_closed_square(
        ci.ClosedInterpolationProblem(pts, problem.params, witness, 3)
    )
    kv_big = res.curve.knots
    kv_small = square.curve.knots
    e_big = la.curve_energy(
        la.stiffness_matrix(kv_big, 1.0, 0.2), expanded(res.curve)
    )
    e_small = la.curve_energy(
        la.stiffness_matrix(kv_small, 1.0, 0.2), expanded(square.curve)
    )
    assert e_big <= e_small + 1e-9


# --- knot selection against an input vector ---

def test_select_prefers_input_knot_inside_interval():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    input_kv = sc.clamped_knot_vector([0, 0.3, 1], 3)
    domain = ci.select_domain_knots(t, input_kv, 3, 1.0)
    np.testing.assert_allclose(domain, [0, 0.3, 0.5, 0.75, 1])


def test_select_per_zero_degenerates_to_anchors():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    input_kv = sc.clamped_knot_vector([0, 0.3, 0.52, 0.8, 1], 3)
    domain = ci.select_domain_knots(t, input_kv, 3, 0.0)
    np.testing.assert_allclose(domain, pk.parity_form(t, 3)[0])


def test_procedure2_pipeline_and_merge_grows(rng):
    pts = circle_points(12, phase=0.3)
    t = pk.closed_parameters(pts)
    seed_domain, _ = pk.closed_knots(
        pk.ParameterValues(np.linspace(0, 1, 13)[:-1]), "natural", 3
    )
    input_kv = sc.clamped_knot_vector(seed_domain, 3)
    out = ci.interpolate_points_by_input_knots(pts, t, input_kv, 3, 1.0)
    assert out.curve.kind == "open"
    assert out.result.max_residual < 1e-8 * _scale(pts)
    # updated input contains the original as a sub-multiset
    assert sc.missing_knots(input_kv, out.updated_input).size == 0
    # and equals original merged with the clamped vector
    assert out.updated_input == sc.merge_knot_vectors(input_kv, out.curve.knots)


def test_procedure2_even_degree_shifts_internally():
    pts = ellipse_points(12)
    t = pk.closed_parameters(pts)
    input_kv = sc.clamped_knot_vector([0, 0.5, 1], 4)
    out = ci.interpolate_points_by_input_knots(pts, t, input_kv, 4, 0.5)
    assert out.solve_params.shifted
    assert out.result.condition_ok


def test_procedure2_rejects_shifted_input():
    pts = ellipse_points(10)
    t = pk.shift_parameters(pk.closed_parameters(pts))
    with pytest.raises(ContractError):
        ci.interpolate_points_by_input_knots(
            pts, t, sc.clamped_knot_vector([0, 0.5, 1], 4), 4, 0.5
        )


# --- Procedure 4 ---

def test_procedure4_anchor_fixed_point():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    anchors = pk.parity_form(t, 3)[0]
    out = ci.build_domain_knots_by_input_knots(t, anchors, 3, 1.0)
    np.testing.assert_allclose(out, anchors)


def test_procedure4_per_zero_gives_anchors(rng):
    t = pk.ParameterValues(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.9, 6))]))
    dense = np.concatenate([[0], np.sort(rng.uniform(0.02, 0.98, 14)), [1]])
    out = ci.build_domain_knots_by_input_knots(t, dense, 3, 0.0)
    np.testing.assert_allclose(out, pk.parity_form(t, 3)[0])


def test_procedure4_hand_example():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    out = ci.build_domain_knots_by_input_knots(t, [0, 0.3, 0.55, 0.9, 1.0], 3, 1.0)
    np.testing.assert_allclose(out, [0, 0.3, 0.55, 0.75, 1.0])


def test_procedure4_output_always_satisfies_condition(rng):
    for _ in range(200):
        degree = int(rng.choice([2, 3, 4, 5]))
        n = int(rng.integers(degree + 1, 20))
        gaps = rng.uniform(0.05, 1.0, n + 1)
        t = pk.ParameterValues(np.concatenate([[0], np.cumsum(gaps[:-1]) / gaps.sum()]))
        nhat = int(rng.integers(2, 25))
        interior = np.sort(rng.uniform(0.01, 0.99, nhat))
        if np.any(np.diff(interior) < 1e-8):
            continue
        domain = np.concatenate([[0], interior, [1]])
        per = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        out = ci.build_domain_knots_by_input_knots(t, domain, degree, per)
        parity = pk.shift_parameters(t) if degree % 2 == 0 else t
        assert pk.check_conjecture1(parity, out, degree)


# --- the selection loops, as the oracle of the two selection rules ---

def reference_anchor_vectors(params, degree):
    """Anchors u_i^p and bounds x_i, with x_{i-1} < u_i^p < x_i.

    Odd degree: u_i^p = t_i and x_i = (t_i + t_{i+1})/2 (with t_{n+1} = 1).
    Even degree: u_i^p = d_n/2 + (t_{i-1} + t_i)/2 and x_i = d_n/2 + t_i.
    """
    t = params.values
    if degree % 2 == 1:
        ext = np.concatenate([t, [1.0]])
        anchors = np.concatenate([[0.0], t[1:], [1.0]])
        bounds = (ext[:-1] + ext[1:]) / 2.0
    else:
        dn = 1.0 - t[-1]
        anchors = np.concatenate([[0.0], (t[:-1] + t[1:]) / 2.0 + dn / 2.0, [1.0]])
        bounds = t + dn / 2.0
    return SimpleNamespace(anchors=anchors, bounds=bounds, n=bounds.size - 1)


SELECT_MARGIN = pk.SELECT_MARGIN


def select_domain_knots_loop(params, input_kv, degree, per):
    """select_domain_knots bracket by bracket."""
    if not 0.0 <= per <= 1.0:
        raise InvalidInputError("per must lie in [0, 1]")
    av = reference_anchor_vectors(params, degree)
    candidates = np.asarray(sc.knot_multiplicities(input_kv.knots)[0])
    domain = np.empty(av.n + 2)
    domain[0], domain[-1] = 0.0, 1.0
    prev = 0.0
    for i in range(1, av.n + 1):
        a = (1.0 - per) * av.anchors[i] + per * av.bounds[i - 1]
        b = (1.0 - per) * av.anchors[i] + per * av.bounds[i]
        k = int(np.argmin(np.abs(candidates - av.anchors[i])))  # ties: smaller knot
        c = candidates[k]
        if a + SELECT_MARGIN < c < b - SELECT_MARGIN and c > prev + SELECT_MARGIN:
            domain[i] = c
        else:
            domain[i] = av.anchors[i]
        prev = domain[i]
    return sc.validate_domain_knots(domain)


def build_domain_knots_loop(params, input_domain, degree, per):
    """build_domain_knots_by_input_knots as the span scan over the input knots."""
    if not 0.0 <= per <= 1.0:
        raise InvalidInputError("per must lie in [0, 1]")
    d = sc.validate_domain_knots(input_domain)
    av = reference_anchor_vectors(params, degree)
    n = av.n
    nhat1 = d.size - 1
    out = np.empty(n + 2)
    out[0], out[n + 1] = 0.0, 1.0
    span = 0
    i = 1
    while i <= n:
        a = (1.0 - per) * av.anchors[i] + per * av.bounds[i - 1]
        b = (1.0 - per) * av.anchors[i] + per * av.bounds[i]
        exhausted = False
        while d[i + span] < a + SELECT_MARGIN:
            span += 1
            if i + span > nhat1:
                exhausted = True
                break
        if exhausted:
            break
        if d[i + span] < b - SELECT_MARGIN and d[i + span] > out[i - 1] + SELECT_MARGIN:
            out[i] = d[i + span]
        else:
            out[i] = av.anchors[i]
            span -= 1
        i += 1
    for k in range(i, n + 1):
        out[k] = av.anchors[k]
    return sc.validate_domain_knots(out)


def _outcome(select, *args):
    try:
        return select(*args).tobytes()
    except ClosedLoftError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=400)
@given(
    degree=st.integers(1, 6),
    n_extra=st.integers(0, 40),
    sigma=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
    floor=st.sampled_from([1e-4, 1e-8, 1e-12]),
    per=st.sampled_from([0.0, 1e-9, 1e-6, None, 0.999999, 1.0]),
    family=st.sampled_from(["uniform", "anchors", "lo", "pairs"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_selection_rules_equal_the_loops(degree, n_extra, sigma, floor, per, family, seed):
    # chord gaps log-normal, floored; input knots drawn uniformly, put on
    # the anchors, put within two margins of the condition brackets' lower
    # ends (where the strict tests decide), or put in pairs equally far
    # either side of the anchors (where the tie rule decides)
    rng = np.random.default_rng(seed)
    n = degree + 1 + n_extra
    gaps = rng.lognormal(0.0, sigma, n + 1)
    gaps = np.maximum(gaps / gaps.sum(), floor)
    t = pk.ParameterValues(np.concatenate([[0.0], np.cumsum(gaps[:-1])]) / gaps.sum())
    per = rng.uniform() if per is None else per
    anchors, parity, lo, hi = pk.parity_form(t, degree)
    av = reference_anchor_vectors(t, degree)
    assert (anchors.tobytes(), np.append(lo, hi[-1]).tobytes()) == (av.anchors.tobytes(), av.bounds.tobytes())
    assert parity.values.tobytes() == (t if degree % 2 else pk.shift_parameters(t)).values.tobytes()
    u = anchors[1:-1]
    if family == "uniform":
        interior = rng.uniform(0.0, 1.0, int(rng.integers(1, 2 * n + 2)))
    elif family == "anchors":
        interior = u
    elif family == "lo":
        interior = lo + rng.integers(-2, 3, lo.size) * 1e-9
    else:
        offset = 2.0 ** -rng.integers(16, 31, u.size)
        interior = np.concatenate([u - offset, u + offset])
    interior = np.unique(interior[(interior > 0.0) & (interior < 1.0)])
    domain = np.concatenate([[0.0], interior, [1.0]])
    input_kv = sc.clamped_knot_vector(domain, degree)
    assert _outcome(ci.select_domain_knots, t, input_kv, degree, per) == _outcome(
        select_domain_knots_loop, t, input_kv, degree, per
    )
    assert _outcome(ci.build_domain_knots_by_input_knots, t, domain, degree, per) == _outcome(
        build_domain_knots_loop, t, domain, degree, per
    )


def test_selection_guided_square_solves_never_singular(rng):
    # full pipeline (select -> solve -> clamp -> merge) on a random slice
    for _ in range(150):
        degree = int(rng.choice([2, 3, 4, 5]))
        n1 = int(rng.integers(degree + 2, 24))
        pts = rng.normal(size=(n1, 3)) + 5 * circle_points(n1)
        t = pk.closed_parameters(pts)
        interior = np.sort(rng.uniform(0.02, 0.98, int(rng.integers(3, 18))))
        if np.any(np.diff(interior) < 1e-8):
            continue
        input_kv = sc.clamped_knot_vector(np.concatenate([[0], interior, [1]]), degree)
        per = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        out = ci.interpolate_points_by_input_knots(pts, t, input_kv, degree, per)
        assert out.result.condition_ok
        assert out.result.max_residual <= 1e-8 * _scale(pts)


def test_selection_safety_ten_thousand_trials():
    # every knot set either selection procedure produces satisfies the
    # condition, and the square solve never comes back singular
    rng = np.random.default_rng(1234)
    solved = 0
    for k in range(10_000):
        degree = int(rng.choice([2, 3, 4, 5]))
        n1 = int(rng.integers(degree + 2, 16))
        pts = circle_points(n1, radius=rng.uniform(0.5, 2.0))
        pts += rng.normal(scale=0.1, size=pts.shape)
        t = pk.closed_parameters(pts)
        interior = np.sort(rng.uniform(0.02, 0.98, int(rng.integers(2, 14))))
        if np.any(np.diff(interior) < 1e-8):
            continue
        per = float(rng.uniform(0.0, 1.0))
        parity = pk.shift_parameters(t) if degree % 2 == 0 else t
        if k % 2 == 0:
            input_kv = sc.clamped_knot_vector(np.concatenate([[0], interior, [1]]), degree)
            domain = ci.select_domain_knots(t, input_kv, degree, per)
        else:
            domain = ci.build_domain_knots_by_input_knots(
                t, np.concatenate([[0], interior, [1]]), degree, per
            )
        assert pk.check_conjecture1(parity, domain, degree)
        res = ci.interpolate_closed_square(
            ci.ClosedInterpolationProblem(pts, parity, domain, degree)
        )
        assert res.max_residual <= 1e-8 * _scale(pts)
        solved += 1
    assert solved > 9_900
