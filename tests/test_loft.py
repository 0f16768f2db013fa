import hashlib
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import curve_interp as ci
from closedloft import linalg_solve as la
from closedloft import loft as lf
from closedloft import param_knots as pk
from closedloft import spline_core as sc
from closedloft.cli_io import SurfaceFile, serialize_surface
from closedloft.errors import InvalidInputError

from conftest import circle_points, energy_stiffness, expanded, tube_rows


def _seam_error(surface, max_order):
    us = np.linspace(0.02, 0.98, 20)
    worst = 0.0
    for order in range(max_order + 1):
        d0 = sc.surface_partial(surface, us, np.zeros_like(us), 0, order)
        d1 = sc.surface_partial(surface, us, np.ones_like(us), 0, order)
        worst = max(worst, np.abs(d0 - d1).max() / max(np.abs(d0).max(), 1.0))
    return worst


def _surface_residual(result, rows):
    worst = 0.0
    for i, (row, t) in enumerate(zip(rows, result.row_params)):
        pts = sc.eval_surface(
            result.surface, np.full(t.size, result.longitudinal_params[i]), t
        )
        worst = max(worst, np.linalg.norm(pts - row, axis=1).max())
    return worst


# --- alignment ---

def test_align_identical_circles_with_rotated_starts():
    rows = [
        np.roll(circle_points(12, z=i), shift, axis=0)
        for i, shift in enumerate([0, 3, 7, 9])
    ]
    aligned = lf.align_contours(lf.ContourRows(rows))
    starts = np.stack([r[0] for r in aligned.rows])
    assert np.abs(starts[:, :2] - starts[0, :2]).max() < 1e-12
    assert aligned.baseline == [0, 3, 7, 9]


def test_align_already_aligned_is_identity():
    rows = [circle_points(10, z=float(i)) for i in range(3)]
    aligned = lf.align_contours(lf.ContourRows(rows))
    for a, b in zip(aligned.rows, rows):
        np.testing.assert_array_equal(a, b)
    assert aligned.baseline == [0, 0, 0]


def test_align_idempotent(rng):
    rows = [
        np.roll(circle_points(14, z=i, phase=rng.uniform(0, 0.3)), int(rng.integers(0, 14)), axis=0)
        for i in range(4)
    ]
    once = lf.align_contours(lf.ContourRows(rows))
    twice = lf.align_contours(lf.ContourRows([r.copy() for r in once.rows]))
    for a, b in zip(once.rows, twice.rows):
        np.testing.assert_array_equal(a, b)


def test_align_fixes_reversed_orientation():
    row0 = circle_points(12, z=0.0)
    row1 = circle_points(12, z=1.0)[::-1]  # opposite winding
    aligned = lf.align_contours(lf.ContourRows([row0, row1]))
    assert aligned.reversed_flags == [False, True]
    n0 = np.cross(aligned.rows[1][0], aligned.rows[1][1])[2]
    assert n0 > 0  # counter-clockwise again


def test_align_rejects_degenerate_row():
    rows = [circle_points(8), np.zeros((5, 3))]
    with pytest.raises(InvalidInputError):
        lf.align_contours(lf.ContourRows(rows))


# --- row interpolation against the threaded knot vector ---

def _merged(curves):
    return reduce(sc.merge_knot_vectors, (c.knots for c in curves))


def test_single_row_common_vector_is_its_own():
    rows = lf.ContourRows([circle_points(12)], aligned=True)
    curves, _ = lf.interpolate_all_row_points(rows, 3, 1.0)
    assert len(curves) == 1
    assert curves[0].knots == _merged(curves)


def test_identical_rows_do_not_grow_common_vector():
    rows = lf.ContourRows([circle_points(16, z=float(i)) for i in range(4)], aligned=True)
    curves, _ = lf.interpolate_all_row_points(rows, 3, 1.0)
    single, _ = lf.interpolate_all_row_points(
        lf.ContourRows([circle_points(16)], aligned=True), 3, 1.0
    )
    common = lf.loft_closed_piegl(rows, 3, 3, 1.0).common_knots
    assert common.interior_count() == _merged(single).interior_count()
    for c in curves:
        assert c.knots == common


def test_per_one_beats_traditional_on_mixed_rows():
    rows = [circle_points(n, z=0.1 * i) for i, n in enumerate([16, 20, 24])]
    crows = lf.ContourRows(rows, aligned=True)
    flexible, _ = lf.interpolate_all_row_points(crows, 3, 1.0)
    traditional, _ = lf.interpolate_all_row_points(crows, 3, 0.0)
    assert _merged(flexible).interior_count() < _merged(traditional).interior_count()


def test_park_lofts_without_merge_or_refinement(monkeypatch):
    def refuse(*args):
        raise AssertionError("park rows share one knot vector")

    for name in ("merge_knot_vectors", "missing_knots", "refine_knots"):
        monkeypatch.setattr(lf, name, refuse)
    result = lf.loft_closed_park(tube_rows(6, seed=12), 3, 3, 0.5)
    assert result.surface.knots_v is result.common_knots


@pytest.mark.parametrize("loft", [
    lambda rows: lf.loft_closed_piegl(rows, 3, 3, 0.5),
    lambda rows: lf.loft_open(rows, 3, 3),
])
def test_refined_lofts_give_every_row_over_the_common_vector(loft, monkeypatch):
    refined = []
    refine = lf.refine_knots

    def recording(curve, knots):
        refined.append(refine(curve, knots))
        return refined[-1]

    monkeypatch.setattr(lf, "refine_knots", recording)
    rows = tube_rows(6, seed=12)
    result = loft(rows)
    assert result.surface.knots_v is result.common_knots
    assert len(refined) == len(rows)
    for c in refined:  # refinement may move a knot by rounding
        assert c.knots.knots.shape == result.common_knots.knots.shape
        np.testing.assert_allclose(c.knots.knots, result.common_knots.knots, rtol=0, atol=1e-9)


# --- Procedure 5 ---

def _chord_params(rows):
    return [pk.closed_parameters(r) for r in rows]


def test_common_domain_single_row_per_zero_is_anchors():
    t = pk.closed_parameters(circle_points(12))
    domain = lf.build_common_domain_knots([t], 3, 0.0)
    np.testing.assert_allclose(domain, pk.parity_form(t, 3)[0])


def test_common_domain_duplicate_row_unchanged():
    base = _chord_params([circle_points(14, z=0.0), circle_points(18, z=1.0)])
    d1 = lf.build_common_domain_knots(base, 3, 1.0)
    d2 = lf.build_common_domain_knots(base + [base[-1]], 3, 1.0)
    np.testing.assert_allclose(d1, d2)


def test_common_domain_per_monotone_counts():
    params = _chord_params([circle_points(n, z=0.2 * i) for i, n in enumerate([16, 20, 24])])
    counts = [lf.build_common_domain_knots(params, 3, per).size for per in (1.0, 0.5, 0.25)]
    assert counts[0] <= counts[1] <= counts[2]


def test_common_domain_feasible_for_every_row(rng):
    params = _chord_params(tube_rows(6, seed=5))
    for per in (0.0, 0.5, 1.0):
        domain = lf.build_common_domain_knots(params, 4, per)
        for t in params:
            ok, _ = pk.check_conjecture2(pk.shift_parameters(t), domain, 4)
            assert ok


# --- full lofts ---

def test_piegl_loft_tube_residual_and_dims():
    rows = tube_rows(10, seed=1)
    result = lf.loft_closed_piegl(rows, 3, 3, 1.0)
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert result.max_surface_residual <= 1e-6 * scale
    assert _surface_residual(result, result.rows.rows) <= 1e-6 * scale
    rows_n, cols_n = result.control_dims
    assert rows_n == 10
    assert cols_n == result.common_knots.n_basis
    assert _seam_error(result.surface, 2) < 1e-6


def test_park_loft_tube_residual():
    rows = tube_rows(10, seed=2)
    result = lf.loft_closed_park(rows, 3, 3, 1.0)
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert result.max_surface_residual <= 1e-6 * scale
    assert _seam_error(result.surface, 2) < 1e-6


def test_park_degree_v1_ignores_bend_weight():
    rows = tube_rows(6, seed=3)
    assert lf.park_bend_weight(1, 0.2) == 0.0
    assert lf.park_bend_weight(2, 0.2) == 0.2
    result = lf.loft_closed_park(rows, 3, 1, 1.0, alpha=1.0, beta=0.2)
    plain = lf.loft_closed_park(rows, 3, 1, 1.0, alpha=1.0, beta=0.0)
    assert result.surface.degree_v == 1
    assert result.max_surface_residual <= 1e-6 * sc.bbox_diagonal(np.vstack(rows))
    np.testing.assert_array_equal(result.surface.control_net, plain.surface.control_net)


def test_stacked_circles_surface_of_revolution():
    rows = [circle_points(16, z=0.25 * i) for i in range(8)]
    result = lf.loft_closed_piegl(rows, 3, 3, 1.0)
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert result.max_surface_residual <= 1e-8 * scale


def test_per_zero_matches_traditional_merge_exactly():
    rows = tube_rows(8, seed=3)
    result = lf.loft_closed_piegl(rows, 3, 3, 0.0)
    aligned = lf.align_contours(lf.as_contour_rows(rows))
    kvs = []
    for r in aligned.rows:
        t = pk.closed_parameters(r)
        domain, _ = pk.closed_knots(t, "natural", 3)
        kvs.append(sc.clamped_knot_vector(domain, 3))
    traditional = reduce(sc.merge_knot_vectors, kvs)
    assert result.interior_knot_count == traditional.interior_count()


# SHA-256 of each surface document with an empty provenance block, for
# tube_rows(6, (10, 17), seed=11, noisy_radius=True) at degree 3 x 3
_SURFACE_DIGESTS = {
    ("piegl", 0.0): "dab8f89b6c1b07ef3c43fd97ff52aa5851540e6975904992735430298fcc64de",
    ("piegl", 0.5): "bd56dbfc002d8200616313f3c89cd7aa2e020b960c1291f068b34bef9d99f1e3",
    ("piegl", 1.0): "92ffef0352513945803418fe1f455e3a0d13e5cd674893fc18fe3fb181d91b4f",
    ("park", 0.0): "b92243c76e8a330fbd178d2bf97741bee799c14974a07bfd24c28375d797360f",
    ("park", 0.5): "b80f27b1cb101a4dea9bf1091ce5da57c90829fa19fda7c3f0f50498c851ada0",
    ("park", 1.0): "e2c7b8aceab3dc977973d4571dde51ded221615a25ec48c2321d0cea4bce2f18",
    ("open", None): "3f2c06a1bb0b59412bf262321fc8c4489d6f043b96a49d9463f4ad8681ca99b7",
}


@pytest.mark.parametrize("method, per", list(_SURFACE_DIGESTS))
def test_loft_surfaces_are_pinned(method, per):
    rows = tube_rows(6, (10, 17), seed=11, noisy_radius=True)
    if method == "piegl":
        result = lf.loft_closed_piegl(rows, 3, 3, per)
    elif method == "park":
        result = lf.loft_closed_park(rows, 3, 3, per)
    else:
        result = lf.loft_open(rows, 3, 3)
    text = serialize_surface(SurfaceFile(result.surface, {}))
    assert hashlib.sha256(text.encode()).hexdigest() == _SURFACE_DIGESTS[method, per]


def test_methods_agree_on_equal_rows():
    rows = tube_rows(8, seed=4, equal_counts=20)
    r_piegl = lf.loft_closed_piegl(rows, 3, 3, 1.0)
    r_park = lf.loft_closed_park(rows, 3, 3, 1.0)
    assert r_piegl.control_dims == r_park.control_dims
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert np.abs(
        r_piegl.surface.control_net - r_park.surface.control_net
    ).max() <= 1e-8 * scale


def test_method_column_counts_close_on_mixed_rows():
    rows = tube_rows(10, seed=6)
    c_piegl = lf.loft_closed_piegl(rows, 3, 3, 1.0).control_dims[1]
    c_park = lf.loft_closed_park(rows, 3, 3, 1.0).control_dims[1]
    assert abs(c_piegl - c_park) <= 3


def test_park_row_energy_not_above_witness_square(rng):
    rows = tube_rows(6, seed=7)
    aligned = lf.align_contours(lf.as_contour_rows(rows))
    domain = lf.build_common_domain_knots(_chord_params(aligned.rows), 3, 1.0)
    kv = sc.cyclic_knot_vector(domain, 3)
    stiff = la.stiffness_matrix(kv, 1.0, 0.2)
    from closedloft.curve_interp import ClosedInterpolationProblem, interpolate_closed_energy, interpolate_closed_square

    for r in aligned.rows:
        t = pk.closed_parameters(r)
        problem = ClosedInterpolationProblem(r, t, domain, 3)
        res = interpolate_closed_energy(problem, stiff)
        e_energy = la.curve_energy(stiff, expanded(res.curve))
        ok, witness = pk.check_conjecture2(t, domain, 3)
        assert ok
        sq = interpolate_closed_square(ClosedInterpolationProblem(r, t, witness, 3))
        e_square = la.curve_energy(
            la.stiffness_matrix(sq.curve.knots, 1.0, 0.2), expanded(sq.curve)
        )
        assert e_energy <= e_square + 1e-9


def test_loft_even_contour_degree():
    rows = tube_rows(8, seed=8)
    for method in (lf.loft_closed_piegl, lf.loft_closed_park):
        result = method(rows, 3, 4, 1.0)
        scale = sc.bbox_diagonal(np.vstack(rows))
        assert result.max_surface_residual <= 1e-6 * scale
        assert _seam_error(result.surface, 3) < 1e-6


def test_park_per0_lofts_a_60_row_tube():
    # rows of 24-48 points on one set of 700-odd domain knots: each row's
    # saddle system is numerically singular unless it is equilibrated
    rows = tube_rows(60, (24, 49), seed=0, noisy_radius=True)
    result = lf.loft_closed_park(rows, 3, 3, 0.0)
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert result.max_surface_residual <= lf.SURFACE_RESIDUAL_TOL * scale
    assert _surface_residual(result, result.rows.rows) <= lf.SURFACE_RESIDUAL_TOL * scale
    assert result.control_dims[1] > 600


def test_park_builds_stiffness_once_per_loft(monkeypatch):
    calls = []
    build = lf.stiffness_matrix
    monkeypatch.setattr(lf, "stiffness_matrix", lambda *args: calls.append(args) or build(*args))
    result = lf.loft_closed_park(tube_rows(8, seed=3), 3, 3, 0.0, alpha=1.5, beta=0.3)
    assert result.control_dims[0] == 8
    assert len(calls) == 1 and calls[0][1:] == (1.5, 0.3)


def _energy_problems(count):
    rows = lf.align_contours(lf.as_contour_rows(tube_rows(count, seed=4)))
    params = _chord_params(rows.rows)
    domain = lf.build_common_domain_knots(params, 3, 0.0)
    problems = [ci.ClosedInterpolationProblem(r, t, domain, 3) for r, t in zip(rows.rows, params)]
    return problems, sc.cyclic_knot_vector(domain, 3)


def test_energy_solve_with_shared_stiffness_is_unchanged():
    problems, kv = _energy_problems(5)
    stiff = la.stiffness_matrix(kv, 1.5, 0.3)
    for problem in problems:
        alone = ci.interpolate_closed_energy(problem, energy_stiffness(problem, 1.5, 0.3))
        shared = ci.interpolate_closed_energy(problem, stiff)
        np.testing.assert_array_equal(shared.curve.control_points, alone.curve.control_points)


def test_energy_solve_rejects_a_mismatched_stiffness():
    problems, _ = _energy_problems(4)
    with pytest.raises(InvalidInputError, match="does not match the knot vector"):
        ci.interpolate_closed_energy(problems[0], np.eye(3))


def test_lofts_validate_rows_once(monkeypatch):
    seen = []
    check = lf._validate_closed_rows
    monkeypatch.setattr(lf, "_validate_closed_rows", lambda rows, degree: seen.append(degree) or check(rows, degree))
    rows = tube_rows(5, seed=2)
    lf.loft_closed_piegl(rows, 3, 3, 1.0)
    assert seen == [3]
    lf.loft_closed_park(rows, 3, 3, 1.0)
    assert seen == [3, 3]


@pytest.mark.parametrize("stage", [lf.interpolate_all_row_points])
def test_row_stages_called_directly_still_validate(stage):
    rows = [circle_points(16), circle_points(4), circle_points(16, z=1.0)]
    with pytest.raises(InvalidInputError, match="row 1: closed degree-3 interpolation needs at least 5"):
        stage(rows, 3, 1.0)
    prepared = lf._prepare([circle_points(6, z=float(z)) for z in range(3)], 3, "auto")
    with pytest.raises(InvalidInputError, match="row 0: closed degree-5 interpolation needs at least 7"):
        stage(prepared, 5, 1.0)  # checked for degree 3 only


def _rows_failing_at_row_2(failure):
    """Five stacked 16-point circles, row 2 at z = 0, broken by ``failure``."""
    rows = [circle_points(16, z=0.5 * (i - 2)) for i in range(5)]
    if failure == "too few points":
        rows[2] = rows[2][:3]
    elif failure == "collapsed chord":
        rows[2][5] = rows[2][4] + [0.0, 0.0, 1e-20]
    else:  # the last point repeats the first
        rows[2][15] = rows[2][0]
    return rows


_PIPELINES = {
    "piegl": lambda rows: lf.loft_closed_piegl(rows, 3, 3, 1.0),
    "park": lambda rows: lf.loft_closed_park(rows, 3, 3, 1.0),
    "open": lambda rows: lf.loft_open(rows, 3, 3),
}


# the start of each failure's message; an open row may end where it starts,
# so a coincident wrap point fails the closed pipelines only
_ROW_2_FAILURES = {
    "too few points": "^row 2: ",
    "collapsed chord": "^row 2: parameters coincide at index 4",
    "coincident wrap point": "^row 2: coincident consecutive points at index 15",
}


@pytest.mark.parametrize("method, failure", [
    (method, failure)
    for method in _PIPELINES
    for failure in _ROW_2_FAILURES
    if (method, failure) != ("open", "coincident wrap point")
])
def test_per_row_failure_names_the_row(method, failure):
    with pytest.raises(InvalidInputError, match=_ROW_2_FAILURES[failure]):
        _PIPELINES[method](_rows_failing_at_row_2(failure))


@pytest.mark.parametrize("loft", [lf.loft_closed_piegl, lf.loft_closed_park])
@pytest.mark.parametrize("offset", [1e-20, 3e-16])
def test_collapsed_wrap_chord_names_the_row_and_point(loft, offset):
    # the wrap chord's share of the total does not raise t_n, so t_n would
    # sit 1 ulp below 1 by the rounding of the sums alone
    rows = [circle_points(16, z=float(i)) for i in range(5)]
    rows[2][15] = rows[2][0] + [0.0, offset, 0.0]
    with pytest.raises(InvalidInputError, match=r"^row 2: parameters coincide at index 15 \(wrap included\)"):
        loft(rows, 3, 3, 1.0, align="none")


def test_short_wrap_chord_that_raises_t_n_still_lofts():
    rows = [circle_points(16, z=float(i)) for i in range(5)]
    rows[2][15] = rows[2][0] + [0.0, 1e-14, 0.0]
    lf.loft_closed_park(rows, 3, 3, 1.0, align="none")  # checks its own residuals


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("per", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("offset", [1e-15, 1e-14])
def test_short_wrap_chord_that_overfills_the_end_knot_names_the_row(offset, per):
    # t_n rises, but the row's own clamped knots end in a group of p + 2,
    # which every refinement to the common vector would keep
    rows = [circle_points(16, z=float(i)) for i in range(5)]
    rows[2][15] = rows[2][0] + [0.0, offset, 0.0]
    with pytest.raises(InvalidInputError, match=r"^row 2: refinement would give knot 0\.99999999999999\d* multiplicity 5"):
        lf.loft_closed_piegl(rows, 3, 3, per, align="none")


def test_loft_rejects_undersized_rows():
    rows = [circle_points(16), circle_points(4), circle_points(16)]
    with pytest.raises(InvalidInputError, match="row 1"):
        lf.loft_closed_piegl(rows, 1, 5, 1.0)


def test_loft_rejects_too_few_rows():
    rows = tube_rows(3, seed=9)
    with pytest.raises(InvalidInputError):
        lf.loft_closed_piegl(rows, 3, 3, 1.0)  # m=2 < p=3


# --- open lofting ---

def test_loft_open_plane_linear_precision():
    xs = np.linspace(0, 1, 7)
    rows = [np.stack([xs, np.full_like(xs, y), 0.5 * xs + y], axis=1) for y in np.linspace(0, 1, 5)]
    result = lf.loft_open(rows, 2, 2)
    us, vs = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9), indexing="ij")
    pts = sc.eval_surface(result.surface, us.ravel(), vs.ravel())
    # z = x/2 + y on the whole patch
    assert np.abs(pts[:, 2] - (0.5 * pts[:, 0] + pts[:, 1])).max() < 1e-10


def test_loft_open_sine_rows():
    xs = np.linspace(0, np.pi, 11)
    rows = [
        np.stack([xs, np.sin(xs) + 0.3 * i, np.full_like(xs, 0.4 * i)], axis=1)
        for i in range(4)
    ]
    result = lf.loft_open(rows, 3, 3)
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert result.max_surface_residual < 1e-8 * scale


def test_loft_open_requires_enough_rows():
    xs = np.linspace(0, 1, 6)
    rows = [np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)]
    with pytest.raises(InvalidInputError):
        lf.loft_open(rows, 3, 3)


def _open_rows(count=4, points=8):
    xs = np.linspace(0, 1, points)
    return [np.stack([xs, np.full_like(xs, y), xs * y], axis=1) for y in np.linspace(0, 1, count)]


def test_loft_open_names_the_row_and_point_of_a_repeat():
    rows = _open_rows()
    rows[2][4] = rows[2][3]
    with pytest.raises(InvalidInputError, match="^row 2: coincident consecutive points at index 3$"):
        lf.loft_open(rows, 3, 3)


def test_loft_open_names_a_row_too_short_for_the_degree():
    rows = _open_rows()
    rows[2] = rows[2][:3]
    with pytest.raises(InvalidInputError, match="^row 2: need at least p\\+1 = 4 parameters, got 3$"):
        lf.loft_open(rows, 3, 3)


# --- longitudinal parameters ---

def column_parameters_loop(net):
    """The averaged column chord parameters, one column at a time."""
    m1, cols, _ = net.shape
    acc = np.zeros(m1)
    valid = 0
    for j in range(cols):
        chords = np.linalg.norm(np.diff(net[:, j], axis=0), axis=1)
        total = chords.sum()
        if total <= 0.0:
            continue
        acc += np.concatenate([[0.0], np.cumsum(chords)]) / total
        valid += 1
    if valid == 0:
        return np.linspace(0.0, 1.0, m1)
    s = acc / valid
    s[0], s[-1] = 0.0, 1.0
    if np.any(np.diff(s) <= 0.0):
        return np.linspace(0.0, 1.0, m1)
    return s


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 70), st.integers(1, 90), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_column_parameters_equal_the_per_column_loop(m1, cols, flat, seed):
    # rows of a random net; up to three columns flattened to one point, so
    # they are skipped, and a net whose columns are all flat
    rng = np.random.default_rng(seed)
    net = np.cumsum(rng.normal(size=(m1, cols, 3)) * np.exp(rng.normal(0.0, 2.0, (m1, 1, 1))), axis=0)
    net[:, rng.integers(0, cols, flat)] = net[:1, rng.integers(0, cols, flat)]
    for case in (net, np.broadcast_to(net[:1], net.shape)):
        assert lf._column_parameters(case).values.tobytes() == column_parameters_loop(case).tobytes()


@pytest.mark.parametrize("method", ["piegl", "park", "open"])
def test_repeated_row_lofts_at_uniform_longitudinal_parameters(method):
    # rows 1 and 2 coincide: every column has a zero chord between them, so
    # the averaged parameters do not increase and the rule gives uniform ones
    rows = [circle_points(16, z=z) for z in (0.0, 1.0, 1.0, 2.0)]
    loft = {
        "piegl": lambda: lf.loft_closed_piegl(rows, 3, 3, 1.0),
        "park": lambda: lf.loft_closed_park(rows, 3, 3, 1.0),
        "open": lambda: lf.loft_open(rows, 3, 3),
    }[method]
    result = loft()
    assert result.longitudinal_params.tolist() == np.linspace(0.0, 1.0, 4).tolist()
    assert result.max_surface_residual < 1e-15
    assert _surface_residual(result, rows) < 1e-15
