"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The trial-harness criteria (1 and 2) are the long poles;
both finish well inside their runtime targets on a laptop.
"""

import contextlib
import io
import json
import time

import numpy as np
import scipy.linalg

from closedloft import cli_io
from closedloft import conjecture_lab as lab
from closedloft import curve_interp as ci
from closedloft import linalg_solve as la
from closedloft import loft as lf
from closedloft import param_knots as pk
from closedloft import spline_core as sc

from conftest import circle_points, ellipse_points, energy_stiffness, expanded, square_points, star_points, tube_rows
from test_linalg_solve import _oracle_stiffness


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_conjecture1_trials():
    t0 = time.time()
    cfg = lab.TrialConfig(
        conjecture=1, degrees=(2, 3, 4, 5), n_range=(6, 40), trials=10_000,
        seed=20240811, rank_tol=1e-12,
    )
    report = lab.run_conjecture1_trials(cfg)
    elapsed = time.time() - t0
    bad = report.counterexamples
    all_inside = all(r.condition for r in report.records)
    all_invertible = all(r.full_rank for r in report.records)
    _report(
        1,
        len(bad) == 0 and all_inside and all_invertible and len(report.records) == 40_000,
        f"{len(report.records)} trials, {len(bad)} counterexamples, "
        f"min sigma-ratio {report.min_sigma_ratio():.3e}, {elapsed:.1f}s "
        f"(target < 120s: {'yes' if elapsed < 120 else 'NO'})",
    )
    assert elapsed < 120


def test_criterion_2_conjecture2_trials():
    t0 = time.time()
    cfg = lab.TrialConfig(
        conjecture=2, degrees=(2, 3, 4, 5), n_range=(6, 40), nhat_extra=(1, 10),
        trials=1_250, seed=20240812, rank_tol=1e-12,
    )
    report = lab.run_conjecture2_trials(cfg)
    elapsed = time.time() - t0
    bad = report.counterexamples
    checked = report.greedy_checked()
    agree = all(r.greedy_agrees for r in checked)
    _report(
        2,
        len(report.records) == 5_000 and len(bad) == 0 and agree and len(checked) > 0,
        f"5000 trials, {len(bad)} counterexamples, greedy==exhaustive on "
        f"{len(checked)} small-n trials, {elapsed:.1f}s "
        f"(target < 180s: {'yes' if elapsed < 180 else 'NO'})",
    )
    assert elapsed < 180


def test_criterion_3_closed_curve_fixtures():
    fixtures = [
        ("circle-16/p3-natural", circle_points(16), 3, "natural"),
        ("ellipse-12/p4-shifting", ellipse_points(12), 4, "shifting"),
        ("square-4/p1", square_points(), 1, "natural"),
        ("star-20/p5", star_points(20), 5, "natural"),
    ]
    details = []
    ok = True
    for name, pts, degree, method in fixtures:
        t = pk.closed_parameters(pts)
        domain, solve_params = pk.closed_knots(t, method, degree)
        res = ci.interpolate_closed_square(
            ci.ClosedInterpolationProblem(pts, solve_params, domain, degree)
        )
        scale = sc.bbox_diagonal(pts)
        closure = np.linalg.norm(
            sc.eval_curve(res.curve, 0.0) - sc.eval_curve(res.curve, 1.0)
        )
        seam = 0.0
        for order in range(degree):
            d0 = sc.curve_derivatives(res.curve, 0.0, order)[order]
            d1 = sc.curve_derivatives(res.curve, 1.0, order)[order]
            seam = max(seam, np.abs(d0 - d1).max() / max(np.abs(d0).max(), 1.0))
        good = (
            res.max_residual <= 1e-8 * scale
            and seam <= 1e-8
            and closure <= 1e-12 * scale
        )
        ok = ok and good
        details.append(f"{name}: resid {res.max_residual:.1e}, seam {seam:.1e}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_clamping_invariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(100):
        degree = int(rng.integers(2, 6))
        nhat = int(rng.integers(degree + 2, degree + 12))
        gaps = rng.uniform(0.1, 1.0, nhat + 1)
        domain = np.concatenate([[0.0], np.cumsum(gaps)[:-1] / gaps.sum(), [1.0]])
        kv = sc.cyclic_knot_vector(domain, degree)
        ctrl = rng.normal(scale=3.0, size=(kv.n_basis - degree, 3))
        curve = sc.BSplineCurve(kv, ctrl)
        clamped = sc.clamp_closed_curve(curve)
        us = rng.uniform(0.0, 1.0, 200)
        dev = np.linalg.norm(
            sc.eval_curve(curve, us) - sc.eval_curve(clamped, us), axis=1
        ).max()
        worst = max(worst, dev / max(sc.bbox_diagonal(curve.control_points), 1e-30))
    _report(4, worst <= 1e-12, f"100 curves p in 2..5, worst relative deviation {worst:.2e}")


def _loft_seam_error(result, max_order):
    us = np.linspace(0.02, 0.98, 20)
    worst = 0.0
    for order in range(max_order + 1):
        d0 = sc.surface_partial(result.surface, us, np.zeros_like(us), 0, order)
        d1 = sc.surface_partial(result.surface, us, np.ones_like(us), 0, order)
        worst = max(worst, np.abs(d0 - d1).max() / max(np.abs(d0).max(), 1.0))
    return worst


def test_criterion_5_lofting_exactness():
    rows = tube_rows(10, count_range=(16, 33), seed=21)
    scale = sc.bbox_diagonal(np.vstack(rows))
    details = []
    ok = True
    for q in (2, 3, 4, 5):
        for name, fn in (
            ("piegl", lambda: lf.loft_closed_piegl(rows, 3, q, 1.0)),
            ("park", lambda: lf.loft_closed_park(rows, 3, q, 1.0)),
        ):
            result = fn()
            seam = _loft_seam_error(result, q - 1)
            good = result.max_surface_residual <= 1e-6 * scale and seam <= 1e-6
            ok = ok and good
            details.append(f"q={q} {name}: resid {result.max_surface_residual:.1e} seam {seam:.1e}")
    _report(5, ok, "; ".join(details[:4]) + " ...")


def _traditional_interior(rows, q):
    from functools import reduce

    aligned = lf.align_contours(lf.as_contour_rows(rows))
    method = "natural" if q % 2 == 1 else "shifting"
    kvs = []
    for r in aligned.rows:
        t = pk.closed_parameters(r)
        domain, _ = pk.closed_knots(t, method, q)
        kvs.append(sc.clamped_knot_vector(domain, q))
    return reduce(sc.merge_knot_vectors, kvs).interior_count()


def test_criterion_6_per_monotonicity():
    fixtures = [
        ("tube-10", tube_rows(10, count_range=(16, 33), seed=21)),
        ("noisy-tube-40", tube_rows(40, seed=12, noisy_radius=True)),
    ]
    pers = (0.0, 0.25, 0.5, 0.75, 1.0)
    ok = True
    details = []
    for name, rows in fixtures:
        trad = _traditional_interior(rows, 3)
        for method, fn in (("piegl", lf.loft_closed_piegl), ("park", lf.loft_closed_park)):
            counts = [fn(rows, 3, 3, per).interior_knot_count for per in pers]
            monotone = all(a >= b for a, b in zip(counts, counts[1:]))
            exact_traditional = counts[0] == trad
            ok = ok and monotone and exact_traditional
            details.append(f"{name}/{method}: {counts} (traditional {trad})")
    _report(6, ok, "; ".join(details))


def test_criterion_7_method_near_parity():
    rows = tube_rows(10, count_range=(16, 33), seed=21)
    cols_piegl = lf.loft_closed_piegl(rows, 3, 3, 1.0).control_dims[1]
    cols_park = lf.loft_closed_park(rows, 3, 3, 1.0).control_dims[1]
    close = abs(cols_piegl - cols_park) <= 0.05 * max(cols_piegl, cols_park)

    rows_eq = tube_rows(8, seed=4, equal_counts=20)
    r1 = lf.loft_closed_piegl(rows_eq, 3, 3, 1.0)
    r2 = lf.loft_closed_park(rows_eq, 3, 3, 1.0)
    scale = sc.bbox_diagonal(np.vstack(rows_eq))
    same_dims = r1.control_dims == r2.control_dims
    net_dev = np.abs(r1.surface.control_net - r2.surface.control_net).max()
    agree = same_dims and net_dev <= 1e-8 * scale
    _report(
        7,
        close and agree,
        f"columns piegl {cols_piegl} vs park {cols_park}; equal-size net deviation "
        f"{net_dev:.2e} (scale {scale:.1f})",
    )


def test_criterion_8_energy_optimality():
    rng = np.random.default_rng(4242)
    worst_slack = -np.inf
    worst_resid = 0.0
    for k in range(50):
        degree = int(rng.integers(2, 6))
        n1 = int(rng.integers(degree + 2, 15))
        pts = circle_points(n1, radius=rng.uniform(0.5, 3.0))
        pts += rng.normal(scale=0.05, size=pts.shape)
        t = pk.closed_parameters(pts)
        method = "natural" if degree % 2 == 1 else "shifting"
        domain, solve_params = pk.closed_knots(t, method, degree)
        extras = rng.uniform(0.03, 0.97, int(rng.integers(1, 7)))
        domain = sc.merge_domain_knots(domain, np.sort(extras))
        problem = ci.ClosedInterpolationProblem(pts, solve_params, domain, degree)
        if problem.nhat == problem.n:
            continue
        res = ci.interpolate_closed_energy(problem, energy_stiffness(problem))
        scale = sc.bbox_diagonal(pts)
        worst_resid = max(worst_resid, res.max_residual / scale)
        kv = res.curve.knots
        stiff = la.stiffness_matrix(kv, 1.0, 0.2)
        base = la.curve_energy(stiff, expanded(res.curve))
        matrix = la.assemble_closed_system(problem.params, kv, problem.nhat)
        z = scipy.linalg.null_space(matrix)
        for _ in range(100):
            delta = z @ rng.normal(size=(z.shape[1], 3))
            slack = base - la.curve_energy(stiff, expanded(res.curve) + delta)
            worst_slack = max(worst_slack, slack)
    ok = worst_slack <= 1e-10 and worst_resid <= 1e-8
    _report(
        8, ok,
        f"50 problems x 100 perturbations: worst energy slack {worst_slack:.2e}, "
        f"worst relative residual {worst_resid:.2e}",
    )


def test_criterion_9_stiffness_oracle():
    clamped = sc.clamped_knot_vector([0, 0.22, 0.5, 0.61, 1], 3)
    cyclic = sc.cyclic_knot_vector([0, 0.18, 0.35, 0.52, 0.8, 1], 3)
    ok = True
    details = []
    for name, kv in (("clamped", clamped), ("cyclic", cyclic)):
        assembled = la.stiffness_matrix(kv, 1.0, 0.2).toarray()
        oracle = _oracle_stiffness(kv, 1.0, 0.2)
        rel = np.abs(assembled - oracle).max() / np.abs(oracle).max()
        symmetric = np.abs(assembled - assembled.T).max() == 0.0
        banded = la.semi_bandwidth(assembled) <= kv.degree
        ok = ok and rel <= 1e-8 and symmetric and banded
        details.append(f"{name}: rel err {rel:.2e}")
    _report(9, ok, "; ".join(details) + "; symmetry exact; bandwidth 2p+1")


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_io.main(argv)
    return code, out.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
    rows = tube_rows(8, seed=11)
    inp = tmp_path / "tube.json"
    inp.write_text(json.dumps({"version": 1, "rows": [r.tolist() for r in rows]}))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, stdout = _run_cli(
            ["loft", "--input", str(inp), "--method", "park", "--per", "0.75",
             "--output", str(out)]
        )
        assert code == 0
        outs.append((stdout, out.read_bytes()))
    loft_same = outs[0] == outs[1]

    verify_args = [
        "verify-conjectures", "--which", "both", "--trials", "100", "--seed", "31",
        "--degrees", "2,3,4,5", "--stress",
    ]
    c1, v1 = _run_cli(verify_args)
    c2, v2 = _run_cli(verify_args)
    verify_same = v1 == v2 and c1 == c2 == 0
    _report(
        10, loft_same and verify_same,
        f"loft outputs byte-identical: {loft_same}; verify outputs byte-identical: {verify_same}",
    )
