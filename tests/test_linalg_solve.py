import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
from scipy.interpolate import BSpline

import closedloft
from closedloft import _kernels
from closedloft import linalg_solve as la
from closedloft import param_knots as pk
from closedloft import spline_core as sc
from closedloft.errors import InvalidInputError, SingularSystemError, ZeroPivotError

from conftest import circle_points


def _random_open_setup(rng, n1=12, degree=3):
    pts = rng.normal(size=(n1, 3))
    t = pk.ParameterValues(
        np.concatenate([[0], np.sort(rng.uniform(0.02, 0.98, n1 - 2)), [1]])
    )
    kv = pk.averaging_knots_open(t, degree)
    return pts, t, kv


# --- open collocation ---

def test_open_collocation_endpoint_identity():
    kv = sc.clamped_knot_vector([0, 1], 1)
    t = pk.ParameterValues(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(la.assemble_open_collocation(t, kv), np.eye(2))


def test_open_collocation_banded_and_row_sums(rng):
    for degree in (2, 3, 4):
        pts, t, kv = _random_open_setup(rng, 14, degree)
        m = la.assemble_open_collocation(t, kv)
        assert la.semi_bandwidth(m) < degree
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-13)
        # at most p+1 nonzeros per row
        assert (np.abs(m) > 0).sum(axis=1).max() <= degree + 1


# --- closed system assembly ---

def test_closed_system_shape():
    t = pk.ParameterValues(np.concatenate([[0], np.sort(np.linspace(0.1, 0.9, 7))]))
    domain, _ = pk.closed_knots(t, "natural", 3)
    kv = sc.cyclic_knot_vector(domain, 3)
    matrix = la.assemble_closed_system(t, kv, 7)
    assert matrix.shape == (11, 11)


def test_closed_system_wrap_block():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    domain, _ = pk.closed_knots(t, "natural", 2)
    kv = sc.cyclic_knot_vector(domain, 2)
    matrix = la.assemble_closed_system(t, kv, 3)
    top = t.values.size
    row0 = matrix[top]
    expected = np.zeros(matrix.shape[1])
    expected[0], expected[4] = 1.0, -1.0
    np.testing.assert_array_equal(row0, expected)
    np.testing.assert_allclose(matrix[:top].sum(axis=1), 1.0, atol=1e-13)
    np.testing.assert_allclose(matrix[top:].sum(axis=1), 0.0, atol=0)


# --- folded (periodic) closed collocation ---

def _wrap_map(nhat, p):
    """E: distinct controls to expanded storage (the first p repeated)."""
    eye = np.eye(nhat + 1)
    return np.vstack([eye, eye[:p]])


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_periodic_collocation_is_n_times_e_exactly(rng, degree):
    for _ in range(20):
        n = int(rng.integers(degree + 1, 25))
        t = pk.ParameterValues(np.unique(np.append(rng.uniform(0.0, 1.0, n), 0.0)))
        interior = rng.uniform(0.01, 0.99, n + int(rng.integers(0, 6)))
        domain = np.unique(np.concatenate([[0.0, 1.0], interior]))
        nhat = domain.size - 2
        kv = sc.cyclic_knot_vector(domain, degree)
        stacked = la.assemble_closed_system(t, kv, nhat)
        folded = la.periodic_collocation(t, kv)
        assert folded.shape == (t.values.size, nhat + 1)
        np.testing.assert_array_equal(folded, stacked[: t.values.size] @ _wrap_map(nhat, degree))
        np.testing.assert_allclose(folded.sum(axis=1), 1.0, atol=1e-13)


def test_periodic_collocation_folds_domains_shorter_than_the_degree():
    # n̂+1 <= p: a column folds onto the same distinct control more than once
    t = pk.ParameterValues(np.array([0.0, 0.2, 0.45, 0.7, 0.9]))
    np.testing.assert_allclose(la.periodic_collocation(t, sc.cyclic_knot_vector([0, 1], 3)), 1.0)
    kv = sc.cyclic_knot_vector([0, 0.4, 1], 4)
    folded = la.periodic_collocation(t, kv)
    stacked = la.assemble_closed_system(t, kv, 1)
    assert folded.shape == (5, 2)
    np.testing.assert_allclose(folded, stacked[:5] @ np.tile(np.eye(2), (3, 1)), atol=1e-15)


def test_periodic_collocation_rejects_bad_input():
    t = pk.ParameterValues(np.array([0.0, 0.3, 0.6]))
    with pytest.raises(InvalidInputError, match="cyclic"):
        la.periodic_collocation(t, sc.clamped_knot_vector([0, 0.5, 1], 1))
    with pytest.raises(InvalidInputError, match=r"\[0, 1\)"):
        la.periodic_collocation(pk.ParameterValues(np.array([0.0, 0.5, 1.0])),
                                sc.cyclic_knot_vector([0, 0.3, 0.6, 1], 1))


def _rank(matrix):
    return la.rank_report(matrix).rank


def test_periodic_collocation_keeps_the_rank_deficiency():
    # p+2 parameters in one knot span: [N; A] has rank 9 of 10
    t = pk.ParameterValues(np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.3, 0.6]), shifted=True)
    kv = sc.cyclic_knot_vector(np.linspace(0.0, 1.0, 10), 3)
    stacked, folded = la.assemble_closed_system(t, kv, 8), la.periodic_collocation(t, kv)
    assert (_rank(stacked), stacked.shape[0]) == (9, 10)
    assert (_rank(folded), folded.shape[0]) == (6, 7)
    # even degree with natural knots on uniform data: rank 13 of 14
    t = pk.closed_parameters(circle_points(10))
    domain, _ = pk.closed_knots(t, "natural", 4)
    kv = sc.cyclic_knot_vector(domain, 4)
    stacked, folded = la.assemble_closed_system(t, kv, 9), la.periodic_collocation(t, kv)
    assert (_rank(stacked), stacked.shape[0]) == (13, 14)
    assert (_rank(folded), folded.shape[0]) == (9, 10)


# --- dense solve ---

def test_solve_dense_identity_and_diag():
    np.testing.assert_array_equal(la.solve_dense(np.eye(3), np.arange(3.0)), np.arange(3.0))
    x = la.solve_dense(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_solve_dense_residual(rng):
    m = rng.normal(size=(50, 50)) + 50 * np.eye(50)
    b = rng.normal(size=(50, 3))
    x = la.solve_dense(m, b)
    assert np.abs(m @ x - b).max() <= 1e-9 * np.abs(b).max()


def test_solve_dense_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError):
        la.solve_dense(m, np.ones(2))


# --- banded no-pivot solve ---

def test_banded_identity():
    b = np.arange(5.0)
    np.testing.assert_array_equal(la.solve_banded_no_pivot(np.eye(5), 0, b), b)


def test_banded_tridiagonal_matches_dense():
    m = np.diag(np.full(5, 2.0)) + np.diag(np.full(4, -1.0), 1) + np.diag(np.full(4, -1.0), -1)
    b = np.arange(5.0)
    np.testing.assert_allclose(
        la.solve_banded_no_pivot(m, 1, b), la.solve_dense(m, b), atol=1e-12
    )


def test_banded_zero_pivot_signals():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ZeroPivotError):
        la.solve_banded_no_pivot(m, 1, np.ones(2))


def test_banded_matches_dense_on_interpolation_system(rng):
    pts, t, kv = _random_open_setup(rng, 20, 3)
    m = la.assemble_open_collocation(t, kv)
    x1 = la.solve_banded_no_pivot(m, la.semi_bandwidth(m), pts)
    x2 = la.solve_dense(m, pts)
    assert np.abs(x1 - x2).max() < 1e-10


# --- stiffness matrix ---

def _oracle_stiffness(kv, alpha, beta):
    """Independent route: scipy basis elements + adaptive quadrature."""
    p = kv.degree
    knots = kv.knots
    nb = kv.n_basis
    breaks = np.unique(np.round(kv.domain_knots, 12))
    out = np.zeros((nb, nb))
    # unit-coefficient splines over the full vector; basis_element cannot
    # differentiate through its padded local knots
    elements = [
        BSpline(knots, np.eye(nb)[i], p, extrapolate=False) for i in range(nb)
    ]

    def piece(fn, a, b):
        val, _err = scipy.integrate.quad(fn, a, b, limit=200)
        return val

    for i in range(nb):
        di1 = elements[i].derivative(1)
        di2 = elements[i].derivative(2) if p >= 2 else None
        for j in range(i, nb):
            if j - i > p:
                continue
            dj1 = elements[j].derivative(1)
            dj2 = elements[j].derivative(2) if p >= 2 else None
            lo = max(knots[i], knots[j], 0.0)
            hi = min(knots[i + p + 1], knots[j + p + 1], 1.0)
            if hi <= lo:
                continue
            total = 0.0
            for a, b in zip(breaks[:-1], breaks[1:]):
                a2, b2 = max(a, lo), min(b, hi)
                if b2 - a2 <= 1e-14:
                    continue
                if alpha > 0:
                    total += alpha * piece(
                        lambda x: np.nan_to_num(di1(x)) * np.nan_to_num(dj1(x)), a2, b2
                    )
                if beta > 0:
                    total += beta * piece(
                        lambda x: np.nan_to_num(di2(x)) * np.nan_to_num(dj2(x)), a2, b2
                    )
            out[i, j] = out[j, i] = total
    return out


def _loop_stiffness(kv, alpha, beta):
    """The node-by-node assembly the batched one replaced: one span lookup,
    one derivative evaluation and one outer product per Gauss node."""
    p = kv.degree
    stiff = np.zeros((kv.n_basis, kv.n_basis))
    if alpha == 0.0 and beta == 0.0:
        return stiff
    order = 2 if beta > 0.0 else 1
    nodes, weights = np.polynomial.legendre.leggauss(p + 1)
    d = kv.domain_knots
    for a, b in zip(d[:-1], d[1:]):
        if b - a <= 0.0:
            continue
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for x, w in zip(nodes, weights):
            u = mid + half * x
            span = int(_kernels.find_span(kv.knots, p, u))
            ders = _kernels.ders_basis_funs(kv.knots, p, span, u, order)
            sl = slice(span - p, span + 1)
            if alpha > 0.0:
                stiff[sl, sl] += (alpha * w * half) * np.outer(ders[1], ders[1])
            if beta > 0.0:
                stiff[sl, sl] += (beta * w * half) * np.outer(ders[2], ders[2])
    return stiff


def _repeated_knot_vector(rng, degree, cyclic):
    domain = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, 7)), [1.0]])
    if cyclic:
        return sc.cyclic_knot_vector(domain, degree)
    # clamped, with interior knots of multiplicity 2 and degree
    inner = np.concatenate([domain[1:-1], domain[2:3], np.repeat(domain[4], degree - 1)])
    knots = np.concatenate([np.zeros(degree + 1), np.sort(inner), np.ones(degree + 1)])
    return sc.KnotVector(knots, degree, "clamped")


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("cyclic", [True, False])
@pytest.mark.parametrize("alpha, beta", [(1.0, 0.2), (0.0, 0.7), (1.5, 0.0)])
def test_stiffness_equals_node_loop(rng, degree, cyclic, alpha, beta):
    kv = _repeated_knot_vector(rng, degree, cyclic)
    k = la.stiffness_matrix(kv, alpha, beta)
    assert scipy.sparse.issparse(k)
    np.testing.assert_array_equal(k.toarray(), _loop_stiffness(kv, alpha, beta))


def test_stiffness_equals_node_loop_linear(rng):
    kv = _repeated_knot_vector(rng, 1, True)
    np.testing.assert_array_equal(
        la.stiffness_matrix(kv, 2.0, 0.0).toarray(), _loop_stiffness(kv, 2.0, 0.0)
    )


def test_ders_basis_funs_on_arrays_equal_pointwise_calls_and_scipy(rng):
    for degree in range(1, 6):
        kv = _repeated_knot_vector(rng, degree, False)
        us = rng.uniform(0.0, 1.0, 40)
        spans = np.array([_kernels.find_span(kv.knots, degree, u) for u in us])
        basis = BSpline(kv.knots, np.eye(kv.n_basis), degree)
        for order in range(degree + 1):
            ders = _kernels.ders_basis_funs(kv.knots, degree, spans, us, order)
            assert ders.shape == (order + 1, degree + 1, us.size)
            for m, (span, u) in enumerate(zip(spans, us)):
                np.testing.assert_array_equal(
                    ders[..., m], _kernels.ders_basis_funs(kv.knots, degree, int(span), float(u), order)
                )
            for k in range(order + 1):
                full = basis(us, nu=k)
                ref = np.stack([full[m, s - degree: s + 1] for m, s in enumerate(spans)], axis=1)
                scale = max(np.abs(ref).max(), 1.0)
                np.testing.assert_allclose(ders[k], ref, rtol=0, atol=1e-9 * scale)


def test_stiffness_zero_weights():
    kv = sc.clamped_knot_vector([0, 0.5, 1], 3)
    np.testing.assert_array_equal(la.stiffness_matrix(kv, 0.0, 0.0).toarray(), 0.0)


def test_stiffness_symmetry_exact(rng):
    kv = sc.cyclic_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.1, 0.9, 6)), [1]]), 3)
    k = la.stiffness_matrix(kv, 1.0, 0.2).toarray()
    assert np.abs(k - k.T).max() == 0.0


def test_stiffness_bandwidth_structure(rng):
    for degree in (2, 3, 4):
        kv = sc.cyclic_knot_vector(
            np.concatenate([[0], np.sort(rng.uniform(0.05, 0.95, 8)), [1]]), degree
        )
        k = la.stiffness_matrix(kv, 1.0, 0.2).toarray()
        assert la.semi_bandwidth(k) <= degree  # bandwidth 2p+1


def test_stiffness_positive_semidefinite(rng):
    kv = sc.clamped_knot_vector(np.concatenate([[0], np.sort(rng.uniform(0.1, 0.9, 5)), [1]]), 3)
    k = la.stiffness_matrix(kv, 1.0, 0.2).toarray()
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() > -1e-10 * max(eigs.max(), 1.0)


def test_stiffness_matches_independent_quadrature_clamped():
    kv = sc.clamped_knot_vector([0, 0.22, 0.5, 0.61, 1], 3)
    k = la.stiffness_matrix(kv, 1.0, 0.2).toarray()
    oracle = _oracle_stiffness(kv, 1.0, 0.2)
    assert np.abs(k - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_stiffness_matches_independent_quadrature_cyclic():
    kv = sc.cyclic_knot_vector([0, 0.18, 0.35, 0.52, 0.8, 1], 3)
    k = la.stiffness_matrix(kv, 1.0, 0.2).toarray()
    oracle = _oracle_stiffness(kv, 1.0, 0.2)
    assert np.abs(k - oracle).max() <= 1e-8 * np.abs(oracle).max()


@pytest.mark.parametrize(
    "alpha, beta",
    [(np.nan, 0.2), (1.0, np.nan), (np.inf, 0.2), (1.0, np.inf), (-np.inf, 0.2), (1.0, -np.inf)],
)
def test_stiffness_rejects_non_finite_weights(alpha, beta):
    kv = sc.clamped_knot_vector([0, 0.5, 1], 3)
    with pytest.raises(InvalidInputError, match="must be finite"):
        la.stiffness_matrix(kv, alpha, beta)


def test_stiffness_rejects_bend_on_linear():
    kv = sc.clamped_knot_vector([0, 0.5, 1], 1)
    with pytest.raises(InvalidInputError):
        la.stiffness_matrix(kv, 1.0, 0.2)


# --- KKT ---

def test_kkt_projection():
    p, v = la.solve_kkt(np.eye(2), np.array([[1.0, 0.0]]), np.array([[1.0]]))
    np.testing.assert_allclose(p, [[1.0], [0.0]], atol=1e-14)


def test_kkt_fully_constrained_ignores_stiffness(rng):
    c = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    rhs = rng.normal(size=(4, 3))
    k = np.abs(rng.normal(size=(4, 4)))
    k = k @ k.T  # any PSD stiffness
    p, _ = la.solve_kkt(k, c, rhs)
    np.testing.assert_allclose(p, np.linalg.solve(c, rhs), atol=1e-9)


def test_kkt_null_space_optimality(rng):
    # a well-posed under-determined closed collocation: natural knots of the
    # parameters plus extra knots, so a feasible square subsequence exists
    t = pk.ParameterValues(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.92, 6))]))
    domain, _ = pk.closed_knots(t, "natural", 3)
    domain = sc.merge_domain_knots(domain, np.sort(rng.uniform(0.03, 0.97, 4)))
    kv = sc.cyclic_knot_vector(domain, 3)
    k = la.stiffness_matrix(kv, 1.0, 0.2)
    c = la.assemble_closed_system(t, kv, domain.size - 2)
    rhs = rng.normal(size=(c.shape[0], 3))
    rhs[-3:] = 0.0
    p, mult = la.solve_kkt(k, c, rhs)
    # stationarity and feasibility
    assert np.abs(k @ p + c.T @ mult).max() < 1e-8 * max(np.abs(p).max(), 1.0)
    assert np.abs(c @ p - rhs).max() < 1e-8 * max(np.abs(rhs).max(), 1.0)
    base = la.curve_energy(k, p)
    z = scipy.linalg.null_space(c)
    for _ in range(100):
        delta = z @ rng.normal(size=(z.shape[1], 3))
        assert la.curve_energy(k, p + delta) >= base - 1e-10


@pytest.mark.parametrize("sparse", [False, True])
def test_kkt_matches_dense_solve_on_random_systems(rng, sparse):
    checked = 0
    for _ in range(60):
        nb = int(rng.integers(3, 40))
        nc = int(rng.integers(1, nb + 1))
        a = rng.normal(size=(nb, nb))
        # SPD stiffness with rows scaled over four orders of magnitude
        scale = 10.0 ** rng.uniform(-1.0, 1.0, nb)
        k = scale[:, None] * (a @ a.T + np.eye(nb)) * scale[None, :]
        c = rng.normal(size=(nc, nb)) * (rng.uniform(size=(nc, nb)) < 0.6)
        c[np.arange(nc), rng.permutation(nb)[:nc]] = 1.0 + rng.uniform(size=nc)
        if np.linalg.matrix_rank(c) < nc:
            continue
        rhs = rng.normal(size=(nc, 3))
        p, mult = la.solve_kkt(scipy.sparse.csr_array(k) if sparse else k, c, rhs)
        kkt = np.block([[k, c.T], [c, np.zeros((nc, nc))]])
        ref = np.linalg.solve(kkt, np.vstack([np.zeros((nb, 3)), rhs]))
        assert np.abs(np.vstack([p, mult]) - ref).max() <= 1e-7 * np.abs(ref).max()
        assert np.abs(c @ p - rhs).max() <= 1e-7 * np.abs(rhs).max()
        checked += 1
    assert checked >= 40


def test_kkt_equilibration_solves_fine_closed_systems(rng):
    # 30 points on 2000 spans: the bend term (~1/h³) against basis values
    # below 1 leaves the unscaled saddle matrix numerically singular
    t = pk.ParameterValues(np.linspace(0.0, 1.0, 31)[:-1] + 0.004, shifted=True)
    kv = sc.cyclic_knot_vector(np.linspace(0.0, 1.0, 2001), 3)
    c = la.assemble_closed_system(t, kv, 1999)
    k = la.stiffness_matrix(kv, 1.0, 0.2)
    rhs = np.vstack([rng.normal(size=(t.values.size, 3)), np.zeros((3, 3))])
    kkt = np.block([[k.toarray(), c.T], [c, np.zeros((c.shape[0], c.shape[0]))]])
    with pytest.raises(SingularSystemError):
        la.solve_dense(kkt, np.vstack([np.zeros((kv.n_basis, 3)), rhs]))
    p, mult = la.solve_kkt(k, c, rhs)
    assert np.abs(c @ p - rhs).max() <= 1e-9 * np.abs(rhs).max()
    assert np.abs(k @ p + c.T @ mult).max() <= 1e-12 * abs(k).max() * np.abs(p).max()


def test_kkt_one_dimensional_rhs():
    p, v = la.solve_kkt(np.eye(2), np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-14)
    assert p.shape == (2,) and v.shape == (1,)


def test_kkt_rank_deficient_constraints():
    c = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularSystemError, match="rank-deficient") as info:
        la.solve_kkt(np.eye(2), c, np.ones((2, 1)))
    assert info.value.rank_report.rank == 1


def test_kkt_rank_deficient_closed_constraints(rng):
    # p+2 parameters in one knot span, where the basis spans only degree-p
    # polynomials, give dependent collocation rows
    t = pk.ParameterValues(np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.3, 0.6]), shifted=True)
    kv = sc.cyclic_knot_vector(np.linspace(0.0, 1.0, 10), 3)
    c = la.assemble_closed_system(t, kv, 8)
    with pytest.raises(SingularSystemError, match="rank-deficient") as info:
        la.solve_kkt(la.stiffness_matrix(kv, 1.0, 0.2), c, rng.normal(size=(c.shape[0], 3)))
    assert info.value.rank_report.rank == c.shape[0] - 1


@pytest.mark.parametrize("stiff", [
    np.zeros((3, 3)),                          # zero rows in the saddle matrix
    np.array([[1.0, 1.0], [1.0, 1.0]]),        # vanishes on the feasible direction (1, -1)
])
def test_kkt_degenerate_stiffness_raises_with_report(stiff):
    nb = stiff.shape[0]
    c = np.ones((1, nb))
    with pytest.raises(SingularSystemError, match="KKT matrix is singular") as info:
        la.solve_kkt(stiff, c, np.ones((1, 2)))
    report = info.value.rank_report
    assert report.singular_values.size == nb + 1 and report.rank < nb + 1


def test_kkt_bend_only_stiffness_degenerate_on_lines():
    # bend energy vanishes on straight lines; one interpolated point leaves a
    # line through it free
    kv = sc.clamped_knot_vector([0, 0.3, 0.6, 1], 3)
    c = sc.basis_functions(kv, 0.4)[None, :]
    with pytest.raises(SingularSystemError, match="KKT matrix is singular") as info:
        la.solve_kkt(la.stiffness_matrix(kv, 0.0, 1.0), c, np.ones((1, 3)))
    assert info.value.rank_report.rank < kv.n_basis + 1


def test_import_loads_no_scipy():
    # scipy.linalg (which loads numpy.f2py) and scipy.sparse cost a few tenths
    # of a second of every CLI start; they are imported by the functions
    # that use them
    src = os.path.dirname(os.path.dirname(os.path.abspath(closedloft.__file__)))
    code = "import sys, closedloft.cli_io; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# --- rank report ---

def test_rank_report_identity():
    r = la.rank_report(np.eye(4))
    assert r.rank == 4 and r.condition == pytest.approx(1.0)


def test_rank_report_outer_product():
    v = np.array([[1.0], [2.0], [3.0]])
    assert la.rank_report(v @ v.T).rank == 1


def test_rank_report_transpose_invariant(rng):
    m = rng.normal(size=(7, 12))
    assert la.rank_report(m).rank == la.rank_report(m.T).rank


def test_rank_report_full_rank_closed_system(rng):
    t = pk.ParameterValues(np.concatenate([[0], np.sort(rng.uniform(0.03, 0.95, 10))]))
    domain, _ = pk.closed_knots(t, "natural", 3)
    kv = sc.cyclic_knot_vector(domain, 3)
    matrix = la.assemble_closed_system(t, kv, 10)
    assert la.rank_report(matrix).rank == matrix.shape[0] == 14
