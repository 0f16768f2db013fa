import numpy as np
import pytest
from hypothesis import strategies as st


def circle_points(count, radius=1.0, z=0.0, phase=0.0):
    th = np.linspace(0.0, 2.0 * np.pi, count + 1)[:-1] + phase
    return np.stack(
        [radius * np.cos(th), radius * np.sin(th), np.full_like(th, z)], axis=1
    )


def ellipse_points(count, a=2.0, b=1.0, z=0.0):
    th = np.linspace(0.0, 2.0 * np.pi, count + 1)[:-1]
    return np.stack([a * np.cos(th), b * np.sin(th), np.full_like(th, z)], axis=1)


def star_points(count, inner=0.5, outer=1.3, z=0.0):
    th = np.linspace(0.0, 2.0 * np.pi, count + 1)[:-1]
    r = np.where(np.arange(count) % 2 == 0, outer, inner)
    return np.stack([r * np.cos(th), r * np.sin(th), np.full_like(th, z)], axis=1)


def square_points():
    return np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)


def tube_rows(m1=10, count_range=(16, 33), seed=0, noisy_radius=False, equal_counts=None):
    """Stacked closed rows around the z axis with per-row point counts."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(m1):
        n1 = equal_counts or int(rng.integers(*count_range))
        th = np.linspace(0.0, 2.0 * np.pi, n1 + 1)[:-1] + rng.uniform(0, 2 * np.pi / n1)
        r = 1.0 + 0.3 * np.sin(2.0 * np.pi * i / m1)
        if noisy_radius:
            r = r * (1.0 + 0.05 * np.sin(9.1 * i) )
        z = 2.0 * i / max(m1 - 1, 1)
        rows.append(np.stack([r * np.cos(th), r * np.sin(th), np.full_like(th, z)], axis=1))
    return rows


def random_closed_curve(rng, degree, nhat=None):
    """A random closed curve on a random strictly-increasing domain."""
    from closedloft.spline_core import BSplineCurve, cyclic_knot_vector

    nhat = nhat or int(rng.integers(degree + 2, degree + 9))
    gaps = rng.uniform(0.2, 1.0, nhat + 1)
    domain = np.concatenate([[0.0], np.cumsum(gaps)[:-1] / gaps.sum(), [1.0]])
    kv = cyclic_knot_vector(domain, degree)
    ctrl = rng.normal(scale=2.0, size=(kv.n_basis - degree, 3))
    return BSplineCurve(kv, ctrl)


def energy_stiffness(problem, alpha=1.0, beta=0.2):
    """The stiffness matrix an energy solve of ``problem`` takes: the
    stretch and bend weights on the cyclic knot vector of its domain knots."""
    from closedloft.linalg_solve import stiffness_matrix
    from closedloft.spline_core import cyclic_knot_vector

    return stiffness_matrix(cyclic_knot_vector(problem.domain_knots, problem.degree), alpha, beta)


def expanded(curve):
    """A curve's controls in expanded storage: one per basis function, so a
    closed curve's distinct controls followed by p more, taken cyclically
    from the first.  An open curve's controls come back as they are."""
    n = curve.control_points.shape[0]
    return curve.control_points[np.arange(curve.knots.n_basis) % n]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def fast_range_floats():
    """Floats that ``repr`` writes without an exponent, 1e-4 <= |x| < 1e16,
    of either sign: any such magnitude, or a short decimal k / 10**j."""
    magnitude = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
    decimal = st.builds(lambda k, j: k / 10**j, st.integers(1, 10**9), st.integers(0, 12))
    return st.tuples(magnitude | decimal, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
