"""A certified degree-3 counterexample to this package's reading of the
closed interpolation condition (odd degree: each interior domain knot
strictly between consecutive chord midpoints).

The knot sets that satisfy the condition form an open box, so a convex set,
and det(N·E) is continuous on it.  Two knot sets in the box whose exact
determinants have opposite signs therefore enclose a knot set in the box
where N·E is singular.  The signs are computed in exact rational arithmetic
from the float parameters and knots, with the standard library only.
"""

from fractions import Fraction

import numpy as np

from closedloft import linalg_solve as la
from closedloft import param_knots as pk
from closedloft import spline_core as sc


def _exact_periodic_collocation(t, domain, p):
    """N·E over the cyclic extension of ``domain``, in Fractions: the knots
    extended by the recurrences of ``cyclic_knot_vector``, the basis by
    Cox–de Boor, and basis function j added into column j mod (n̂+1)."""
    d = [Fraction(x) for x in domain]
    n1 = len(d) - 1
    u = [None] * p + d + [None] * p
    for i in range(1, p + 1):
        u[p - i] = u[p - i + 1] + u[p + n1 - i] - u[p + n1 - i + 1]
        u[p + n1 + i] = u[p + n1 + i - 1] + u[p + i] - u[p + i - 1]
    rows = []
    for x in map(Fraction, t):
        k = max(i for i in range(p, p + n1) if u[i] <= x)
        left, right = [None] * (p + 1), [None] * (p + 1)
        basis = [Fraction(1)] + [Fraction(0)] * p
        for j in range(1, p + 1):
            left[j], right[j] = x - u[k + 1 - j], u[k + j] - x
            saved = Fraction(0)
            for r in range(j):
                tmp = basis[r] / (right[r + 1] + left[j - r])
                basis[r] = saved + right[r + 1] * tmp
                saved = left[j - r] * tmp
            basis[j] = saved
        row = [Fraction(0)] * n1
        for r in range(p + 1):
            row[(k - p + r) % n1] += basis[r]
        rows.append(row)
    return rows


def _exact_det_sign(rows):
    """Sign of the determinant (-1, 0 or +1) by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    sign = 1
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        if rows[c][c] < 0:
            sign = -sign
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return sign


def test_degree3_condition_true_knot_sets_give_opposite_det_signs():
    rng = np.random.default_rng(9)
    n, p = 17, 3
    g = np.exp(rng.normal(0, 2, n + 1))
    g /= g.sum()
    g = np.maximum(g, 1e-4)
    g /= g.sum()
    t = pk.ParameterValues(np.concatenate([[0.0], np.cumsum(g[:-1])]))
    lo, hi = pk.condition_brackets(t, p)
    signs = []
    for interior in ((lo + hi) / 2.0, hi - 0.001 * (hi - lo)):
        domain = np.concatenate([[0.0], interior, [1.0]])
        assert pk.check_conjecture1(t, domain, p)
        exact = _exact_periodic_collocation(t.values, domain, p)
        matrix = la.periodic_collocation(t, sc.cyclic_knot_vector(domain, p))
        assert matrix.shape == (n + 1, n + 1)
        assert np.abs(np.array(exact, dtype=float) - matrix).max() < 1e-15
        sign = _exact_det_sign(exact)
        assert np.linalg.slogdet(matrix)[0] == sign
        signs.append(sign)
    assert signs == [-1, 1]
