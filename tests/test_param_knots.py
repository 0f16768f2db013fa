import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import param_knots as pk
from closedloft.errors import ContractError, InvalidInputError

from conftest import circle_points, square_points


# --- parameter assignment ---

def test_parameter_stacks_are_checked_row_by_row():
    # a padded batch: rows of 3 and 4 parameters; the padding is never read
    values = np.array([[0.0, 0.4, 0.8, np.nan], [0.0, 0.1, 0.5, 0.7]])
    stack = pk.ParameterValues(values, lengths=[3, 4])
    assert stack.n.tolist() == [2, 3]
    with pytest.raises(InvalidInputError, match="start at t_0 = 0"):
        pk.ParameterValues(np.array([[0.0, 0.4, 0.8], [0.1, 0.2, 0.5]]), lengths=[3, 3])
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        pk.ParameterValues(np.array([[0.0, 0.4, 0.8], [0.0, 0.5, 0.5]]), lengths=[3, 3])
    with pytest.raises(InvalidInputError, match="strictly inside"):
        pk.ParameterValues(np.array([[0.1, 0.4, 0.8], [0.1, 0.5, 1.0]]), shifted=True, lengths=[3, 3])
    with pytest.raises(InvalidInputError, match="strictly inside"):
        pk.ParameterValues(np.array([[0.1, 1.0, 0.8], [0.1, 0.5, 0.9]]), shifted=True, lengths=[2, 3])
    with pytest.raises(InvalidInputError, match="must not exceed 1"):
        pk.ParameterValues(np.array([[0.0, 1.5, 2.0], [0.0, 0.5, 0.9]]), lengths=[2, 3])
    with pytest.raises(InvalidInputError, match="finite"):
        pk.ParameterValues(values, lengths=[4, 4])
    with pytest.raises(InvalidInputError, match="1-D sequence"):
        pk.ParameterValues(values[:, :3])  # a batch only with lengths
    with pytest.raises(InvalidInputError, match="row lengths"):
        pk.ParameterValues(values, lengths=[1, 4])
    # padded with 1.0, every row gets its own brackets first, at both parities
    for degree, shifted, rows in ((3, False, ([0.0, 0.4, 0.8], [0.0, 0.1, 0.5, 0.7])),
                                  (2, True, ([0.1, 0.4, 0.8], [0.05, 0.1, 0.5, 0.7]))):
        padded = np.ones((2, 4))
        padded[0, :3], padded[1] = rows
        lo, hi = pk.bracket_bounds(padded, degree)
        for row, row_lo, row_hi in zip(rows, lo, hi):
            one_lo, one_hi = pk.condition_brackets(pk.ParameterValues(row, shifted=shifted), degree)
            n = one_lo.size
            assert (one_lo.tobytes(), one_hi.tobytes()) == (row_lo[:n].tobytes(), row_hi[:n].tobytes())


def test_square_closed_parameters_equal_chords():
    t = pk.closed_parameters(square_points())
    np.testing.assert_allclose(t.values, [0, 0.25, 0.5, 0.75])


def test_closed_parameters_triangle_with_wrap():
    pts = np.array([[0, 0, 0], [3, 0, 0], [3, 4, 0]], float)
    t = pk.closed_parameters(pts)
    np.testing.assert_allclose(t.values, [0, 3 / 12, 7 / 12])


def test_chord_parameters_name_the_index_where_they_coincide():
    pts = circle_points(16)
    pts[5] = pts[4] + [0.0, 0.0, 1e-20]  # a chord too short to separate t_4 and t_5
    with pytest.raises(InvalidInputError, match=r"^parameters coincide at index 4 \(wrap included\): "):
        pk.closed_parameters(pts)
    with pytest.raises(InvalidInputError, match=r"^parameters coincide at index 4: "):
        pk.open_parameters(pts)


def test_closed_parameters_reject_wrap_duplicate():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], float)
    with pytest.raises(InvalidInputError):
        pk.closed_parameters(pts)


def test_open_parameters_examples():
    np.testing.assert_allclose(
        pk.open_parameters(np.array([[0, 0, 0], [1, 0, 0]], float)).values, [0, 1]
    )
    pts = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
    np.testing.assert_allclose(pk.open_parameters(pts).values, [0, 0.25, 0.5, 0.75, 1])
    arc = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0], [7, 0, 0]], float)
    np.testing.assert_allclose(pk.open_parameters(arc).values, [0, 1 / 7, 3 / 7, 1])


def test_parameters_rigid_motion_invariant(rng):
    pts = rng.normal(size=(9, 3))
    t0 = pk.closed_parameters(pts).values
    # random rotation + translation
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ q.T + rng.normal(size=3)
    np.testing.assert_allclose(pk.closed_parameters(moved).values, t0, atol=1e-12)
    np.testing.assert_allclose(pk.closed_parameters(3.7 * pts).values, t0, atol=1e-12)


# --- open averaging knots ---

def test_averaging_knots_single_interior():
    t = pk.ParameterValues(np.array([0, 0.2, 0.5, 0.7, 1.0]))
    kv = pk.averaging_knots_open(t, 3)
    np.testing.assert_allclose(kv.knots, [0, 0, 0, 0, (0.2 + 0.5 + 0.7) / 3, 1, 1, 1, 1])


def test_averaging_knots_bezier_case():
    t = pk.ParameterValues(np.array([0, 0.3, 0.8, 1.0]))
    kv = pk.averaging_knots_open(t, 3)
    assert kv.interior_count() == 0


def test_averaging_knots_uniform_symmetry():
    t = pk.ParameterValues(np.linspace(0, 1, 6))
    kv = pk.averaging_knots_open(t, 2)
    interior = kv.domain_knots[1:-1]
    np.testing.assert_allclose(np.diff(interior), np.diff(interior)[0])


def averaging_knots_loop(t, p):
    """The averaged interior knots, one ``mean`` per knot."""
    return np.array([t[i - p: i].mean() for i in range(p + 1, t.size)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 300), st.floats(0.0, 4.0), st.integers(0, 2**32 - 1))
def test_averaging_knots_equal_the_per_knot_loop(p, extra, sigma, seed):
    gaps = np.exp(np.random.default_rng(seed).normal(0.0, sigma, p + extra))
    t = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    t[-1] = 1.0
    kv = pk.averaging_knots_open(pk.ParameterValues(t), p)
    assert kv.knots[p + 1: kv.knots.size - p - 1].tobytes() == averaging_knots_loop(t, p).tobytes()


def test_averaging_knots_too_few_points():
    with pytest.raises(InvalidInputError):
        pk.averaging_knots_open(pk.ParameterValues(np.array([0, 1.0])), 3)


# --- closed knot methods ---

def test_closed_knots_natural_identity():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    domain, out = pk.closed_knots(t, "natural", 3)
    np.testing.assert_allclose(domain, [0, 0.25, 0.5, 0.75, 1])
    assert out is t


def test_closed_knots_averaging_uniform_fixed_point():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    domain, _ = pk.closed_knots(t, "averaging", 3)
    np.testing.assert_allclose(domain, [0, 0.25, 0.5, 0.75, 1])


def test_closed_knots_shifting_example():
    # the shifting formulas are degree-independent; degree 2 keeps n >= p
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    domain, shifted = pk.closed_knots(t, "shifting", 2)
    np.testing.assert_allclose(domain, [0, 0.25, 0.5, 0.75, 1])
    np.testing.assert_allclose(shifted.values, [0.125, 0.375, 0.625, 0.875])
    assert shifted.shifted


def test_closed_knots_shifting_is_midpoints_of_shifted(rng):
    t = pk.ParameterValues(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.9, 7))]))
    domain, shifted = pk.closed_knots(t, "shifting", 4)
    mids = (shifted.values[:-1] + shifted.values[1:]) / 2
    np.testing.assert_allclose(domain[1:-1], mids, atol=1e-14)


# --- anchors / bounds ---

def _anchors_and_bounds(t, degree):
    # at per = 1 the brackets are the condition brackets, ends exact
    anchors, _, lo, hi = pk.parity_form(t, degree)
    return anchors, np.append(lo, hi[-1])


def test_anchor_vectors_odd():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    anchors, bounds = _anchors_and_bounds(t, 3)
    np.testing.assert_allclose(anchors, [0, 0.25, 0.5, 0.75, 1])
    np.testing.assert_allclose(bounds, [0.125, 0.375, 0.625, 0.875])


def test_anchor_vectors_even():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    anchors, bounds = _anchors_and_bounds(t, 2)  # degree 4 needs n >= 4
    np.testing.assert_allclose(anchors, [0, 0.25, 0.5, 0.75, 1])
    np.testing.assert_allclose(bounds, [0.125, 0.375, 0.625, 0.875])


def test_anchor_interlacing_random(rng):
    for degree in (2, 3, 4, 5):
        for _ in range(20):
            n = int(rng.integers(degree + 1, 25))
            gaps = rng.uniform(0.05, 1.0, n + 1)
            t = pk.ParameterValues(np.concatenate([[0], np.cumsum(gaps[:-1]) / gaps.sum()]))
            anchors, bounds = _anchors_and_bounds(t, degree)
            assert np.all(bounds[:-1] < anchors[1:-1])
            assert np.all(anchors[1:-1] < bounds[1:])


# --- condition checkers ---

def test_conjecture1_natural_odd_true():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    assert pk.check_conjecture1(t, [0, 0.25, 0.5, 0.75, 1], 3)


def test_conjecture1_boundary_violation():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    assert not pk.check_conjecture1(t, [0, 0.4, 0.5, 0.75, 1], 3)


def test_conjecture1_shifting_even_true(rng):
    t = pk.ParameterValues(np.concatenate([[0], np.sort(rng.uniform(0.05, 0.9, 9))]))
    domain, shifted = pk.closed_knots(t, "shifting", 4)
    assert pk.check_conjecture1(shifted, domain, 4)


def test_conjecture1_parity_contract():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    with pytest.raises(ContractError):
        pk.check_conjecture1(t, [0, 0.25, 0.5, 0.75, 1], 4)
    with pytest.raises(ContractError):
        pk.check_conjecture1(pk.shift_parameters(t), [0, 0.25, 0.5, 0.75, 1], 3)


def test_conjecture1_holds_for_all_methods_random(rng):
    for _ in range(50):
        n = int(rng.integers(5, 25))
        gaps = rng.uniform(0.05, 1.0, n + 1)
        t = pk.ParameterValues(np.concatenate([[0], np.cumsum(gaps[:-1]) / gaps.sum()]))
        for method, degree in (("natural", 3), ("averaging", 3), ("shifting", 4)):
            domain, params = pk.closed_knots(t, method, degree)
            assert pk.check_conjecture1(params, domain, degree), (method, degree)


def test_conjecture2_reduces_to_conjecture1():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    ok, witness = pk.check_conjecture2(t, [0, 0.25, 0.5, 0.75, 1], 3)
    assert ok
    np.testing.assert_allclose(witness, [0, 0.25, 0.5, 0.75, 1])


def test_conjecture2_monotone_in_knot_set():
    t = pk.ParameterValues(np.array([0, 0.25, 0.5, 0.75]))
    dense = np.array([0, 0.05, 0.2, 0.25, 0.33, 0.5, 0.64, 0.75, 0.9, 1.0])
    ok, witness = pk.check_conjecture2(t, dense, 3)
    assert ok
    assert all(np.any(np.isclose(dense, w)) for w in witness)


def test_conjecture2_clustered_knots_false():
    t = pk.ParameterValues(np.array([0, 0.3, 0.6, 0.8]))
    clustered = np.array([0, 0.01, 0.02, 0.03, 0.04, 1.0])
    ok, witness = pk.check_conjecture2(t, clustered, 3)
    assert not ok and witness is None


def test_greedy_matches_exhaustive(rng):
    agree = 0
    for _ in range(300):
        n = int(rng.integers(3, 9))
        degree = int(rng.choice([2, 3, 4, 5]))
        gaps = rng.uniform(0.05, 1.0, n + 1)
        t = pk.ParameterValues(np.concatenate([[0], np.cumsum(gaps[:-1]) / gaps.sum()]))
        parity = pk.shift_parameters(t) if degree % 2 == 0 else t
        nhat = int(rng.integers(n, 15))
        interior = np.sort(rng.uniform(0.01, 0.99, nhat))
        if np.any(np.diff(interior) < 1e-9):
            continue
        domain = np.concatenate([[0], interior, [1]])
        got, _ = pk.check_conjecture2(parity, domain, degree)
        want = pk.exhaustive_witness_exists(parity, domain, degree)
        assert got == want
        agree += 1
    assert agree > 250


def greedy_witness_loop(params, domain_knots, degree):
    """check_conjecture2 as a bracket-by-bracket loop: the reference for the
    one-pass scan."""
    d = np.asarray(domain_knots, dtype=float)
    lo, hi = pk.condition_brackets(params, degree)
    n = lo.size
    if d.size < n + 2:
        return False, None
    candidates = d[1:-1]
    chosen = np.empty(n)
    idx = 0
    for i in range(n):
        while idx < candidates.size and candidates[idx] <= lo[i] + pk.STRICT_TOL:
            idx += 1
        if idx >= candidates.size or candidates[idx] >= hi[i] - pk.STRICT_TOL:
            return False, None
        chosen[i] = candidates[idx]
        idx += 1
    return True, np.concatenate([[0.0], chosen, [1.0]])


@st.composite
def witness_cases(draw):
    """Parameters, and domain knots drawn from uniform values and the
    bracket ends lo/hi shifted by 0, ±STRICT_TOL and ±2·STRICT_TOL; half the
    cases add every bracket midpoint, so that a witness exists."""
    degree = draw(st.integers(2, 5))
    n = draw(st.integers(degree, 8))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n + 1, max_size=n + 1)))
    t = pk.ParameterValues(np.concatenate([[0.0], np.cumsum(gaps[:-1]) / gaps.sum()]))
    parity = pk.shift_parameters(t) if degree % 2 == 0 else t
    lo, hi = pk.condition_brackets(parity, degree)
    ends = np.concatenate([lo, hi])[:, None] + pk.STRICT_TOL * np.arange(-2, 3)
    pool = st.one_of(st.floats(0.001, 0.999), st.sampled_from(ends.ravel().tolist()))
    interior = draw(st.lists(pool, min_size=0, max_size=n + 6))
    if draw(st.booleans()):
        interior += ((lo + hi) / 2).tolist()
    interior = np.unique(interior)
    interior = interior[(interior > 0.0) & (interior < 1.0)]
    return parity, np.concatenate([[0.0], interior, [1.0]]), degree


@settings(deadline=None, max_examples=400)
@given(witness_cases())
def test_greedy_scan_equals_loop_and_exhaustive(case):
    parity, domain, degree = case
    ok, witness = pk.check_conjecture2(parity, domain, degree)
    ref_ok, ref_witness = greedy_witness_loop(parity, domain, degree)
    assert ok == ref_ok
    if ok:
        assert witness.tobytes() == ref_witness.tobytes()
        assert pk.check_conjecture1(parity, witness, degree)
    else:
        assert witness is None
    assert ok == pk.exhaustive_witness_exists(parity, domain, degree)


def test_greedy_scan_over_a_stack_equals_row_by_row(rng):
    t = pk.ParameterValues(np.array([0.0, 0.2, 0.45, 0.7, 0.9]))
    lo, hi = pk.condition_brackets(t, 3)
    candidates = np.sort(rng.uniform(0.01, 0.99, (50, 9)), axis=1)
    ok, idx = pk.greedy_witness_scan(candidates, lo, hi)
    for row, verdict, picks in zip(candidates, ok, idx):
        one_ok, one_idx = pk.greedy_witness_scan(row, lo, hi)
        assert (one_ok, one_idx.tolist()) == (verdict, picks.tolist())
    assert 0 < ok.sum() < 50


def test_padded_condition_tests_equal_row_by_row(rng):
    # rows of 2 .. 7 brackets and 0 .. 11 candidates, padded with +inf
    # (candidates) and 1.0 (parameters); each row reduced over its own prefix
    rows = []
    for _ in range(200):
        n = int(rng.integers(2, 8))
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n))])
        count = int(rng.integers(0, 12)) if rng.uniform() < 0.5 else n
        lo, hi = pk.bracket_bounds(t, 3)
        # half the rows sit near their brackets, so that some verdicts hold
        near = (lo + hi) / 2 + rng.normal(0.0, 0.3, n) * (hi - lo)
        pool = np.concatenate([near, rng.uniform(0.01, 0.99, count)])
        rows.append((t, np.sort(rng.choice(pool, count, replace=False))))
    width, cwidth = max(t.size for t, _ in rows), max(c.size for _, c in rows)
    t_pad, c_pad = np.ones((len(rows), width)), np.full((len(rows), cwidth), np.inf)
    for b, (t, c) in enumerate(rows):
        t_pad[b, : t.size], c_pad[b, : c.size] = t, c
    n = np.array([t.size - 1 for t, _ in rows])
    size = np.array([c.size for _, c in rows])
    lo, hi = pk.bracket_bounds(t_pad, 3)
    ok, idx = pk.greedy_witness_scan(c_pad, lo, hi, n, size)
    square = np.array([c.size == k for (_, c), k in zip(rows, n)])
    interior = np.where(square[:, None], c_pad[:, : lo.shape[1]], 0.5)
    inside = pk.knots_inside_brackets(interior, lo, hi, n)
    for b, (t, c) in enumerate(rows):
        row_lo, row_hi = pk.bracket_bounds(t, 3)
        one_ok, one_idx = pk.greedy_witness_scan(c, row_lo, row_hi)
        assert ok[b] == one_ok
        if one_idx is not None:
            assert idx[b, : n[b]].tolist() == one_idx.tolist()
        if square[b]:
            assert inside[b] == pk.knots_inside_brackets(c, row_lo, row_hi)
    assert 0 < ok.sum() < len(rows) and 0 < inside[square].sum() < square.sum()


