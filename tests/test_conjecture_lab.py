import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import _kernels, cli_io
from closedloft import conjecture_lab as lab
from closedloft import linalg_solve as la
from closedloft import param_knots as pk
from closedloft import loft as lf
from closedloft import spline_core as sc
from closedloft.errors import InvalidInputError

from conftest import tube_rows


def test_config_validation():
    with pytest.raises(InvalidInputError):
        lab.TrialConfig(trials=0)
    with pytest.raises(InvalidInputError):
        lab.TrialConfig(conjecture=3)
    with pytest.raises(InvalidInputError):
        lab.TrialConfig(n_range=(10, 5))
    with pytest.raises(InvalidInputError):
        lab.TrialConfig(d_sampling="anything")
    for tol in (float("nan"), float("inf"), 2.0, 1.0, 0.0, -1.0):
        with pytest.raises(InvalidInputError, match=r"rank_tol must lie in \(0, 1\)"):
            lab.TrialConfig(rank_tol=tol)
    # no n in the range can hold a degree-5 problem (n >= p + 1)
    with pytest.raises(InvalidInputError, match=r"n_range upper bound must be >= max\(degrees\) \+ 1 = 6"):
        lab.TrialConfig(degrees=(5,), n_range=(2, 3))
    with pytest.raises(InvalidInputError, match="nhat_extra must be non-negative"):
        lab.TrialConfig(conjecture=2, nhat_extra=(-1, 0))
    with pytest.raises(InvalidInputError, match="degrees must not repeat"):
        lab.TrialConfig(degrees=(3, 3))
    with pytest.raises(InvalidInputError, match="seed must be non-negative"):
        lab.TrialConfig(seed=-1)
    lab.TrialConfig(degrees=(2, 5), n_range=(2, 6), nhat_extra=(0, 0))  # the edges pass


def test_threads_is_checked():
    cfg = lab.TrialConfig(trials=5, seed=4)
    with pytest.raises(InvalidInputError, match="threads must be >= 1"):
        lab.run_conjecture1_trials(cfg, threads=0)
    with pytest.raises(InvalidInputError, match="threads must be >= 1"):
        lab.run_conjecture2_trials(cfg, threads=0)


def test_folded_rank_is_stacked_rank_minus_degree_on_harness_draws(monkeypatch):
    # the solvers use N·E, the harness [N; A]: their ranks differ by the p
    # wrap rows on every configuration the harness draws
    draws = []
    measure = lab._measure_degree

    def recording(trial_draws, conjecture, rank_tol):
        records = measure(trial_draws, conjecture, rank_tol)
        for draw, record in zip(trial_draws, records):
            parity = pk.ParameterValues(draw.params, shifted=draw.degree % 2 == 0)
            draws.append((parity, draw.domain, draw.degree, record.rank))
        return records

    monkeypatch.setattr(lab, "_measure_degree", recording)
    for t_law in (lab.UNIFORM_GAP, lab.LOGNORMAL_GAP):
        for d_law in (lab.INSIDE, lab.VIOLATING):
            cfg = lab.TrialConfig(trials=75, seed=17, t_sampling=t_law, d_sampling=d_law)
            lab.run_conjecture1_trials(cfg)
            lab.run_conjecture2_trials(cfg)
    assert len(draws) == 2 * 2 * 2 * 4 * 75
    mismatches = [
        (degree, domain.size, rank)
        for parity, domain, degree, rank in draws
        if la.rank_report(la.periodic_collocation(parity, sc.cyclic_knot_vector(domain, degree)),
                          1e-12).rank != rank - degree
    ]
    assert mismatches == []


def test_conjecture1_inside_sampling_no_counterexamples():
    cfg = lab.TrialConfig(conjecture=1, trials=250, seed=123)
    report = lab.run_conjecture1_trials(cfg)
    assert len(report.records) == 250 * 4
    assert report.counterexamples == []
    assert all(r.condition for r in report.records)
    assert report.min_sigma_ratio() > cfg.rank_tol


def test_conjecture1_deterministic_and_thread_invariant():
    cfg = lab.TrialConfig(conjecture=1, trials=60, seed=99)
    a = lab.run_conjecture1_trials(cfg)
    b = lab.run_conjecture1_trials(cfg)
    c = lab.run_conjecture1_trials(cfg, threads=4)
    assert a.records == b.records == c.records
    assert cli_io.format_report(a) == cli_io.format_report(c)


def test_conjecture1_violating_sampler_bookkeeping():
    cfg = lab.TrialConfig(conjecture=1, trials=80, seed=5, d_sampling="violating")
    report = lab.run_conjecture1_trials(cfg)
    assert all(not r.condition for r in report.records)
    # the condition is sufficient, not necessary: violations may stay invertible
    assert report.counterexamples == []
    summary = report.degree_summary(3)
    assert summary["violations"] == 80
    assert summary["violations_still_full_rank"] <= 80


def test_conjecture2_no_counterexamples_and_greedy_agreement():
    cfg = lab.TrialConfig(conjecture=2, trials=150, seed=77, nhat_extra=(1, 10))
    report = lab.run_conjecture2_trials(cfg)
    assert report.counterexamples == []
    checked = report.greedy_checked()
    assert checked, "some trials must fall in the exhaustive-check range"
    assert all(r.greedy_agrees for r in checked)
    assert all(r.nhat > r.n for r in report.records)


def test_conjecture2_nhat_equal_n_reduces_to_conjecture1():
    cfg = lab.TrialConfig(conjecture=2, trials=50, seed=3, nhat_extra=(0, 0))
    report = lab.run_conjecture2_trials(cfg)
    assert all(r.nhat == r.n for r in report.records)
    assert all(r.condition for r in report.records)
    assert report.counterexamples == []


def test_conjecture2_violating_sampler():
    cfg = lab.TrialConfig(
        conjecture=2, trials=40, seed=8, d_sampling="violating", nhat_extra=(1, 5)
    )
    report = lab.run_conjecture2_trials(cfg)
    assert all(not r.condition for r in report.records)
    checked = report.greedy_checked()
    assert all(r.greedy_agrees for r in checked)


def test_procedure5_domains_always_condition_true(rng):
    # knots built for rows by the common-domain construction always verify
    cfg_tolerance = 1e-12
    for seed in (0, 1):
        rows = lf.ContourRows(tube_rows(5, seed=seed), aligned=True)
        for degree in (3, 4):
            params = [pk.closed_parameters(r) for r in rows.rows]
            domain = lf.build_common_domain_knots(params, degree, 1.0)
            for t in params:
                parity = pk.shift_parameters(t) if degree % 2 == 0 else t
                ok, witness = pk.check_conjecture2(parity, domain, degree)
                assert ok and witness is not None


def test_report_consistency_invariant():
    cfg = lab.TrialConfig(conjecture=1, trials=100, seed=2024)
    report = lab.run_conjecture1_trials(cfg)
    recount = sum(1 for r in report.records if r.condition and not r.full_rank)
    assert len(report.counterexamples) == recount


def test_boundary_stress_ladder():
    ladder = [0.01, 1e-4, 1e-6, 0.0]
    cfg = lab.TrialConfig(conjecture=1, trials=1, seed=31, degrees=(3, 4))
    report = lab.boundary_stress(cfg, ladder)
    eps_seen = sorted({r.epsilon for r in report.records}, reverse=True)
    assert eps_seen == sorted(ladder, reverse=True)
    for r in report.records:
        assert r.sigma_ratio >= 0.0
        if r.epsilon == 0.0:
            assert not r.condition  # knot exactly on the bracket endpoint
        if r.epsilon >= 1e-4:
            assert r.condition


def test_boundary_stress_midpoint_recovers_interior():
    cfg = lab.TrialConfig(conjecture=1, trials=1, seed=31, degrees=(3,))
    # epsilon = half bracket width => the stressed knot is the anchor itself
    rng = np.random.default_rng()
    probe = lab.boundary_stress(cfg, [0.0])
    n = probe.records[0].n
    # reconstruct the half width of the stressed bracket
    params = lab._sample_parameters(lab._trial_rng(cfg.seed, 3, 0), n, cfg.t_sampling)
    lo, hi = pk.condition_brackets(pk.ParameterValues(params), 3)
    half = (hi[n // 2] - lo[n // 2]) / 2
    rep = lab.boundary_stress(cfg, [half])
    assert rep.records[0].condition
    assert rep.records[0].full_rank


def test_stress_negative_epsilon_rejected():
    cfg = lab.TrialConfig(conjecture=1, trials=1, seed=1)
    with pytest.raises(InvalidInputError):
        lab.boundary_stress(cfg, [-1e-3])


# --- the batched engine: one padded pass per degree ---

def _harness_draws(degree, n, extra, count):
    """``count`` conjecture-2 draws of the harness with n and n̂ = n + extra,
    then ``count`` draws of the same degree and other sizes."""
    cfg = lab.TrialConfig(conjecture=2, degrees=(degree,), n_range=(n, n), nhat_extra=(extra, extra))
    draws = [lab._draw_conjecture2(cfg, degree, i) for i in range(4 * count)]
    draws = [d for d in draws if d.domain.size - 2 == n + extra][:count]
    assert len(draws) == count
    mixed = lab.TrialConfig(conjecture=2, degrees=(degree,), n_range=(degree + 1, 40), nhat_extra=(0, 10))
    return draws + [lab._draw_conjecture2(mixed, degree, i) for i in range(count)]


def _padded_batch(draws, degree):
    t, counts = lab._padded([d.params for d in draws], 1.0)
    domains, sizes = lab._padded([d.domain for d in draws], np.inf)
    params = pk.ParameterValues(t, shifted=degree % 2 == 0, lengths=counts)
    return la.assemble_closed_system(params, sc.cyclic_knot_vector(domains, degree, sizes), sizes - 2)


@pytest.mark.parametrize("degree,n,extra", [(2, 6, 0), (3, 17, 0), (4, 40, 0), (5, 23, 7), (3, 9, 10)])
def test_stacked_assembly_and_svd_equal_one_matrix_at_a_time(degree, n, extra):
    # 24 matrices of one shape inside a padded batch of mixed shapes
    draws = _harness_draws(degree, n, extra, 24)
    batch = _padded_batch(draws, degree)
    stack = batch[:24, : n + 1 + degree, : n + extra + degree + 1]
    report = la.rank_report(stack, 1e-12)
    assert report.singular_values.shape == (24, n + 1 + degree)
    for b, draw in enumerate(draws):
        parity = pk.ParameterValues(draw.params, shifted=degree % 2 == 0)
        nhat = draw.domain.size - 2
        matrix = la.assemble_closed_system(parity, sc.cyclic_knot_vector(draw.domain, degree), nhat)
        assert matrix.tobytes() == batch[b, : matrix.shape[0], : matrix.shape[1]].tobytes()
        assert not batch[b, matrix.shape[0]:].any() and not batch[b, :, matrix.shape[1]:].any()
        if b < 24:
            one = la.rank_report(matrix, 1e-12)
            assert one.singular_values.tobytes() == report.singular_values[b].tobytes()
            assert (one.rank, one.condition) == (report.rank[b], report.condition[b])
            assert isinstance(one.rank, int) and isinstance(one.condition, float)


@st.composite
def mixed_batches(draw):
    """(conjecture, draws): harness draws of one degree with mixed n and n̂,
    under any sampling law, and the index of a matrix whose SVD is made to
    fail (or None)."""
    conjecture = draw(st.sampled_from([1, 2]))
    degree = draw(st.integers(2, 5))
    lo = draw(st.integers(degree + 1, 12))
    cfg = lab.TrialConfig(
        conjecture=conjecture, degrees=(degree,), n_range=(lo, draw(st.integers(lo, 14))),
        nhat_extra=(0, draw(st.integers(0, 6))), seed=draw(st.integers(0, 2**32 - 1)),
        t_sampling=draw(st.sampled_from([lab.UNIFORM_GAP, lab.LOGNORMAL_GAP])),
        d_sampling=draw(st.sampled_from([lab.INSIDE, lab.VIOLATING])),
    )
    sample = lab._draw_conjecture1 if conjecture == 1 else lab._draw_conjecture2
    count = draw(st.integers(1, 12))
    draws = [sample(cfg, degree, i) for i in range(count)]
    return conjecture, draws, draw(st.none() | st.integers(0, count - 1))


def _alone(draw, conjecture, rank_tol):
    """A draw's [N; A] and record from the one-trial paths: the 1-D
    collocation kernel, a single-matrix SVD and the public condition
    checkers."""
    p, nhat = draw.degree, draw.domain.size - 2
    parity = pk.ParameterValues(draw.params, shifted=p % 2 == 0)
    kv = sc.cyclic_knot_vector(draw.domain, p)
    wrap = np.zeros((p, kv.n_basis))
    wrap[np.arange(p), np.arange(p)] = 1.0
    wrap[np.arange(p), nhat + 1 + np.arange(p)] = -1.0
    matrix = np.concatenate([_kernels.collocation_matrix(kv.knots, p, kv.n_basis, parity.values), wrap])
    report = la.rank_report(matrix, rank_tol)
    s = report.singular_values
    summary = (float(s[-1]), float(s[0]), report.rank, report.rank == matrix.shape[0])
    agrees = None
    if conjecture == 1:
        condition = pk.check_conjecture1(parity, draw.domain, p)
    else:
        condition = pk.check_conjecture2(parity, draw.domain, p)[0]
        if parity.n <= lab.EXHAUSTIVE_LIMIT_N:
            agrees = condition == pk.exhaustive_witness_exists(parity, draw.domain, p)
    record = lab.TrialRecord(p, draw.index, parity.n, nhat, condition, *summary, agrees, draw.epsilon)
    return matrix, record


@settings(deadline=None, max_examples=60)
@given(mixed_batches())
def test_padded_pass_equals_one_draw_at_a_time(case):
    conjecture, draws, failing = case
    alone = [_alone(d, conjecture, 1e-12) for d in draws]
    poisoned = None if failing is None else alone[failing][0].tobytes()
    real = lab.rank_report

    def flaky(matrices, rel_tol):
        stack = matrices.reshape((-1,) + matrices.shape[-2:])
        if any(m.tobytes() == poisoned for m in stack):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(matrices, rel_tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "rank_report", flaky)
        records = lab._measure_degree(draws, conjecture, 1e-12)
    for b, ((_matrix, one), record) in enumerate(zip(alone, records)):
        if b != failing:
            assert record == one
            continue
        assert (record.sigma_min, record.rank, record.full_rank) == (0.0, 0, False)
        assert np.isnan(record.sigma_max)
        assert (record.degree, record.index, record.n, record.nhat, record.condition) == (
            one.degree, one.index, one.n, one.nhat, one.condition)


def test_conjecture2_run_makes_one_basis_call_per_degree_and_one_svd_per_shape(monkeypatch):
    basis_calls, svd_shapes = [], []
    basis, svd = _kernels.basis_funs, np.linalg.svd

    def counting_basis(*args):
        basis_calls.append(1)
        return basis(*args)

    def counting_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(_kernels, "basis_funs", counting_basis)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cfg = lab.TrialConfig(conjecture=2, trials=125, seed=3)
    records = lab.run_conjecture2_trials(cfg).records
    assert len(basis_calls) == len(cfg.degrees)
    shapes = {(r.degree, r.n + 1 + r.degree, r.nhat + r.degree + 1) for r in records}
    assert len(svd_shapes) == len(shapes) < len(records)


def test_stacked_rank_report_edge_rows():
    stack = np.zeros((3, 4, 5))
    stack[1, :, :4] = np.eye(4)
    stack[2, 0, 0] = 1.0
    report = la.rank_report(stack, 1e-12)
    assert report.rank.tolist() == [0, 4, 1]
    assert report.condition.tolist() == [np.inf, 1.0, np.inf]


def test_failed_stacked_svd_is_redone_one_matrix_at_a_time(monkeypatch):
    cfg = lab.TrialConfig(trials=40, seed=12, degrees=(3,), n_range=(6, 9))
    clean = lab.run_conjecture1_trials(cfg).records
    real = lab.rank_report
    calls = []

    def flaky(matrix, rel_tol):
        calls.append(np.ndim(matrix))
        if np.ndim(matrix) == 3 or calls.count(2) == 2:  # every stack, and one single matrix
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(matrix, rel_tol)

    monkeypatch.setattr(lab, "rank_report", flaky)
    records = lab.run_conjecture1_trials(cfg).records
    assert calls.count(2) == len(records) == len(clean)  # each matrix redone once
    changed = [(a, b) for a, b in zip(clean, records) if a != b]
    assert len(changed) == 1
    before, after = changed[0]
    assert (after.sigma_min, after.rank, after.full_rank) == (0.0, 0, False)
    assert np.isnan(after.sigma_max)
    assert (after.degree, after.index, after.n, after.condition) == (
        before.degree, before.index, before.n, before.condition)
