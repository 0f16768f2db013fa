"""Randomized empirical validation of the closed-interpolation conditions.

Each trial samples parameter values, places domain knots (inside the
parity-appropriate brackets, or deliberately violating them), assembles the
closed system matrix and measures its singular values.  A counterexample is
a trial whose knots satisfy the sufficient condition but whose matrix is
rank-deficient at the configured tolerance; the harness hunts for them and
reports aggregate statistics.

Trials are reproducible and order-independent: trial (degree, index) draws
from ``Philox(SeedSequence(entropy=seed, spawn_key=(degree, index)))``.  A
run first draws every trial of a degree from its own stream, then measures
all the draws of that degree in one pass over a padded batch, whatever their
n and n̂: one check of the domains and parameters, one cyclic extension, one
[N; A] assembly and one condition test for the whole batch, and one stacked
SVD per distinct matrix shape.  Every step works row by row with the
arithmetic of a single trial, and each SVD sees the matrices themselves, not
their padding, so a record does not depend on which trials share its batch.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .linalg_solve import assemble_closed_system, rank_report
from .param_knots import (
    ParameterValues,
    bracket_bounds,
    exhaustive_witness_exists,
    greedy_witness_scan,
    knots_inside_brackets,
)
from .spline_core import cyclic_knot_vector
from .errors import InvalidInputError

GENERATOR_ID = (
    "numpy.random.Philox(4x64-10), one stream per trial via "
    "SeedSequence(entropy=seed, spawn_key=(degree, trial))"
)

UNIFORM_GAP = "uniform-gap"
LOGNORMAL_GAP = "lognormal-gap"
INSIDE = "inside"
VIOLATING = "violating"

# Exhaustive witness search is cross-checked against the greedy scan up to
# this many data points.
EXHAUSTIVE_LIMIT_N = 8


@dataclass(frozen=True)
class TrialConfig:
    """Sampling plan for a batch of trials; ``trials`` counts per degree."""

    conjecture: int = 1
    degrees: Tuple[int, ...] = (2, 3, 4, 5)
    n_range: Tuple[int, int] = (6, 40)
    nhat_extra: Tuple[int, int] = (1, 10)
    trials: int = 1000
    seed: int = 0
    rank_tol: float = 1e-12
    t_sampling: str = UNIFORM_GAP
    d_sampling: str = INSIDE

    def __post_init__(self):
        if self.conjecture not in (1, 2):
            raise InvalidInputError("conjecture must be 1 or 2")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if not self.degrees or any(p < 2 for p in self.degrees):
            raise InvalidInputError("degrees must be >= 2")
        if len(set(self.degrees)) != len(self.degrees):
            raise InvalidInputError("degrees must not repeat")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")
        if self.n_range[0] > self.n_range[1] or self.nhat_extra[0] > self.nhat_extra[1]:
            raise InvalidInputError("empty sampling range")
        if self.n_range[1] < max(self.degrees) + 1:
            raise InvalidInputError(
                f"n_range upper bound must be >= max(degrees) + 1 = {max(self.degrees) + 1}"
            )
        if self.nhat_extra[0] < 0:
            raise InvalidInputError("nhat_extra must be non-negative")
        if self.t_sampling not in (UNIFORM_GAP, LOGNORMAL_GAP):
            raise InvalidInputError(f"unknown parameter sampling law {self.t_sampling!r}")
        if self.d_sampling not in (INSIDE, VIOLATING):
            raise InvalidInputError(f"unknown knot sampling law {self.d_sampling!r}")
        if not 0.0 < self.rank_tol < 1.0:  # also rejects NaN
            raise InvalidInputError("rank_tol must lie in (0, 1)")


@dataclass(frozen=True)
class TrialRecord:
    """One measured configuration."""

    degree: int
    index: int
    n: int
    nhat: int
    condition: bool
    sigma_min: float
    sigma_max: float
    rank: int
    full_rank: bool
    greedy_agrees: Optional[bool] = None  # vs exhaustive search (small n only)
    epsilon: Optional[float] = None       # boundary-stress distance

    @property
    def sigma_ratio(self):
        return self.sigma_min / self.sigma_max if self.sigma_max > 0 else 0.0

    @property
    def is_counterexample(self):
        return self.condition and not self.full_rank


@dataclass
class TrialReport:
    """All records of a run plus the aggregates the report text prints."""

    config: TrialConfig
    records: List[TrialRecord]
    generator: str = GENERATOR_ID

    @property
    def counterexamples(self):
        return [r for r in self.records if r.is_counterexample]

    @property
    def condition_true(self):
        return [r for r in self.records if r.condition]

    def min_sigma_ratio(self):
        ratios = [r.sigma_ratio for r in self.condition_true]
        return min(ratios) if ratios else float("nan")

    def greedy_checked(self):
        return [r for r in self.records if r.greedy_agrees is not None]

    def degree_summary(self, degree):
        recs = [r for r in self.records if r.degree == degree]
        cond = [r for r in recs if r.condition]
        ratios = [r.sigma_ratio for r in cond]
        return {
            "trials": len(recs),
            "condition_true": len(cond),
            "full_rank_of_condition_true": sum(r.full_rank for r in cond),
            "violations_still_full_rank": sum(r.full_rank for r in recs if not r.condition),
            "violations": sum(not r.condition for r in recs),
            "counterexamples": sum(r.is_counterexample for r in recs),
            "min_sigma_ratio": min(ratios) if ratios else float("nan"),
        }


def _trial_rng(seed, degree, index):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(degree, index)))
    )


def _sample_parameters(rng, n, law):
    """Unshifted parameter values t_0 = 0 < ... < t_n < 1."""
    if law == UNIFORM_GAP:
        gaps = rng.uniform(0.05, 1.0, n + 1)
    else:
        gaps = np.exp(rng.normal(0.0, 1.0, n + 1))
    gaps = gaps / gaps.sum()
    gaps = np.maximum(gaps, 1e-4)  # keep bracket widths numerically meaningful
    gaps = gaps / gaps.sum()
    return np.concatenate([[0.0], np.cumsum(gaps[:-1])])


def _sample_inside(rng, lo, hi):
    width = hi - lo
    delta = 1e-6 * width + 1e-9
    return rng.uniform(lo + delta, hi - delta)


def _parity_draw(rng, n, law, degree):
    """Parameters in the parity form of the condition (shifted for even
    degree, by the arithmetic of ``shift_parameters``) and their brackets."""
    t = _sample_parameters(rng, n, law)
    if degree % 2 == 0:
        t = t + (1.0 - t[-1]) / 2.0
    return (t,) + bracket_bounds(t, degree)


class _Draw(NamedTuple):
    """One sampled configuration, before any measurement."""

    degree: int
    index: int
    params: np.ndarray  # parity-form parameter values
    domain: np.ndarray
    epsilon: Optional[float] = None


def _draw_conjecture1(cfg, degree, index):
    rng = _trial_rng(cfg.seed, degree, index)
    n = int(rng.integers(max(cfg.n_range[0], degree + 1), cfg.n_range[1] + 1))
    t, lo, hi = _parity_draw(rng, n, cfg.t_sampling, degree)
    interior = _sample_inside(rng, lo, hi)
    if cfg.d_sampling == VIOLATING:
        j = int(rng.integers(1, n + 1))
        upper = interior[j] if j < n else 1.0  # next knot bounds the excursion
        interior[j - 1] = hi[j - 1] + rng.uniform(0.1, 0.9) * (upper - hi[j - 1])
    return _Draw(degree, index, t, np.concatenate([[0.0], interior, [1.0]]))


def _draw_conjecture2(cfg, degree, index):
    rng = _trial_rng(cfg.seed, degree, index)
    n = int(rng.integers(max(cfg.n_range[0], degree + 1), cfg.n_range[1] + 1))
    extra = int(rng.integers(cfg.nhat_extra[0], cfg.nhat_extra[1] + 1))
    t, lo, hi = _parity_draw(rng, n, cfg.t_sampling, degree)
    if cfg.d_sampling == VIOLATING:
        # every interior knot below the first bracket: no feasible subsequence
        interior = np.sort(rng.uniform(1e-4, lo[0] * 0.9, n + extra))
    else:
        witness = _sample_inside(rng, lo, hi)
        distractors = rng.uniform(0.002, 0.998, extra)
        keep = distractors[np.abs(witness[:, None] - distractors).min(axis=0) > 1e-5]
        interior = np.sort(np.concatenate([witness, keep]))
        tight = np.diff(interior) <= 1e-6
        if np.any(tight):  # drop distractors that crowd a witness knot
            interior = np.delete(interior, np.nonzero(tight)[0] + 1)
    return _Draw(degree, index, t, np.concatenate([[0.0], interior, [1.0]]))


def _stack_summaries(matrices, rank_tol):
    """(σ_min, σ_max, rank, full rank) of each matrix of an equal-shape
    stack, from one stacked SVD.  If that SVD fails, the stack is redone one
    matrix at a time, and only a matrix whose own SVD fails records
    (0.0, nan, 0, False).
    """
    try:
        report = rank_report(matrices, rank_tol)
    except np.linalg.LinAlgError:
        if matrices.ndim == 2:
            return [(0.0, float("nan"), 0, False)]
        return [out for matrix in matrices for out in _stack_summaries(matrix, rank_tol)]
    s = np.atleast_2d(report.singular_values)
    rows = matrices.shape[-2]
    return [
        (float(smin), float(smax), int(rank), int(rank) == rows)
        for smin, smax, rank in zip(s[:, -1], s[:, 0], np.atleast_1d(report.rank))
    ]


def _singular_summaries(matrices, rows, cols, rank_tol):
    """:func:`_stack_summaries` of matrix b = ``matrices[b, :rows[b],
    :cols[b]]`` of a zero-padded batch: one stacked SVD per distinct shape,
    on the matrices themselves, so each gets the bits a call on it alone
    gives."""
    shapes = defaultdict(list)
    for b, shape in enumerate(zip(rows.tolist(), cols.tolist())):
        shapes[shape].append(b)
    out = [None] * len(matrices)
    for (r, c), members in shapes.items():
        for b, summary in zip(members, _stack_summaries(matrices[members, :r, :c], rank_tol)):
            out[b] = summary
    return out


def _padded(rows, fill):
    """Rows of different lengths as one array padded with ``fill``, and
    their lengths."""
    lengths = np.array([row.size for row in rows])
    out = np.full((len(rows), lengths.max()), fill)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    return out, lengths


def _measure_degree(draws, conjecture, rank_tol):
    """Records of the draws of one degree, in draw order, from one pass over
    the padded batch of all of them.

    Building the cyclic knot vectors checks every domain as
    ``validate_domain_knots`` does, and ``ParameterValues`` checks every
    parameter row.  The condition is the bracket test of
    ``check_conjecture1`` (conjecture 1) or the greedy scan of
    ``check_conjecture2`` (conjecture 2), each row reduced over its own
    brackets.  For conjecture 2 with n <= ``EXHAUSTIVE_LIMIT_N`` each
    trial's verdict is also checked against exhaustive search.
    """
    degree = draws[0].degree
    shifted = degree % 2 == 0
    # 1.0 after t_n closes each row's last odd-degree bracket at (t_n + 1)/2
    t, counts = _padded([draw.params for draw in draws], 1.0)
    # +inf keeps every domain row, and the candidates of the scan, sorted
    domains, sizes = _padded([draw.domain for draw in draws], np.inf)
    n, nhat = counts - 1, sizes - 2
    params = ParameterValues(t, shifted=shifted, lengths=counts)
    kv = cyclic_knot_vector(domains, degree, lengths=sizes)
    matrices = assemble_closed_system(params, kv, nhat)
    summaries = _singular_summaries(matrices, n + 1 + degree, nhat + degree + 1, rank_tol)
    lo, hi = bracket_bounds(t, degree)
    if conjecture == 1:
        conditions = knots_inside_brackets(domains[:, 1: lo.shape[1] + 1], lo, hi, n)
    else:
        conditions = greedy_witness_scan(domains[:, 1:], lo, hi, n, nhat)[0]
    records = []
    for draw, k, khat, condition, summary in zip(
        draws, n.tolist(), nhat.tolist(), conditions.tolist(), summaries
    ):
        agrees = None
        if conjecture == 2 and k <= EXHAUSTIVE_LIMIT_N:
            parity = ParameterValues(draw.params, shifted=shifted)
            agrees = condition == exhaustive_witness_exists(parity, draw.domain, degree)
        records.append(TrialRecord(degree, draw.index, k, khat, condition, *summary, agrees, draw.epsilon))
    return records


def _run(cfg, draw, threads=1):
    """Draw and measure ``cfg.trials`` trials per degree.  ``threads`` is
    checked and otherwise ignored: the measurement is one batched pass.  The
    keyword is kept because the benchmark in ``perfbench/`` passes it."""
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    records = []
    for degree in cfg.degrees:  # one degree at a time bounds the draws held
        draws = [draw(cfg, degree, i) for i in range(cfg.trials)]
        records.extend(_measure_degree(draws, cfg.conjecture, cfg.rank_tol))
    return TrialReport(cfg, records)


def run_conjecture1_trials(cfg, threads=1):
    """Square systems with knots sampled against the invertibility condition."""
    if cfg.conjecture != 1:
        cfg = TrialConfig(**{**cfg.__dict__, "conjecture": 1})
    return _run(cfg, _draw_conjecture1, threads)


def run_conjecture2_trials(cfg, threads=1):
    """Rectangular systems with oversized domain-knot sets; the greedy
    witness scan is cross-checked against exhaustive search for small n."""
    if cfg.conjecture != 2:
        cfg = TrialConfig(**{**cfg.__dict__, "conjecture": 2})
    return _run(cfg, _draw_conjecture2, threads)


def boundary_stress(cfg, epsilons):
    """Probe the sharpness of the strict inequalities.

    For each degree, one knot of an otherwise-anchored configuration is
    placed at absolute distance epsilon inside its lower bracket endpoint;
    epsilon = 0 puts it exactly on the endpoint.  Only measurements are
    reported, no pass/fail semantics.
    """
    eps = [float(e) for e in epsilons]
    if any(e < 0 for e in eps):
        raise InvalidInputError("epsilon ladder must be non-negative")
    records = []
    for degree in cfg.degrees:
        draws = []
        rng = _trial_rng(cfg.seed, degree, 0)
        n = int(max((cfg.n_range[0] + cfg.n_range[1]) // 2, degree + 1))
        t, lo, hi = _parity_draw(rng, n, cfg.t_sampling, degree)
        mid = (lo + hi) / 2.0
        j = n // 2
        for k, e in enumerate(eps):
            interior = mid.copy()
            interior[j] = lo[j] + e
            domain = np.concatenate([[0.0], interior, [1.0]])
            if np.any(np.diff(domain) <= 0):
                continue  # epsilon pushed the knot past a neighbour
            draws.append(_Draw(degree, k, t, domain, e))
        if draws:
            records.extend(_measure_degree(draws, 1, cfg.rank_tol))
    return TrialReport(cfg, records)
