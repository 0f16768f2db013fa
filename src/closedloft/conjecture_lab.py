"""Randomized empirical validation of the closed-interpolation conditions.

Each trial samples parameter values, places domain knots (inside the
parity-appropriate brackets, or deliberately violating them), assembles the
closed system matrix and measures its singular values.  A counterexample is
a trial whose knots satisfy the sufficient condition but whose matrix is
rank-deficient at the configured tolerance; the harness hunts for them and
reports aggregate statistics.

Trials are reproducible and order-independent: trial (degree, index) draws
from ``Philox(SeedSequence(entropy=seed, spawn_key=(degree, index)))``.  A
run works one degree at a time.  Each trial's generator makes only the calls
that consume its stream, in a fixed order: ``integers`` for n (and for the
extra knots), then one ``random`` or ``normal`` call per raw array.  The
rest of the drawing runs once over the padded batch of the degree:
normalizing the gaps, the parity shift, the brackets, placing the knots and
filtering and sorting them.  ``uniform(a, b)`` is drawn as a + (b - a)·random(),
which is how numpy computes it, and each row's sums keep the pairwise order
of a sum over that row alone, so every row gets the bits of its trial drawn
alone.  The measurement is one pass over the same batch, whatever the n and
n̂ of its rows: one check of the domains and parameters, one cyclic
extension, one [N; A] assembly and one condition test, one stacked SVD per
distinct matrix shape into one zero-padded array of singular values, and one
rank reduction (``singular_value_rank``) over that array.  Each SVD sees the
matrices themselves, not their padding, so a record does not depend on
which trials share its batch.
"""

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .linalg_solve import assemble_closed_system, singular_value_rank
from .param_knots import (
    ParameterValues,
    bracket_bounds,
    exhaustive_witness_exists,
    greedy_witness_scan,
    knots_inside_brackets,
)
from .spline_core import cyclic_knot_vector, row_prefix
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


class _Batch(NamedTuple):
    """The sampled configurations of one degree as a padded batch, before
    any measurement."""

    degree: int
    index: list          # trial index of each row
    params: np.ndarray   # parity-form parameters, padded with 1.0
    counts: np.ndarray   # n + 1 per row
    domains: np.ndarray  # domain knots, padded with +inf
    sizes: np.ndarray    # n̂ + 2 per row
    epsilon: Optional[list] = None


def _streams(cfg, degree):
    """Each trial's stream of the degree, and its first draw, the trial's n."""
    rngs = [_trial_rng(cfg.seed, degree, i) for i in range(cfg.trials)]
    low, high = max(cfg.n_range[0], degree + 1), cfg.n_range[1] + 1
    return rngs, np.array([rng.integers(low, high) for rng in rngs])


def _randoms(rngs, lengths, normal=False):
    """Row b: one ``random`` call (or ``normal(0, 1)``) of lengths[b] draws
    on stream b, then zeros."""
    out = np.zeros((len(rngs), int(lengths.max())))
    for rng, row, k in zip(rngs, out, lengths.tolist()):
        if normal:
            row[:k] = rng.normal(0.0, 1.0, k)
        else:
            rng.random(out=row[:k])
    return out


def _row_sums(a, lengths):
    """Row b's sum over its first lengths[b] entries, in the pairwise order
    numpy sums that many alone: one ``sum`` per distinct length."""
    out = np.empty(len(a))
    for k in np.unique(lengths).tolist():
        rows = lengths == k
        out[rows] = a[rows, :k].sum(axis=1)
    return out


def _parity_draws(rngs, n, law, degree):
    """Each stream's parameters t_0 = 0 < ... < t_n < 1 in the parity form
    of the degree (shifted for even degree, by the arithmetic of
    ``shift_parameters``), padded with 1.0, and their brackets."""
    counts = n + 1
    if law == UNIFORM_GAP:  # uniform(a, b) draws a + (b - a)·random()
        gaps = 0.05 + (1.0 - 0.05) * _randoms(rngs, counts)
    else:
        gaps = np.exp(_randoms(rngs, counts, normal=True))
    gaps = gaps / _row_sums(gaps, counts)[:, None]
    gaps = np.maximum(gaps, 1e-4)  # keep bracket widths numerically meaningful
    gaps = gaps / _row_sums(gaps, counts)[:, None]
    t = np.zeros_like(gaps)
    t[:, 1:] = np.cumsum(gaps[:, :-1], axis=1)
    if degree % 2 == 0:
        t = t + ((1.0 - t[np.arange(len(t)), n]) / 2.0)[:, None]
    t[~row_prefix(counts, t.shape[1])] = 1.0
    return (t, counts) + bracket_bounds(t, degree)


def _inside(rngs, lo, hi, n):
    """One draw per bracket strictly inside it, padded with +inf."""
    delta = 1e-6 * (hi - lo) + 1e-9
    a, b = lo + delta, hi - delta
    x = a + (b - a) * _randoms(rngs, n)
    x[~row_prefix(n, x.shape[1])] = np.inf
    return x


def _domains(interior, counts):
    """Domain knots 0, the first counts[b] interior knots of row b (sorted,
    +inf after them), 1, padded with +inf; and their sizes."""
    sizes = counts + 2
    out = np.full((len(interior), interior.shape[1] + 2), np.inf)
    out[:, 0] = 0.0
    out[:, 1:-1] = interior
    out[np.arange(len(out)), sizes - 1] = 1.0
    return out[:, : sizes.max(initial=0)], sizes


def _draw_conjecture1(cfg, degree):
    rngs, n = _streams(cfg, degree)
    t, counts, lo, hi = _parity_draws(rngs, n, cfg.t_sampling, degree)
    interior = _inside(rngs, lo, hi, n)
    if cfg.d_sampling == VIOLATING:
        j = np.array([rng.integers(1, k + 1) for rng, k in zip(rngs, n.tolist())])
        factor = 0.1 + (0.9 - 0.1) * np.array([rng.random() for rng in rngs])
        rows = np.arange(len(rngs))
        # the next knot bounds the excursion
        upper = np.where(j < n, interior[rows, np.minimum(j, interior.shape[1] - 1)], 1.0)
        edge = hi[rows, j - 1]
        interior[rows, j - 1] = edge + factor * (upper - edge)
    return _Batch(degree, list(range(cfg.trials)), t, counts, *_domains(interior, n))


def _draw_conjecture2(cfg, degree):
    rngs, n = _streams(cfg, degree)
    extra = np.array([rng.integers(cfg.nhat_extra[0], cfg.nhat_extra[1] + 1) for rng in rngs])
    t, counts, lo, hi = _parity_draws(rngs, n, cfg.t_sampling, degree)
    if cfg.d_sampling == VIOLATING:
        # every interior knot below the first bracket: no feasible subsequence
        # from (1e-4, 0.9·lo_0), or (0.45·lo_0, 0.9·lo_0) where 0.9·lo_0 < 1e-4
        count = n + extra
        high = lo[:, :1] * 0.9
        low = np.where(high < 1e-4, 0.5 * high, 1e-4)
        interior = low + (high - low) * _randoms(rngs, count)
        interior[~row_prefix(count, interior.shape[1])] = np.inf
        interior.sort(axis=1)
    else:
        witness = _inside(rngs, lo, hi, n)
        distractors = 0.002 + (0.998 - 0.002) * _randoms(rngs, extra)
        near = np.abs(witness[:, :, None] - distractors[:, None, :]).min(axis=1)
        keep = (near > 1e-5) & row_prefix(extra, distractors.shape[1])
        interior = np.sort(np.concatenate([witness, np.where(keep, distractors, np.inf)], axis=1))
        # drop distractors that crowd a witness knot
        with np.errstate(invalid="ignore"):  # inf - inf past a row's knots
            tight = np.diff(interior, axis=1) <= 1e-6
        interior[:, 1:][tight] = np.inf
        interior.sort(axis=1)
        count = n + keep.sum(axis=1) - tight.sum(axis=1)
    return _Batch(degree, list(range(cfg.trials)), t, counts, *_domains(interior, count))


def _singular_values(matrices, rows, cols):
    """Singular values of matrix b = ``matrices[b, :rows[b], :cols[b]]`` of
    a zero-padded batch, as one zero-padded array, and a mask of the
    matrices whose SVD failed.  One stacked SVD per distinct shape runs on
    the matrices themselves, so each gets the bits a call on it alone gives.
    If a stacked SVD fails, its matrices are redone one at a time.
    """
    out = np.zeros((len(matrices), int(np.minimum(rows, cols).max())))
    failed = np.zeros(len(matrices), dtype=bool)
    key = rows * (int(cols.max()) + 1) + cols
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    for members in np.split(order, starts[1:]):
        r, c = int(rows[members[0]]), int(cols[members[0]])
        try:
            out[members, : min(r, c)] = np.linalg.svd(matrices[members, :r, :c], compute_uv=False)
        except np.linalg.LinAlgError:
            for b in members.tolist():
                try:
                    out[b, : min(r, c)] = np.linalg.svd(matrices[b, :r, :c], compute_uv=False)
                except np.linalg.LinAlgError:
                    failed[b] = True
    return out, failed


def _measure_degree(batch, conjecture, rank_tol):
    """Records of a batch of draws of one degree, in row order, from one
    pass over it.

    Building the cyclic knot vectors checks every domain as
    ``validate_domain_knots`` does, and ``ParameterValues`` checks every
    parameter row.  The condition is the bracket test of
    ``check_conjecture1`` (conjecture 1) or the greedy scan of
    ``check_conjecture2`` (conjecture 2), each row reduced over its own
    brackets.  σ_min, σ_max and the rank come from one
    ``singular_value_rank`` reduction over every row's singular values; a
    matrix whose SVD fails records (0.0, nan, 0, False).  For conjecture 2 with n <=
    ``EXHAUSTIVE_LIMIT_N`` each trial's verdict is also checked against
    exhaustive search.
    """
    degree, t, counts, domains, sizes = batch.degree, batch.params, batch.counts, batch.domains, batch.sizes
    shifted = degree % 2 == 0
    n, nhat = counts - 1, sizes - 2
    params = ParameterValues(t, shifted=shifted, lengths=counts)
    kv = cyclic_knot_vector(domains, degree, lengths=sizes)
    rows, cols = n + 1 + degree, nhat + degree + 1
    s, failed = _singular_values(assemble_closed_system(params, kv, nhat), rows, cols)
    rank, smax, smin, _ = singular_value_rank(s, rank_tol, np.minimum(rows, cols))
    rank[failed], smax[failed], smin[failed] = 0, np.nan, 0.0
    lo, hi = bracket_bounds(t, degree)
    if conjecture == 1:
        conditions = knots_inside_brackets(domains[:, 1: lo.shape[1] + 1], lo, hi, n)
    else:
        conditions = greedy_witness_scan(domains[:, 1:], lo, hi, n, nhat)[0]
    epsilon = batch.epsilon or [None] * len(t)
    records = []
    for b, (index, k, khat, condition, low, high, r, full, eps) in enumerate(zip(
        batch.index, n.tolist(), nhat.tolist(), conditions.tolist(), smin.tolist(), smax.tolist(),
        rank.tolist(), (rank == rows).tolist(), epsilon,
    )):
        agrees = None
        if conjecture == 2 and k <= EXHAUSTIVE_LIMIT_N:
            parity = ParameterValues(t[b, : k + 1], shifted=shifted)
            agrees = condition == exhaustive_witness_exists(parity, domains[b, : khat + 2], degree)
        records.append(TrialRecord(degree, index, k, khat, condition, low, high, r, full, agrees, eps))
    return records


def _run(cfg, draw, threads=1):
    """Draw and measure ``cfg.trials`` trials per degree.  ``threads`` is
    checked and otherwise ignored: the measurement is one batched pass.  The
    keyword is kept because the benchmark in ``perfbench/`` passes it."""
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    records = []
    for degree in cfg.degrees:  # one degree at a time bounds the draws held
        records.extend(_measure_degree(draw(cfg, degree), cfg.conjecture, cfg.rank_tol))
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
        n = np.array([max((cfg.n_range[0] + cfg.n_range[1]) // 2, degree + 1)])
        t, counts, lo, hi = _parity_draws([_trial_rng(cfg.seed, degree, 0)], n, cfg.t_sampling, degree)
        interior = np.repeat((lo + hi) / 2.0, len(eps), axis=0)
        j = int(n[0]) // 2
        interior[:, j] = lo[0, j] + np.array(eps)
        domains, sizes = _domains(interior, np.repeat(n, len(eps)))
        kept = np.flatnonzero(~np.any(np.diff(domains, axis=1) <= 0, axis=1))
        if kept.size:  # epsilon may push the knot past a neighbour
            batch = _Batch(degree, kept.tolist(), np.repeat(t, kept.size, axis=0), np.repeat(counts, kept.size),
                           domains[kept], sizes[kept], [eps[k] for k in kept.tolist()])
            records.extend(_measure_degree(batch, 1, cfg.rank_tol))
    return TrialReport(cfg, records)
