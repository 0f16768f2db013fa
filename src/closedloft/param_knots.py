"""Parameter assignment and domain-knot selection for closed (and open)
point sequences, plus the sufficient-condition checkers used to guarantee
invertible / full-rank closed collocation systems.

The closed interpolation condition has two parity forms.  For odd degree the
domain knots must lie strictly between consecutive chord midpoints of the
parameter values; for even degree the parameters are first shifted by half
the wrap gap (t̃_i = t_i + d_n/2) and each domain knot must lie strictly
between consecutive shifted parameters.  Both forms reduce to the same
bracket test (:func:`bracket_bounds`).  :func:`parity_form` picks the form
for a degree and scales the brackets around their anchors by ``per``; the
knot selection procedures choose inside those scaled brackets.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import searchsorted_right
from .errors import ContractError, InvalidInputError
from .spline_core import (
    KNOT_TOL,
    as_points,
    check_lengths,
    clamped_knot_vector,
    row_prefix,
    row_window,
    validate_domain_knots,
)

NATURAL = "natural"
AVERAGING = "averaging"
SHIFTING = "shifting"

# Strictness margin for the open-interval tests below: a knot this close to a
# bracket endpoint counts as violating the (strict) condition.
STRICT_TOL = KNOT_TOL


@dataclass(frozen=True)
class ParameterValues:
    """Assigned parameters t_0 .. t_n (or the shifted t̃_i for even degree).

    With ``lengths``, ``values`` is a padded 2-D batch: row b holds
    lengths[b] parameters, then padding that is not checked, and ``n`` is one
    value per row.  Every row must pass the checks.
    """

    values: np.ndarray
    shifted: bool = False
    lengths: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != (1 if self.lengths is None else 2) or v.shape[-1] < 2:
            raise InvalidInputError("parameter values must be a 1-D sequence, length >= 2")
        if self.lengths is None:
            live, last, falls = v, v[-1], v[1:] <= v[:-1]
        else:
            n = check_lengths(self.lengths, v.shape[0], v.shape[1], 2)
            object.__setattr__(self, "lengths", n)
            valid = row_prefix(n, v.shape[1])
            live, last = v[valid], row_window(v, n - 1, 1)
            falls = (v[:, 1:] <= v[:, :-1]) & valid[:, 1:]
        if not np.isfinite(live).all():
            raise InvalidInputError("parameter values must be finite")
        if falls.any():  # finite, so the same as diff <= 0
            raise InvalidInputError("parameter values must be strictly increasing")
        if self.shifted:
            if (v[..., 0] <= 0.0).any() or (last >= 1.0).any():
                raise InvalidInputError("shifted parameters must lie strictly inside (0, 1)")
        else:
            if (v[..., 0] != 0.0).any():
                raise InvalidInputError("unshifted parameters must start at t_0 = 0")
            if (last > 1.0).any():
                raise InvalidInputError("parameters must not exceed 1")

    @property
    def n(self):
        return self.values.shape[-1] - 1 if self.lengths is None else self.lengths - 1

    def __len__(self):
        return self.values.shape[-1]


def _check_chords(chords, t, where=""):
    """Reject a zero chord, or one too short to separate the parameters
    ``t`` of its two points; the error names the chord's first point."""
    if (chords == 0.0).any():
        raise InvalidInputError(
            f"coincident consecutive points at index {np.argmax(chords == 0.0)}{where}"
        )
    if (t[1:] <= t[:-1]).any():
        raise InvalidInputError(
            f"parameters coincide at index {np.argmax(t[1:] <= t[:-1])}{where}: "
            "the chord to the next point is too short"
        )


def closed_parameters(points):
    """Chord-length parameters for a closed contour.

    t_0 = 0 and t_i is the cumulative chord length over the total, with the
    wrap chord from the last point back to the first included in the total,
    so t_n < 1.  The wrap chord's share must also raise t_n: a share that
    t_n absorbs leaves the wrap gap 1 - t_n to the rounding of the sums.
    """
    pts = as_points(points, min_count=3)
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    total = chords.sum()
    t = np.concatenate([[0.0], np.cumsum(chords[:-1])]) / total
    wrap_end = min(t[-1] + chords[-1] / total, 1.0)
    _check_chords(chords, np.append(t, wrap_end), " (wrap included)")
    return ParameterValues(t)


def open_parameters(points):
    """Chord-length parameters for an open run of points (t_n = 1)."""
    pts = as_points(points, min_count=2)
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(chords)]) / chords.sum()
    t[-1] = 1.0
    _check_chords(chords, t)
    return ParameterValues(t)


def shift_parameters(params):
    """t̃_i = t_i + d_n/2 with d_n = 1 - t_n; inputs must be closed-style."""
    if params.shifted:
        return params
    t = params.values
    if t[-1] >= 1.0:
        raise InvalidInputError("closed parameters require t_n < 1")
    return ParameterValues(t + (1.0 - t[-1]) / 2.0, shifted=True)


def averaging_knots_open(params, degree):
    """Clamped knot vector via knot averaging: u_i is the mean of the p
    preceding parameters, for i = p+1 .. n."""
    if params.shifted:
        raise ContractError("averaging knots expect unshifted open-style parameters")
    t = params.values
    if t[-1] != 1.0:
        raise InvalidInputError("open-style parameters must end at t_n = 1")
    p = int(degree)
    n = t.size - 1
    if n < p:
        raise InvalidInputError(f"need at least p+1 = {p + 1} parameters, got {n + 1}")
    # one window per row, each averaged in the order of its own mean
    windows = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(t, p)[1: n - p + 1])
    interior = windows.mean(axis=1)
    return clamped_knot_vector(np.concatenate([[0.0], interior, [1.0]]), p)


def closed_knots(params, method, degree):
    """Domain knots for closed interpolation by the natural, averaging or
    shifting method.

    Returns ``(domain_knots, params_out)``; the shifting method replaces the
    parameters by their shifted form, the other two return them unchanged.
    """
    if params.shifted:
        raise ContractError("closed_knots expects unshifted parameters")
    t = params.values
    if t[-1] >= 1.0:
        raise InvalidInputError("closed parameters require t_n < 1")
    p = int(degree)
    n = t.size - 1
    if n < p:
        raise InvalidInputError(f"need at least p+1 = {p + 1} parameters, got {n + 1}")
    if method == NATURAL:
        interior = t[1:]
    elif method == AVERAGING:
        ext = np.concatenate([t, [1.0]])
        interior = (ext[:-2] + ext[1:-1] + ext[2:]) / 3.0
    elif method == SHIFTING:
        dn = 1.0 - t[-1]
        # closed form of the half-gap running sum, extended through i = n so
        # every interior knot is defined: u_i = (t̃_{i-1} + t̃_i)/2
        interior = (t[:-1] + t[1:]) / 2.0 + dn / 2.0
        shifted = ParameterValues(t + dn / 2.0, shifted=True)
        domain = np.concatenate([[0.0], interior, [1.0]])
        return validate_domain_knots(domain), shifted
    else:
        raise InvalidInputError(f"unknown closed knot method {method!r}")
    domain = np.concatenate([[0.0], interior, [1.0]])
    return validate_domain_knots(domain), params


def condition_brackets(params, degree):
    """The open intervals (lo_i, hi_i), i = 1..n, that the interior domain
    knots must occupy for the closed interpolation condition.

    Odd degree takes unshifted parameters (chord-midpoint brackets); even
    degree takes shifted parameters (consecutive t̃ brackets).  The two forms
    coincide with the anchor bounds.
    """
    if int(degree) % 2 == 1:
        if params.shifted:
            raise ContractError("odd degree uses unshifted parameters")
    elif not params.shifted:
        raise ContractError("even degree uses shifted parameters")
    return bracket_bounds(params.values, degree)


def bracket_bounds(t, degree):
    """:func:`condition_brackets` from raw parameter values ``t`` (unshifted
    for odd degree, shifted for even), unchecked; over the last axis, so
    ``t`` may be a batch of rows.  A row padded with 1.0 after its t_n gets
    its own brackets first: for odd degree the last one ends at
    (t_n + 1)/2, as for the row alone."""
    if int(degree) % 2 == 1:
        ext = np.concatenate([t, np.ones(t.shape[:-1] + (1,))], axis=-1)
        mids = (ext[..., :-1] + ext[..., 1:]) / 2.0
        return mids[..., :-1], mids[..., 1:]
    return t[..., :-1], t[..., 1:]


# Selected knots keep this margin to their bracket endpoints so the outputs
# of the selection procedures always pass the strict condition checks.
SELECT_MARGIN = 10.0 * STRICT_TOL


def parity_form(params, degree, per=1.0):
    """Unshifted closed parameters in the parity form of the degree, with
    the anchors and the per-scaled brackets that knot selection works from.

    Returns ``(anchors, parity, a, b)``.  ``(anchors, parity)`` is
    ``closed_knots(params, NATURAL if degree is odd else SHIFTING, degree)``:
    odd degree keeps the parameters and anchors u_i = t_i, even degree
    shifts them and anchors at the midpoints of the shifted parameters.
    With (lo_i, hi_i) the :func:`bracket_bounds` of ``parity``, bracket i
    is a_i = (1-per)·u_i + per·lo_i to b_i = (1-per)·u_i + per·hi_i: per = 0
    shrinks it to its anchor, per = 1 opens it to the whole condition
    bracket.

    A row's brackets are disjoint and ordered: hi_{i-1} and lo_i are the
    same float, and rounding is monotone, so b_{i-1} <= a_i.
    """
    if not 0.0 <= per <= 1.0:
        raise InvalidInputError("per must lie in [0, 1]")
    anchors, parity = closed_knots(params, NATURAL if int(degree) % 2 == 1 else SHIFTING, degree)
    lo, hi = bracket_bounds(parity.values, degree)
    u = anchors[1:-1]
    return anchors, parity, (1.0 - per) * u + per * lo, (1.0 - per) * u + per * hi


def _all_within(ok, n):
    """``ok.all(axis=-1)``, or over the first n[b] entries of row b."""
    if n is not None:
        ok = ok | ~row_prefix(n, ok.shape[-1])
    return ok.all(axis=-1)


def knots_inside_brackets(interior, lo, hi, n=None):
    """The strict bracket test of :func:`check_conjecture1` over the last
    axis: every interior knot more than ``STRICT_TOL`` inside its bracket.
    For a padded batch, row b counts its first n[b] brackets only."""
    return _all_within((interior > lo + STRICT_TOL) & (interior < hi - STRICT_TOL), n)


def greedy_witness_scan(candidates, lo, hi, n=None, size=None):
    """The greedy scan of :func:`check_conjecture2` over the last axis.

    Bracket i takes the earliest candidate after the one bracket i-1 took
    that exceeds lo_i + ``STRICT_TOL``.  With s_i the count of candidates at
    or below that bound, the pick is idx_i = max(idx_{i-1} + 1, s_i), so
    idx_i - i is the running maximum of s_j - j.  Returns ``(ok, idx)``: ok
    when every pick exists and lies below hi_i - ``STRICT_TOL``.  The
    candidates must be sorted along the last axis, as domain knots are.

    For a padded batch, row b has n[b] brackets and size[b] candidates, and
    its candidates must stay sorted through the padding (pad with +inf).
    The running maximum only looks back, so the padding after a row's
    brackets does not change its picks.
    """
    width = candidates.shape[-1]
    size = width if size is None else np.asarray(size)[..., None]
    if width == 0:
        return np.zeros(lo.shape[:-1], dtype=bool), None
    k = np.arange(lo.shape[-1])
    idx = np.maximum.accumulate(searchsorted_right(candidates, lo + STRICT_TOL) - k, axis=-1) + k
    # row by row through the flattened candidates; a pick past the end reads
    # the last candidate of its row and fails on idx < size
    lead = idx.shape[:-1]
    rows = width * np.arange(int(np.prod(lead))).reshape(lead + (1,))
    picked = candidates.reshape(-1)[np.minimum(idx, size - 1) + rows]
    return _all_within((idx < size) & (picked < hi - STRICT_TOL), n), idx


def check_conjecture1(params, domain_knots, degree):
    """Whether (parameters, domain knots) satisfy the sufficient condition for
    an invertible square closed system of the given degree.

    Strictness is conservative: a knot within the knot tolerance of a bracket
    endpoint counts as violating.
    """
    d = validate_domain_knots(domain_knots)
    lo, hi = condition_brackets(params, degree)
    if d.size != lo.size + 2:
        raise InvalidInputError(
            f"domain knots must have n+2 = {lo.size + 2} entries, got {d.size}"
        )
    return bool(knots_inside_brackets(d[1:-1], lo, hi))


def check_conjecture2(params, domain_knots, degree):
    """Whether some (n+2)-subsequence of the domain knots satisfies the
    square condition; returns (verdict, witness domain knots or None).

    The witness is found by a greedy left-to-right scan picking the earliest
    feasible knot per bracket (:func:`greedy_witness_scan`, one numpy pass),
    which is exact for these ordered brackets (verified against exhaustive
    search in the tests).
    """
    d = validate_domain_knots(domain_knots)
    lo, hi = condition_brackets(params, degree)
    candidates = d[1:-1]
    ok, idx = greedy_witness_scan(candidates, lo, hi)
    if not ok:
        return False, None
    return True, np.concatenate([[0.0], candidates[idx], [1.0]])


def exhaustive_witness_exists(params, domain_knots, degree):
    """Brute-force subset search for the condition of check_conjecture2.

    Depth-first over the interior knots in order; intended for small n as an
    oracle for the greedy scan.
    """
    d = validate_domain_knots(domain_knots)
    lo, hi = condition_brackets(params, degree)
    n = lo.size
    candidates = d[1:-1]

    def feasible(bracket, start):
        if bracket == n:
            return True
        for k in range(start, candidates.size - (n - bracket - 1)):
            x = candidates[k]
            if x >= hi[bracket] - STRICT_TOL:
                return False
            if x > lo[bracket] + STRICT_TOL:
                if feasible(bracket + 1, k + 1):
                    return True
        return False

    return feasible(0, 0)
