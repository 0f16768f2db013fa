"""The bulk formatter against ``float.__repr__`` and ``str``, byte for byte."""

import importlib.util
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import _floattext, loft

from conftest import fast_range_floats

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _text(fields):
    """The fields' texts, one a line."""
    block = np.empty((len(fields), fields.shape[1] + 1), np.uint8)
    block[:, :-1] = fields
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _reprs(values):
    return "\n".join(map(float.__repr__, values.tolist())) + "\n"


@pytest.fixture(scope="module")
def tube120_net():
    """The control net of perfbench's seed-1 ``tube120`` contours lofted by
    ``piegl`` at per 0, the largest document the benchmark writes."""
    sys.path.insert(0, PERFBENCH)  # workloads.py imports its sibling checks.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(PERFBENCH)
    size = workloads.WORKLOADS["tube120"][0][1]
    rows = workloads.tube_rows(size.rows, size.counts, 1)
    result = loft.loft_closed_piegl(loft.ContourRows(rows), 3, 3, 0.0, align="auto")
    return result.surface.control_net.ravel()


@pytest.fixture
def fallbacks(monkeypatch):
    """A list that gathers every value printed by the fallback."""
    seen = []

    def counted(x):
        seen.append(x)
        return float.__repr__(x)

    monkeypatch.setattr(_floattext, "_fallback", counted)
    return seen


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_equals_repr(values):
    x = np.array(values, dtype=float)
    assert _text(_floattext.float_fields(x)) == _reprs(x)


@settings(deadline=None, max_examples=300)
@given(st.lists(fast_range_floats(), min_size=1, max_size=40))
def test_fast_range_equals_repr(values):
    x = np.array(values, dtype=float)
    assert _text(_floattext.float_fields(x)) == _reprs(x)


def _sweep(rng, size):
    """Seeded draws, one array per family, ``size`` values each."""
    k = rng.integers(1, 10**9, size)
    sign = rng.choice([-1.0, 1.0], size)
    powers = np.concatenate([10.0 ** np.arange(-8, 20), 2.0 ** np.arange(-40, 60)])
    near = [np.resize(powers, size // 9)]
    below = above = near[0]
    for _ in range(4):  # up to four ulps either side of a power of ten or two
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        near += [below, above]
    yield "normal", rng.normal(scale=3.0, size=size)
    yield "wide exponent", sign * np.exp(rng.uniform(-25.0, 45.0, size))
    yield "k/10**j", sign * k / 10.0 ** rng.integers(0, 17, size)
    yield "dyadic", sign * k / 2.0 ** rng.integers(0, 60, size)
    yield "integers", rng.integers(-(2**53), 2**53, size).astype(float)
    yield "next to powers", np.concatenate(near)
    yield "uniform bits", rng.integers(0, 2**63, size, dtype=np.uint64).view(np.float64)


def test_seeded_sweep_matches_repr(tube120_net):
    rng = np.random.default_rng(20261020)
    checked = 0
    families = [("tube120 per-0 net", tube120_net)]
    for _ in range(3):
        families += list(_sweep(rng, 200_000))
    for name, values in families:
        for start in range(0, len(values), 250_000):
            chunk = values[start:start + 250_000]
            assert _text(_floattext.float_fields(chunk)) == _reprs(chunk), name
            checked += len(chunk)
    assert checked >= 5_000_000


def test_float64_margin_sends_every_value_to_the_fallback(monkeypatch, fallbacks, tube120_net):
    rng = np.random.default_rng(5)
    x = np.concatenate([tube120_net[:20_000], rng.normal(size=5_000), rng.integers(1, 10**6, 5_000) / 1000])
    monkeypatch.setattr(_floattext, "_EPS", float(np.finfo(np.float64).eps))
    assert _text(_floattext.float_fields(x)) == _reprs(x)
    assert len(fallbacks) == len(x)


def test_most_of_a_lofted_net_takes_the_fast_path(fallbacks, tube120_net):
    assert _text(_floattext.float_fields(tube120_net)) == _reprs(tube120_net)
    assert len(fallbacks) <= 0.1 * len(tube120_net)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 10**17 - 1), min_size=1, max_size=40))
def test_int_fields_equal_str(values):
    assert _text(_floattext.int_fields(np.array(values))) == "".join(f"{v}\n" for v in values)


@pytest.mark.parametrize("value", [-1, 10**17])
def test_int_fields_reject_values_out_of_range(value):
    with pytest.raises(ValueError, match="integers in"):
        _floattext.int_fields(np.array([3, value]))
