"""Tests of the benchmark itself: every workload at tiny sizes, the tracer,
and that each correctness check rejects a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from closedloft import _kernels, linalg_solve, loft  # noqa: E402
from closedloft.errors import SingularSystemError  # noqa: E402


def _tiny(name, tmp_path, seed=3):
    w = workloads.make(name, tiny=True)
    w.setup(seed, str(tmp_path))
    return w


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(name, tmp_path):
    w = _tiny(name, tmp_path)
    out = run.measure(w, 0.0)
    assert out["rounds"] == 1
    assert out["failures"] == {}
    assert out["problems"] == []
    assert w.finish() == []
    end_to_end, _per_layer = run.metric_units()
    measured = set(w.details(out["times"])) | {"setup_s", "peak_rss_mb"}
    assert set(end_to_end) <= measured


def test_same_seed_same_inputs():
    a = workloads.tube_rows(7, (8, 12), 11)
    b = workloads.tube_rows(7, (8, 12), 11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert sorted(r.shape[0] for r in a) == sorted(np.resize(np.arange(8, 13), 7))


def test_failed_operation_is_counted_and_not_timed():
    class Failing:
        def round_ops(self, round_index):
            def boom():
                raise SingularSystemError("row 0: singular")
            return [("ok", lambda: None), ("bad", boom)]

        def after_op(self, label, out):
            return []

    out = run.measure(Failing(), 0.0)
    assert out["attempted"] == 2
    assert out["failures"]["bad"][2] == 1
    assert set(out["times"]) == {"ok"}


def test_perturbed_control_point_is_rejected(tmp_path):
    w = _tiny("tube40", tmp_path)
    run.measure(w, 0.0)
    path = os.path.join(str(tmp_path), "piegl.per1.json")
    doc = json.load(open(path))
    doc["control_net"][2][3][0] += 1e-3
    with open(path, "w") as fh:
        json.dump(doc, fh)
    problems = w.finish()
    assert any("bit for bit" in p for p in problems)
    assert any("misses a data point" in p for p in problems)


def test_broken_seam_is_rejected(tmp_path):
    w = _tiny("tube40", tmp_path)
    run.measure(w, 0.0)
    surface = checks.Surface(open(os.path.join(str(tmp_path), "park.per1.json")).read())
    assert checks.check_seam(surface) == []
    surface.net[:, 0] += 1e-3
    assert checks.check_seam(surface)


def test_rotated_input_row_is_accepted_and_a_changed_one_rejected():
    rows = workloads.tube_rows(3, (8, 9), 0)
    aligned = [rows[0], np.roll(rows[1], -3, axis=0), np.roll(rows[2][::-1], -2, axis=0)]
    assert checks.check_rows_match_input(aligned, rows) == []
    aligned[1] = aligned[1].copy()
    aligned[1][4, 2] += 1e-9
    assert checks.check_rows_match_input(aligned, rows)


@pytest.mark.parametrize("obj", ["piegl.per1.obj", "open.obj", "mesh.obj"])
def test_dropped_obj_vertex_is_rejected(obj, tmp_path):
    w = _tiny("tube120", tmp_path)
    run.measure(w, 0.0)
    path = os.path.join(str(tmp_path), obj)
    lines = open(path).read().splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith("v ")))
    with open(path, "w") as fh:
        fh.write("".join(lines))
    problems = w.finish()
    assert any("vertices, expected" in p for p in problems)


@pytest.mark.parametrize("obj", ["park.per0.obj", "mesh.obj"])
def test_moved_obj_vertex_is_rejected(obj, tmp_path):
    w = _tiny("tube120", tmp_path)
    run.measure(w, 0.0)
    path = os.path.join(str(tmp_path), obj)
    text = open(path).read()
    i = text.index("\nv ") + 3
    with open(path, "w") as fh:
        fh.write(text[:i] + "9" + text[i:])
    assert any("off the surface" in p for p in w.finish())


def test_claimed_counterexample_is_rejected(tmp_path):
    w = _tiny("tube40", tmp_path).parts[1]
    report, text = w._batch(2, 0)
    expected = len(w.spec.degrees) * w.spec.trials_per_degree
    assert checks.check_trials(report.records, 2, expected) == []
    records = list(report.records)
    records[0] = dataclasses.replace(records[0], condition=True, full_rank=False)
    problems = checks.check_trials(records, 2, expected)
    assert any("counterexample" in p for p in problems)
    assert checks.check_trials(records[1:], 2, expected)


def test_tracer_records_nested_spans_and_restores_the_library(tmp_path):
    originals = (loft.refine_knots, linalg_solve.stiffness_matrix, _kernels.collocation_matrix)
    w = _tiny("tube40", tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        out = run.measure(w, 0.0, tracer)
    assert (loft.refine_knots, linalg_solve.stiffness_matrix, _kernels.collocation_matrix) == originals
    assert w.finish() == []
    spans = {s[0]: s for s in tracer.spans}
    roots = [s for s in spans.values() if s[1] is None]
    assert [s[3] for s in roots] == [f"op.{label}" for label, _op in w.round_ops(0)]
    for sid, parent, op, _name, start, end in spans.values():
        assert start <= end
        if parent is not None:
            assert spans[parent][2] == op
            assert spans[parent][4] <= start and end <= spans[parent][5]
    _end_to_end, per_layer = run.metric_units()
    metrics = run.layer_metrics(tracer, out["rounds"], w.details(out["times"]), per_layer)
    assert list(metrics) == list(per_layer)
    assert metrics["kernels.find_span.calls"] > 0
    assert metrics["linalg_solve.stiffness_matrix.calls"] > 0
    assert metrics["loft.columns.s"] > 0
    assert metrics["loft.park.per0_s"] > 0
    assert 0 < metrics["linalg_solve.stiffness_matrix.distinct_ratio"] <= 1
