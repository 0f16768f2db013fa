"""The benchmark's tracer still fits the library.

``perfbench/tracing.py`` rebinds closedloft's functions by name, and its call
counter forwards positional arguments only.  A renamed function or a keyword
call to a counted kernel breaks only a traced benchmark run, so this test
installs the tracer around a tiny loft of each method, one trial batch of
each conjecture, an OBJ export and one failing solve, and checks that every
traced name was seen and that uninstalling puts the originals back.
"""

import importlib.util
import json
import os

import pytest

from closedloft import cli_io
from closedloft import curve_interp as ci
from closedloft import param_knots as pk
from closedloft.errors import SingularSystemError

from conftest import circle_points, tube_rows

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_library(tmp_path):
    contours = tmp_path / "rows.json"
    contours.write_text(json.dumps({"rows": [r.tolist() for r in tube_rows(5, (8, 12), seed=3)]}))
    for method, per in (("piegl", "1"), ("park", "0"), ("open", "1")):
        out = tmp_path / f"{method}.json"
        argv = ["loft", "--input", str(contours), "--method", method, "--per", per,
                "--output", str(out), "--obj", str(tmp_path / f"{method}.obj"),
                "--samples-u", "5", "--samples-v", "9"]
        assert cli_io.main(argv) == 0
    argv = ["verify-conjectures", "--trials", "2", "--degrees", "3", "--n-range", "6:8",
            "--nhat-extra", "1:3", "--output", str(tmp_path / "report.txt")]
    assert cli_io.main(argv) == 0
    # a singular system: its failure report runs rank_report, as every trial above does
    t = pk.closed_parameters(circle_points(10))
    domain, _ = pk.closed_knots(t, "natural", 4)
    with pytest.warns(RuntimeWarning), pytest.raises(SingularSystemError):
        ci.interpolate_closed_square(ci.ClosedInterpolationProblem(circle_points(10), t, domain, 4))


def _bindings(tracing):
    return {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items()}


def test_every_traced_name_is_seen_and_uninstall_restores(tmp_path):
    tracing = _load_tracing()
    before = _bindings(tracing)
    for mod, fname, _span, _after in tracing.TARGETS:
        assert callable(getattr(mod, fname)), f"{mod.__name__}.{fname}"
    for mod, attr, _span in tracing.SITES:
        assert callable(getattr(mod, attr)), f"{mod.__name__}.{attr}"

    tracer = tracing.Tracer()
    with tracer:
        _run_library(tmp_path)

    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    spans = tracer.summary()
    for mod, fname, span, _after in tracing.TARGETS:
        name = f"{tracing.LAYER[mod]}.{fname}"
        if span == "count":
            assert tracer.counts[f"{name}.calls"] > 0, name
        else:
            assert spans[span or name]["calls"] > 0, span or name
    for _mod, _attr, span in tracing.SITES:
        assert spans[span]["calls"] > 0, span
    for counter in ("kernels.collocation_matrix.rows", "kernels.surface_points.points",
                    "kernels.curve_points.points", "spline_core.eval_surface.points"):
        assert tracer.counts[counter] > 0, counter
