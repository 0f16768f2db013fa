"""Span tracing of closedloft's layers, done from outside the library.

For a traced run, :class:`Tracer` rebinds the names under which the package
modules reach each other's public functions (``closedloft.loft.refine_knots``,
``closedloft.curve_interp.stiffness_matrix``,
``closedloft._kernels.collocation_matrix``, ...) to wrappers that record a span
per call.  Every module attribute bound to the original function object is
rebound, so intra-module calls are seen too.  :meth:`Tracer.uninstall` puts
the originals back; the library source is never changed.

A span is ``(span_id, parent_id, op_id, name, start, end)``.  Spans are kept
in memory and written out once, after the measured loop.  Per-point kernels
(span lookup and basis values) are counted, not timed: a span around each of
their calls would cost more than the call itself.
"""

import json
import time
from collections import defaultdict
from functools import wraps

import numpy as np

from closedloft import (
    _kernels,
    cli_io,
    conjecture_lab,
    curve_interp,
    linalg_solve,
    loft,
    param_knots,
    spline_core,
)
from closedloft.errors import ClosedLoftError

MODULES = (_kernels, cli_io, conjecture_lab, curve_interp, linalg_solve, loft, param_knots, spline_core)

# Module names as layer names: metric names must start with a letter.
LAYER = {m: m.__name__.rsplit(".", 1)[1].lstrip("_") for m in MODULES}


def _count_rows(tracer, args, kwargs, out):
    tracer.add("kernels.collocation_matrix.rows", len(args[3]))


def _count_surface_points(tracer, args, kwargs, out):
    tracer.add("kernels.surface_points.points", len(args[5]))


def _count_curve_points(tracer, args, kwargs, out):
    tracer.add("kernels.curve_points.points", len(args[3]))


def _count_eval_points(tracer, args, kwargs, out):
    tracer.add("spline_core.eval_surface.points", int(np.size(args[1])))


def _count_inserted(tracer, args, kwargs, out):
    tracer.add("spline_core.knots_inserted", int(np.size(args[1])))


def _count_json_bytes(tracer, args, kwargs, out):
    tracer.add("cli_io.surface_json.bytes", len(out))


def _count_obj_bytes(tracer, args, kwargs, out):
    tracer.add("cli_io.obj.bytes", len(out))


def _count_trials(tracer, args, kwargs, out):
    tracer.add("conjecture_lab.trials", len(out.records))


def _note_kkt_dim(tracer, args, kwargs, out):
    dim = np.shape(args[0])[0] + np.shape(args[1])[0]
    tracer.maxima["linalg_solve.kkt_dim.max"] = max(tracer.maxima["linalg_solve.kkt_dim.max"], dim)


def _note_stiffness_key(tracer, args, kwargs, out):
    kv, weights = args[0], args[1:] + tuple(sorted(kwargs.items()))
    tracer.stiffness_keys.add((kv.knots.tobytes(), kv.degree, weights))


# (module, function, span name, after-call hook).  The span name defaults to
# "<layer>.<function>"; "count" counts the calls and records no span.
TARGETS = [
    (cli_io, "parse_contours", None, None),
    (cli_io, "serialize_surface", None, _count_json_bytes),
    (cli_io, "export_obj", None, _count_obj_bytes),
    (cli_io, "format_report", None, None),
    (loft, "align_contours", None, None),
    (loft, "build_common_domain_knots", None, None),
    (loft, "loft_closed_piegl", None, None),
    (loft, "loft_closed_park", None, None),
    (loft, "loft_open", None, None),
    (curve_interp, "interpolate_closed_square", None, None),
    (curve_interp, "interpolate_closed_energy", None, None),
    (curve_interp, "interpolate_open", None, None),
    (curve_interp, "interpolate_points_by_input_knots", None, None),
    (curve_interp, "select_domain_knots", None, None),
    (curve_interp, "build_domain_knots_by_input_knots", None, None),
    (linalg_solve, "stiffness_matrix", None, _note_stiffness_key),
    (linalg_solve, "solve_kkt", None, _note_kkt_dim),
    (linalg_solve, "rank_report", None, None),
    (linalg_solve, "solve_dense", None, None),
    (linalg_solve, "solve_banded_no_pivot", None, None),
    (linalg_solve, "assemble_closed_system", None, None),
    (linalg_solve, "assemble_open_collocation", None, None),
    (spline_core, "refine_knots", None, _count_inserted),
    (spline_core, "missing_knots", None, None),
    (spline_core, "merge_knot_vectors", None, None),
    (spline_core, "clamp_closed_curve", None, None),
    (spline_core, "eval_surface", None, _count_eval_points),
    (spline_core, "eval_curve", None, None),
    (spline_core, "cyclic_knot_vector", None, None),
    (_kernels, "collocation_matrix", None, _count_rows),
    (_kernels, "surface_points", None, _count_surface_points),
    (_kernels, "curve_points", None, _count_curve_points),
    (_kernels, "find_span", "count", None),
    (_kernels, "basis_funs", "count", None),
    (_kernels, "ders_basis_funs", "count", None),
    (param_knots, "closed_parameters", None, None),
    (param_knots, "check_conjecture1", None, None),
    (param_knots, "check_conjecture2", None, None),
    (param_knots, "exhaustive_witness_exists", None, None),
    (conjecture_lab, "run_conjecture1_trials", "conjecture_lab.run_trials", _count_trials),
    (conjecture_lab, "run_conjecture2_trials", "conjecture_lab.run_trials", _count_trials),
]

# Spans for the stages of loft's own pipeline that have no public function:
# (module, imported name, span name).  They wrap the already-traced function,
# so the library span becomes a child of the stage span.
SITES = [
    (loft, "assemble_open_collocation", "loft.columns"),
    (loft, "solve_banded_no_pivot", "loft.columns"),
    (loft, "solve_dense", "loft.columns"),
    (loft, "eval_surface", "loft.residual_check"),
]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.stiffness_keys = set()
        self.op_id = None
        self._stack = []
        self._patches = []

    def add(self, name, amount=1):
        self.counts[name] += amount

    def _timed(self, name, fn, after=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except ClosedLoftError:
                tracer.add(f"{name}.errors")
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, parent, tracer.op_id, name, start, end)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def _counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _rebind(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        for mod, fname, span, after in TARGETS:
            original = getattr(mod, fname)
            name = f"{LAYER[mod]}.{fname}"
            if span == "count":
                self._rebind(original, self._counted(name, original))
            else:
                self._rebind(original, self._timed(span or name, original, after))
        for mod, attr, span in SITES:
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._timed(span, getattr(mod, attr)))

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def run_operation(self, op_id, label, fn):
        """Run ``fn`` under a root span; the library spans it causes nest under it."""
        self.op_id = op_id
        return self._timed(f"op.{label}", fn)()

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _parent, _op, name, start, end in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start": start, "end": end}
                ) + "\n")
