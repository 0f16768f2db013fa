"""Contour ingestion, surface/report serialization, OBJ export and the
command-line front end.

File formats
------------
Contours (JSON): ``{"version": 1, "rows": [[[x, y, z], ...], ...],
"hints": {"starts": [...], "reversed": [...]}}`` with hints optional.
Contours (CSV): one ``x y z`` line per point, blank line between rows,
``#`` comments ignored.

Surfaces: a JSON document carrying degrees, style-tagged knot vectors, the
control net and a provenance block.  Every number in a surface document or
an OBJ mesh is the text of ``float.__repr__``, byte for byte (at most 17
significant digits, the shortest that reads back as the same double), so
parsing a serialized surface reproduces it bit-exactly.  The numbers come
from ``_floattext``, which formats a whole document's values in bulk, 8,192
at a time, and prints a value with ``float.__repr__`` itself wherever it
cannot certify the digits.  The writer lays the document out exactly as
``json.dumps(doc, indent=1, sort_keys=True)`` does, byte for byte, without
json's per-element Python encoder (which ``indent`` forces): each value's
fixed-width text field is followed by the separator the layout puts after
it, and one ``bytes.translate`` per chunk drops the NUL padding.  OBJ
vertices and faces are written the same way.  The reader checks field types:
degrees are JSON integers, ``closed_v`` a boolean, knot values and the net
lists of numbers.

Exit codes: 0 success, 1 input validation failure, 2 numerical failure,
3 conjecture counterexample found, 64 bad flags.
"""

import argparse
import hashlib
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _floattext
from .conjecture_lab import (
    TrialConfig,
    boundary_stress,
    run_conjecture1_trials,
    run_conjecture2_trials,
)
from .curve_interp import (
    ClosedInterpolationProblem,
    interpolate_closed_square,
    interpolate_open,
    interpolate_points_by_input_knots,
)
from .errors import (
    ClosedLoftError,
    ContractError,
    DomainError,
    InvalidInputError,
    PreconditionError,
    SingularSystemError,
)
from .loft import ContourRows, loft_closed_park, loft_closed_piegl, loft_open, park_bend_weight
from .param_knots import (
    AVERAGING,
    NATURAL,
    SHIFTING,
    averaging_knots_open,
    closed_knots,
    closed_parameters,
    open_parameters,
)
from .spline_core import BSplineSurface, KnotVector, eval_surface

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_USAGE = 64


class ContourParseError(InvalidInputError):
    pass


def _reject_duplicates(rows):
    for i, row in enumerate(rows):
        repeats = (row[1:] == row[:-1]).all(axis=1)
        if repeats.any():
            raise ContourParseError(
                f"row {i}: repeated consecutive point at index {np.argmax(repeats) + 1}"
            )


def _rows_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContourParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ContourParseError('expected a JSON object with a "rows" field')
    if doc.get("version", 1) != 1:
        raise ContourParseError(f"unsupported contour file version {doc.get('version')!r}")
    rows = []
    for i, row in enumerate(doc["rows"]):
        arr = np.asarray(row, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ContourParseError(f"row {i}: expected a list of [x, y, z] triples")
        rows.append(arr)
    return rows, doc.get("hints") or {}


def _rows_from_csv(text):
    rows, current = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if current:
                rows.append(np.asarray(current, dtype=float))
                current = []
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ContourParseError(f"line {lineno}: expected three coordinates, got {len(parts)}")
        try:
            current.append([float(x) for x in parts])
        except ValueError as exc:
            raise ContourParseError(f"line {lineno}: {exc}") from exc
    if current:
        rows.append(np.asarray(current, dtype=float))
    return rows, {}


def parse_contours(source):
    """Read contour rows from a path, file object, or text.

    JSON and CSV block formats are auto-detected; rows with repeated
    consecutive points are rejected naming the row and point index.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text and not text.lstrip().startswith(("{", "[")):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ContourParseError("empty contour input")
    rows, hints = (_rows_from_json if stripped[0] == "{" else _rows_from_csv)(text)
    if not rows:
        raise ContourParseError("contour input holds no rows")
    for i, row in enumerate(rows):
        if row.shape[0] < 3:
            raise ContourParseError(f"row {i}: needs at least 3 points, got {row.shape[0]}")
        if not np.all(np.isfinite(row)):
            raise ContourParseError(f"row {i}: non-finite coordinate")
    _reject_duplicates(rows)
    aligned = False
    baseline = None
    flags = None
    if hints:
        starts = hints.get("starts")
        flags = hints.get("reversed")
        for name, values in (("starts", starts), ("reversed", flags)):
            if values is not None and len(values) != len(rows):
                raise ContourParseError(
                    f"hints.{name} has {len(values)} entries for {len(rows)} rows"
                )
        if flags is not None:
            rows = [r[::-1] if f else r for r, f in zip(rows, flags)]
        if starts is not None:
            rows = [np.roll(r, -int(s), axis=0) for r, s in zip(rows, starts)]
            baseline = [int(s) for s in starts]
            aligned = True
    return ContourRows(rows, aligned=aligned, baseline=baseline, reversed_flags=flags)


@dataclass
class SurfaceFile:
    """A surface plus the provenance block written alongside it."""

    surface: BSplineSurface
    provenance: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, SurfaceFile):
            return NotImplemented
        a, b = self.surface, other.surface
        return (
            a.knots_u == b.knots_u
            and a.knots_v == b.knots_v
            and a.closed_v == b.closed_v
            and np.array_equal(a.control_net, b.control_net)
            and self.provenance == other.provenance
        )


def _knots_payload(kv):
    return {"style": kv.style, "degree": kv.degree, "values": kv.knots.tolist()}


def _field(doc, key, what):
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise InvalidInputError(f"{what} has no {key!r} field") from None


def _int_field(doc, key, what):
    value = _field(doc, key, what)
    if type(value) is not int:  # json reads an integer as int; a bool is not one
        raise InvalidInputError(f"{what} field {key!r} must be an integer, got {json.dumps(value)}")
    return value


def _number_array(value, ndim, name):
    """``value`` as a float array, if it is a list of JSON numbers nested
    ``ndim`` deep."""
    try:
        arr = np.array(value) if isinstance(value, list) else None
    except ValueError:  # ragged
        arr = None
    if arr is not None and arr.ndim == ndim and arr.dtype.kind in "iuf":
        leaves = value
        for _ in range(ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if bool not in map(type, leaves):  # numpy reads true among numbers as 1
            return arr.astype(float)
    shape = "a flat list" if ndim == 1 else f"a list nested {ndim} deep"
    raise InvalidInputError(f"{name} must be {shape} of numbers")


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed {what} at line {exc.lineno}, column {exc.colno}") from None


def _knots_from_payload(payload):
    values = _number_array(_field(payload, "values", "knot vector"), 1, "knot values")
    degree = _int_field(payload, "degree", "knot vector")
    return KnotVector(values, degree, _field(payload, "style", "knot vector"))


def _join_ascii(pieces):
    """Concatenate ASCII byte pieces into text while holding only one of them.

    A list of all the pieces of a large document would stay allocated until
    the join and leave the allocator's heap fragmented afterwards.
    """
    buf = bytearray()
    for piece in pieces:
        buf += piece
    return buf.decode("ascii")


# Values formatted at a time.  The formatter holds about 300 bytes a value
# in temporaries, so this bounds the memory held besides the document; it
# still takes a small document (a 40-row per-1 net) in one call.
_CHUNK = 8192


def _value_runs(arrays):
    """The arrays' values in order, in runs of _CHUNK (the last one shorter)."""
    run, held = [], 0
    for arr in arrays:
        flat = np.ravel(arr)
        while flat.size:
            part, flat = flat[:_CHUNK - held], flat[_CHUNK - held:]
            run.append(part)
            held += part.size
            if held == _CHUNK:
                yield np.concatenate(run)
                run, held = [], 0
    if run:
        yield np.concatenate(run)


class _Fields:
    """Text fields (see ``_floattext``) of a stream of values, handed out in
    order: ``take(count)`` gives the next ``count`` rows."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)
        self._head = ()

    def take(self, count):
        parts = []
        while count:
            if not len(self._head):
                self._head = next(self._chunks)
            part, self._head = self._head[:count], self._head[count:]
            parts.append(part)
            count -= len(part)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _formatted(arrays):
    """``float.__repr__`` fields of the arrays' values, formatted a run at
    a time: one formatter call for a small document."""
    return _Fields(map(_floattext.float_fields, _value_runs(arrays)))


def _filled(head, seps, tail, count, fields):
    """Pieces of ``head v0 s0 v1 s1 ... v(count-1) tail``: the values are
    the next ``count`` of ``fields``, the separators ``seps`` repeat, and
    ``tail`` takes the place of the last one.  All are ASCII bytes."""
    period = len(seps)
    width = max(map(len, seps + [tail]))
    rows = min(max(1, _CHUNK // period), -(-count // period)) * period
    sep = np.array(seps, dtype=f"S{width}").view(np.uint8).reshape(period, width)
    sep = np.tile(sep, (rows // period, 1))
    yield head
    for start in range(0, count, rows):
        f = fields.take(min(rows, count - start))
        block = np.empty((len(f), f.shape[1] + width), np.uint8)
        block[:, :f.shape[1]] = f
        block[:, f.shape[1]:] = sep[:len(f)]
        if start + rows >= count:
            block[-1, f.shape[1]:] = np.frombuffer(tail.ljust(width, b"\0"), np.uint8)
        yield block.tobytes().translate(None, b"\0")


def _indented(text, level):
    """Shift json.dumps(..., indent=1) text so it starts at depth ``level``."""
    return text.replace("\n", "\n" + " " * level)


def _object_parts(items, level):
    """Pieces of the json.dumps(indent=1, sort_keys=True) text of a dict whose
    brace sits at depth ``level``; ``items`` maps each key to the pieces of
    its already-written value."""
    inner = "\n" + " " * (level + 1)
    sep = "{"
    for k, v in sorted(items.items()):
        yield (sep + inner + json.dumps(k) + ": ").encode()
        yield from v
        sep = ","
    yield ("\n" + " " * level + "}").encode()


def _array_template(shape, level):
    """``%s`` template of the json.dumps(indent=1) layout of a nested list of
    this shape whose opening bracket sits at depth ``level``."""
    if not shape:
        return "%s"
    inner = " " * (level + 1)
    item = _array_template(shape[1:], level + 1)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + " " * level + "]"


def _float_array_parts(arr, level, fields):
    """Pieces of json.dumps(arr.tolist(), indent=1) at depth ``level`` for an
    array with no empty axis, its values taken from ``fields``: json writes
    a finite float with ``float.__repr__``, and knot vectors and control
    nets are finite."""
    # the layout of one top-level row, split at its values
    inner = ("\n" + " " * (level + 1)).encode()
    first, *seps = _array_template(arr.shape[1:], level + 1).encode().split(b"%s")
    last = seps[-1]
    seps[-1] = last + b"," + inner + first  # a row's last value runs into the next row
    end = last + b"\n" + b" " * level + b"]"
    yield from _filled(b"[" + inner + first, seps, end, arr.size, fields)


def _knots_parts(kv, level, fields):
    return _object_parts(
        {"degree": [json.dumps(kv.degree).encode()], "style": [json.dumps(kv.style).encode()],
         "values": _float_array_parts(kv.knots, level + 1, fields)},
        level,
    )


def serialize_surface(surface_file):
    """The surface document, byte for byte as
    ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"`` writes it.

    The float arrays are formatted in bulk (see ``_floattext``); the small
    parts go through json.
    """
    s = surface_file.surface
    # the keys are written in sorted order: control_net, knots_u, knots_v
    fields = _formatted([s.control_net, s.knots_u.knots, s.knots_v.knots])
    doc = {
        "version": [json.dumps(1).encode()],
        "degree_u": [json.dumps(s.degree_u).encode()],
        "degree_v": [json.dumps(s.degree_v).encode()],
        "knots_u": _knots_parts(s.knots_u, 1, fields),
        "knots_v": _knots_parts(s.knots_v, 1, fields),
        "closed_v": [json.dumps(bool(s.closed_v)).encode()],
        "control_net": _float_array_parts(s.control_net, 1, fields),
        # ensure_ascii (the default) keeps the document ASCII
        "provenance": [_indented(json.dumps(surface_file.provenance, indent=1, sort_keys=True), 1).encode()],
    }
    return _join_ascii(itertools.chain(_object_parts(doc, 0), [b"\n"]))


def _surface_knots(doc, side):
    """Knot vector ``knots_<side>`` of a surface document, checked against
    the document's ``degree_<side>``."""
    kv = _knots_from_payload(_field(doc, "knots_" + side, "surface document"))
    degree = _int_field(doc, "degree_" + side, "surface document")
    if degree != kv.degree:
        raise InvalidInputError(f"degree_{side} is {degree} but knots_{side} has degree {kv.degree}")
    return kv


def parse_surface(text):
    """The surface document that :func:`serialize_surface` writes.  A
    missing field, a field of the wrong JSON type (degrees are integers,
    ``closed_v`` a boolean, knot values and the net lists of numbers), or a
    degree other than its knot vector's is an :class:`InvalidInputError`."""
    doc = _load_json(text, "surface document")
    knots_u, knots_v = _surface_knots(doc, "u"), _surface_knots(doc, "v")
    net = _number_array(_field(doc, "control_net", "surface document"), 3, "control_net")
    closed_v = doc.get("closed_v", False)
    if type(closed_v) is not bool:
        raise InvalidInputError(
            f"surface document field 'closed_v' must be true or false, got {json.dumps(closed_v)}"
        )
    surface = BSplineSurface(knots_u, knots_v, net, closed_v=closed_v)
    return SurfaceFile(surface, doc.get("provenance") or {})


def export_obj(surface, samples_u, samples_v):
    """Tessellate the surface on a uniform parameter lattice as OBJ text.

    Surfaces closed in v are stitched: the seam column is emitted once and
    the last ring of quads reuses the first vertex column.
    """
    su, sv = int(samples_u), int(samples_v)
    if su < 2 or sv < 2:
        raise InvalidInputError("need at least 2 samples in each direction")
    us = np.linspace(0.0, 1.0, su)
    closed = surface.closed_v
    vs = (np.arange(sv) / sv) if closed else np.linspace(0.0, 1.0, sv)
    uu, vv = [a.ravel() for a in np.meshgrid(us, vs, indexing="ij")]
    pts = eval_surface(surface, uu, vv).reshape(su, sv, 3)
    header = f"# closedloft surface mesh {su}x{sv}" + (" (v-seam stitched)" if closed else "")
    verts = _filled(b"v ", [b" ", b" ", b"\nv "], b"\n", pts.size, _formatted([pts]))
    # quad (i, j) joins rows i, i+1 and columns j, j+1; a closed seam wraps j+1 to 0
    jmax = sv if closed else sv - 1
    i, j = np.meshgrid(np.arange(su - 1), np.arange(jmax), indexing="ij")
    j1 = (j + 1) % sv
    quads = np.stack([i * sv + j, (i + 1) * sv + j, (i + 1) * sv + j1, i * sv + j1], axis=2)
    # the text of vertex k + 1 is row k; an OBJ index has at most as many digits as su*sv
    names = _floattext.int_fields(np.arange(1, su * sv + 1))[:, -len(str(su * sv)):]
    corners = _Fields([np.take(names, quads.ravel(), axis=0)])
    faces = _filled(b"f ", [b" ", b" ", b" ", b"\nf "], b"\n", quads.size, corners)
    return _join_ascii(itertools.chain([(header + "\n").encode()], verts, faces))


def _fmt(x):
    return repr(float(x))


def format_report(report):
    """Stable line-oriented text for a trial report."""
    cfg = report.config
    lines = [
        "closedloft conjecture report",
        f"tool_version: {__version__}",
        f"generator: {report.generator}",
        f"conjecture: {cfg.conjecture}",
        f"seed: {cfg.seed}",
        f"trials_per_degree: {cfg.trials}",
        f"degrees: {','.join(str(d) for d in cfg.degrees)}",
        f"n_range: {cfg.n_range[0]}:{cfg.n_range[1]}",
        f"nhat_extra: {cfg.nhat_extra[0]}:{cfg.nhat_extra[1]}",
        f"rank_tol: {_fmt(cfg.rank_tol)}",
        f"t_sampling: {cfg.t_sampling}",
        f"d_sampling: {cfg.d_sampling}",
        "----",
    ]
    stress = [r for r in report.records if r.epsilon is not None]
    if stress:
        for r in stress:
            lines.append(
                f"stress degree={r.degree} epsilon={_fmt(r.epsilon)} n={r.n} "
                f"condition={'true' if r.condition else 'false'} "
                f"sigma_ratio={_fmt(r.sigma_ratio)} rank={r.rank} "
                f"full_rank={'true' if r.full_rank else 'false'}"
            )
    for degree in cfg.degrees:
        s = report.degree_summary(degree)
        if s["trials"] == 0 and stress:
            continue
        lines.append(
            f"degree={degree} trials={s['trials']} condition_true={s['condition_true']} "
            f"violations={s['violations']} violations_still_full_rank={s['violations_still_full_rank']} "
            f"counterexamples={s['counterexamples']} min_sigma_ratio={_fmt(s['min_sigma_ratio'])}"
        )
    checked = report.greedy_checked()
    if checked:
        lines.append(
            f"greedy_vs_exhaustive checked={len(checked)} "
            f"agree={sum(1 for r in checked if r.greedy_agrees)}"
        )
    cexs = report.counterexamples
    lines.append(f"counterexamples: {len(cexs)}")
    for r in cexs:
        lines.append(
            f"  degree={r.degree} index={r.index} n={r.n} nhat={r.nhat} "
            f"sigma_ratio={_fmt(r.sigma_ratio)} rank={r.rank}"
        )
    lines.append(f"min_sigma_ratio_condition_true: {_fmt(report.min_sigma_ratio())}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="closedloft", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_loft = sub.add_parser("loft", help="loft serial contours into a surface")
    p_loft.add_argument("--input", required=True, help="contour file (JSON or CSV blocks)")
    p_loft.add_argument("--method", choices=("piegl", "park", "open"), default="piegl")
    p_loft.add_argument("--degree-u", type=int, default=3, help="longitudinal degree")
    p_loft.add_argument("--degree-v", type=int, default=3, help="contour degree")
    p_loft.add_argument("--per", type=float, default=1.0, help="knot-interval use in [0,1]")
    p_loft.add_argument("--align", choices=("auto", "none"), default="auto")
    p_loft.add_argument("--alpha", type=float, default=1.0, help="stretch weight")
    p_loft.add_argument("--beta", type=float, default=0.2, help="bend weight")
    p_loft.add_argument("--output", required=True, help="surface JSON output path")
    p_loft.add_argument("--obj", help="optional OBJ mesh output path")
    p_loft.add_argument("--samples-u", type=int, default=33)
    p_loft.add_argument("--samples-v", type=int, default=65)

    p_curve = sub.add_parser("interp-curve", help="interpolate a single contour")
    p_curve.add_argument("--input", required=True, help="single-row contour file")
    p_curve.add_argument("--closed", action="store_true")
    p_curve.add_argument("--degree", type=int, default=3)
    p_curve.add_argument(
        "--knot-method", choices=(NATURAL, AVERAGING, SHIFTING, "input"), default=NATURAL
    )
    p_curve.add_argument("--input-knots", help="JSON knot vector for --knot-method input")
    p_curve.add_argument("--per", type=float, default=1.0)
    p_curve.add_argument("--output", help="curve JSON output path (default stdout)")

    p_ver = sub.add_parser("verify-conjectures", help="run the randomized trial harness")
    p_ver.add_argument("--which", choices=("1", "2", "both"), default="both")
    p_ver.add_argument("--trials", type=int, default=1000, help="trials per degree")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--degrees", default="2,3,4,5", help="comma-separated degrees")
    p_ver.add_argument("--n-range", default="6:40", help="A:B inclusive")
    p_ver.add_argument("--nhat-extra", default="1:10", help="A:B inclusive")
    p_ver.add_argument("--rank-tol", type=float, default=1e-12)
    p_ver.add_argument("--stress", action="store_true", help="add a boundary-stress sweep")
    p_ver.add_argument("--output", help="report path (default stdout)")
    return parser


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_per(per):
    if not 0.0 <= per <= 1.0:
        raise _UsageError("per must lie in [0,1]")


class _UsageError(Exception):
    pass


def cmd_loft(args):
    _check_per(args.per)
    if args.degree_u < 1 or args.degree_v < 1:
        raise _UsageError("degrees must be >= 1")
    if not (math.isfinite(args.alpha) and math.isfinite(args.beta)):
        raise _UsageError("alpha and beta must be finite")
    if args.alpha < 0 or args.beta < 0:
        raise _UsageError("alpha and beta must be non-negative")
    if args.samples_u < 2 or args.samples_v < 2:
        raise _UsageError("samples-u and samples-v must be >= 2")
    alpha, beta = args.alpha, park_bend_weight(args.degree_v, args.beta)
    if args.method == "park" and alpha == 0 and beta == 0:
        raise _UsageError(
            "park needs a positive alpha or beta"
            + (" (beta has no effect at --degree-v 1)" if args.beta != beta else "")
        )
    rows = parse_contours(args.input)
    if args.method == "piegl":
        result = loft_closed_piegl(rows, args.degree_u, args.degree_v, args.per, align=args.align)
    elif args.method == "park":
        result = loft_closed_park(
            rows, args.degree_u, args.degree_v, args.per,
            alpha=alpha, beta=beta, align=args.align,
        )
    else:
        result = loft_open(rows, args.degree_u, args.degree_v)
    provenance = {
        "tool_version": __version__,
        "method": result.method,
        "per": args.per if result.per is not None else None,
        "alpha": alpha if args.method == "park" else None,
        "beta": beta if args.method == "park" else None,
        "degree_u": args.degree_u,
        "degree_v": args.degree_v,
        "align": args.align,
        "input_digest": _digest(args.input),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_surface(SurfaceFile(result.surface, provenance)))
    if args.obj:
        with open(args.obj, "w", encoding="utf-8") as fh:
            fh.write(export_obj(result.surface, args.samples_u, args.samples_v))
    rows_n, cols_n = result.control_dims
    print(
        f"method={result.method} control-net={rows_n}x{cols_n} "
        f"interior-knots={result.interior_knot_count} "
        f"max-residual={result.max_surface_residual:.3e}"
    )
    return EXIT_OK


def _curve_payload(curve, residual, verdict, extra=None):
    doc = {
        "version": 1,
        "kind": curve.kind,
        "degree": curve.degree,
        "knots": _knots_payload(curve.knots),
        "control_points": curve.control_points.tolist(),
        "max_residual": residual,
        "condition_ok": {True: "true", False: "false", None: "unchecked"}[verdict],
    }
    if extra:
        doc.update(extra)
    return doc


def cmd_interp_curve(args):
    _check_per(args.per)
    if args.degree < 1:
        raise _UsageError("degree must be >= 1")
    rows = parse_contours(args.input)
    if len(rows.rows) != 1:
        raise InvalidInputError(
            f"interp-curve expects a single row, the input has {len(rows.rows)}"
        )
    points = rows.rows[0]
    extra = {"knot_method": args.knot_method}
    if not args.closed:
        if args.knot_method != AVERAGING:
            raise _UsageError("open interpolation supports --knot-method averaging only")
        params = open_parameters(points)
        kv = averaging_knots_open(params, args.degree)
        res = interpolate_open(points, params, kv)
        doc = _curve_payload(res.curve, res.max_residual, None, extra)
    elif args.knot_method == "input":
        if not args.input_knots:
            raise _UsageError("--knot-method input requires --input-knots")
        with open(args.input_knots, "r", encoding="utf-8") as fh:
            kv_in = _knots_from_payload(_load_json(fh.read(), "knot file"))
        params = closed_parameters(points)
        out = interpolate_points_by_input_knots(points, params, kv_in, args.degree, args.per)
        extra["per"] = args.per
        extra["updated_input_knots"] = _knots_payload(out.updated_input)
        doc = _curve_payload(
            out.curve, out.result.max_residual, out.result.condition_ok, extra
        )
    else:
        params = closed_parameters(points)
        domain, solve_params = closed_knots(params, args.knot_method, args.degree)
        problem = ClosedInterpolationProblem(points, solve_params, domain, args.degree)
        res = interpolate_closed_square(problem)
        doc = _curve_payload(res.curve, res.max_residual, res.condition_ok, extra)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"kind={doc['kind']} degree={doc['degree']} "
            f"max-residual={doc['max_residual']:.3e} condition={doc['condition_ok']}"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_range(text, name):
    try:
        a, b = (int(x) for x in text.split(":"))
    except ValueError:
        raise _UsageError(f"{name} must look like A:B") from None
    return a, b


def cmd_verify_conjectures(args):
    if args.trials < 1:
        raise _UsageError("trials must be >= 1")
    try:
        degrees = tuple(int(d) for d in args.degrees.split(",") if d)
    except ValueError:
        raise _UsageError("degrees must be a comma-separated integer list") from None
    base = dict(
        degrees=degrees,
        n_range=_parse_range(args.n_range, "n-range"),
        nhat_extra=_parse_range(args.nhat_extra, "nhat-extra"),
        trials=args.trials,
        seed=args.seed,
        rank_tol=args.rank_tol,
    )
    chunks = []
    total_cex = 0
    if args.which in ("1", "both"):
        report = run_conjecture1_trials(TrialConfig(conjecture=1, **base))
        total_cex += len(report.counterexamples)
        chunks.append(format_report(report))
        if args.stress:
            ladder = [1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 0.0]
            chunks.append(format_report(boundary_stress(TrialConfig(conjecture=1, **base), ladder)))
    if args.which in ("2", "both"):
        report = run_conjecture2_trials(TrialConfig(conjecture=2, **base))
        total_cex += len(report.counterexamples)
        chunks.append(format_report(report))
    text = "".join(chunks)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_COUNTEREXAMPLE if total_cex else EXIT_OK


_python_showwarning = warnings.showwarning


def _show_warning(message, category, *rest):
    """A RuntimeWarning as one ``closedloft: warning:`` line; any other
    warning as Python shows it."""
    if issubclass(category, RuntimeWarning):
        print(f"closedloft: warning: {message}", file=sys.stderr)
    else:
        _python_showwarning(message, category, *rest)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)
            warnings.showwarning = _show_warning
            if args.command == "loft":
                return cmd_loft(args)
            if args.command == "interp-curve":
                return cmd_interp_curve(args)
            return cmd_verify_conjectures(args)
    except _UsageError as exc:
        print(f"closedloft: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContourParseError, InvalidInputError, ContractError, DomainError, OSError) as exc:
        print(f"closedloft: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularSystemError, PreconditionError, ClosedLoftError) as exc:
        print(f"closedloft: numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, SingularSystemError) and exc.rank_report is not None:
            rr = exc.rank_report
            print(
                f"closedloft: rank={rr.rank} condition={rr.condition:.3e} "
                f"tolerance={rr.tolerance:.1e}",
                file=sys.stderr,
            )
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
