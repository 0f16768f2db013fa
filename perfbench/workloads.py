"""The benchmark's workloads: input generation, one round of operations each,
and the checks on what the operations wrote.

Each workload is a closed loop with one caller: an operation starts when the
previous one has returned.  All inputs are made from the run's seed and handed
to closedloft as files or arrays.  ``spec`` fixes the sizes; the benchmark's
own tests run the same code on tiny specs.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from statistics import median
from typing import Optional

import numpy as np

import closedloft
from closedloft import cli_io, conjecture_lab, loft

import checks

DEGREE = 3  # degree_u = degree_v = 3, the CLI default
CLI_SAMPLES = (33, 65)  # `closedloft loft --obj` default lattice
COMBOS = (("piegl", 1.0), ("piegl", 0.0), ("park", 1.0), ("park", 0.0), ("open", None))
SURFACE_TOL = 1e-6  # share of the bounding-box diagonal
MESH_TOL = 1e-9


def tube_rows(count, counts, seed):
    """Stacked closed contours around the z axis with a noisy radius.

    The make-up of the tests' ``tube_rows(count, noisy_radius=True)``, except
    that the per-row point counts are a seeded permutation of every count in
    ``counts`` taken equally often, so that every seed lofts the same amount
    of work.  Each row starts at a random phase.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.resize(np.arange(counts[0], counts[1] + 1), count))
    rows = []
    for i, n1 in enumerate(sizes):
        th = np.linspace(0.0, 2.0 * np.pi, n1 + 1)[:-1] + rng.uniform(0, 2 * np.pi / n1)
        r = (1.0 + 0.3 * np.sin(2.0 * np.pi * i / count)) * (1.0 + 0.05 * np.sin(9.1 * i))
        z = 2.0 * i / max(count - 1, 1)
        rows.append(np.stack([r * np.cos(th), r * np.sin(th), np.full_like(th, z)], axis=1))
    return rows


def write_contours(path, rows):
    # json writes floats by shortest round-trip repr: parsing gives the rows back bit for bit
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "rows": [r.tolist() for r in rows]}, fh)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def combo_label(method, per):
    return method if per is None else f"{method}.per{int(per)}"


@dataclass(frozen=True)
class LoftSpec:
    rows: int
    counts: tuple
    # Lattice of the dense OBJ export of the `piegl` per-1 surface.
    mesh_samples: tuple
    # The operations of one round, in order: combination labels and "mesh",
    # which reads the file the round's first `piegl.per1` writes.  The short
    # operations recur, so that each median has samples from across the run.
    order: tuple
    # Seed of a fixed contour file for `park` at per 0, or None to loft the
    # seeded contours.  `park` at per 0 fails on the 120-row tube; lofting a
    # file that no run seed changes keeps that failure at exactly one
    # operation per round on every run, not only on the seeds tried so far.
    fault_seed: Optional[int] = None


@dataclass(frozen=True)
class TrialSpec:
    trials_per_degree: int
    # Batches of each conjecture per round.
    batches: int
    degrees: tuple = (2, 3, 4, 5)
    n_range: tuple = (6, 40)
    nhat_extra: tuple = (1, 10)
    rank_tol: float = 1e-12


class LoftWorkload:
    """One operation is what `closedloft loft` does for one method and per:
    parse the contour file, loft, serialize and write the surface, tessellate
    at the CLI's default lattice and write the OBJ.  The "mesh" operation is
    the read side: parse the `piegl` per-1 surface file and tessellate it on
    a dense lattice."""

    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.rows = tube_rows(self.spec.rows, self.spec.counts, seed)
        self.inputs = {}
        contours = os.path.join(workdir, "contours.json")
        write_contours(contours, self.rows)
        for method, per in COMBOS:
            self.inputs[combo_label(method, per)] = (contours, self.rows)
        if self.spec.fault_seed is not None:
            fixed = tube_rows(self.spec.rows, self.spec.counts, self.spec.fault_seed)
            path = os.path.join(workdir, "contours-fixed.json")
            write_contours(path, fixed)
            self.inputs["park.per0"] = (path, fixed)
        self.first = {}
        self.digests = {}

    def _loft_once(self, method, per):
        label = combo_label(method, per)
        path = self.inputs[label][0]
        rows = cli_io.parse_contours(path)
        if method == "piegl":
            result = loft.loft_closed_piegl(rows, DEGREE, DEGREE, per, align="auto")
        elif method == "park":
            result = loft.loft_closed_park(rows, DEGREE, DEGREE, per, alpha=1.0, beta=0.2, align="auto")
        else:
            result = loft.loft_open(rows, DEGREE, DEGREE)
        provenance = {  # as `closedloft loft` writes it
            "tool_version": closedloft.__version__,
            "method": result.method,
            "per": per,
            "alpha": 1.0 if method == "park" else None,
            "beta": 0.2 if method == "park" else None,
            "degree_u": DEGREE,
            "degree_v": DEGREE,
            "align": "auto",
            "input_digest": digest(path),
        }
        base = os.path.join(self.workdir, label)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(cli_io.serialize_surface(cli_io.SurfaceFile(result.surface, provenance)))
        with open(base + ".obj", "w", encoding="utf-8") as fh:
            fh.write(cli_io.export_obj(result.surface, *CLI_SAMPLES))
        return result

    def _mesh_once(self):
        surface = cli_io.parse_surface(read(os.path.join(self.workdir, "piegl.per1.json"))).surface
        with open(os.path.join(self.workdir, "mesh.obj"), "w", encoding="utf-8") as fh:
            fh.write(cli_io.export_obj(surface, *self.spec.mesh_samples))

    def round_ops(self, round_index):
        ops = {combo_label(m, p): lambda m=m, p=p: self._loft_once(m, p) for m, p in COMBOS}
        ops["mesh"] = self._mesh_once
        return [(label, ops[label]) for label in self.spec.order]

    def after_op(self, label, result):
        base = os.path.join(self.workdir, label)
        outputs = [base + ".obj"] if label == "mesh" else [base + ".json", base + ".obj"]
        sums = [digest(path) for path in outputs]
        if label not in self.first:
            self.first[label] = result
            self.digests[label] = sums
            return []
        if sums != self.digests[label]:
            return [f"{label}: a rerun on the same input wrote different bytes"]
        return []

    def finish(self):
        problems = []
        for label, result in self.first.items():
            check = self._check_mesh if label == "mesh" else self._check_loft
            problems += [f"{label}: {p}" for p in check(label, result)]
        for method in ("piegl", "park"):
            one, zero = self.first.get(f"{method}.per1"), self.first.get(f"{method}.per0")
            if one is None or zero is None:
                continue
            if self.inputs[f"{method}.per1"][0] != self.inputs[f"{method}.per0"][0]:
                continue  # lofted from different contours
            n1, n0 = np.prod(one.control_dims), np.prod(zero.control_dims)
            if n1 > n0:
                problems.append(f"{method}: per 1 net has {n1} control points, per 0 has {n0}")
        if "piegl.per1" in self.first:
            problems += self._check_cli("piegl", 1.0)
        return problems

    def _check_loft(self, label, result):
        base = os.path.join(self.workdir, label)
        text = read(base + ".json")
        rows = self.inputs[label][1]
        closed = not label.startswith("open")
        surface = checks.Surface(text)
        problems = []
        parsed = cli_io.parse_surface(text).surface
        mem = result.surface
        if not (
            parsed.control_net.tobytes() == mem.control_net.tobytes()
            and parsed.knots_u.knots.tobytes() == mem.knots_u.knots.tobytes()
            and parsed.knots_v.knots.tobytes() == mem.knots_v.knots.tobytes()
        ):
            problems.append("parse_surface does not give back the lofted net and knots bit for bit")
        if surface.closed_v != closed:
            problems.append(f"surface closed_v is {surface.closed_v}")
        problems += checks.check_rows_match_input(result.rows.rows, rows)
        diagonal = checks.bbox_diagonal(np.vstack(rows))
        problems += checks.check_interpolates(
            surface, result.longitudinal_params, result.row_params, result.rows.rows,
            SURFACE_TOL * diagonal,
        )
        if closed:
            problems += checks.check_seam(surface)
        obj = read(base + ".obj")
        problems += checks.check_obj_layout(obj, *CLI_SAMPLES, closed)
        problems += checks.check_obj_lattice(obj, surface, *CLI_SAMPLES, MESH_TOL * diagonal)
        return problems

    def _check_mesh(self, label, _result):
        """The dense OBJ must sit on the piegl per-1 surface, evaluated by scipy."""
        obj = read(os.path.join(self.workdir, "mesh.obj"))
        surface = checks.Surface(read(os.path.join(self.workdir, "piegl.per1.json")))
        tol = MESH_TOL * checks.bbox_diagonal(np.vstack(self.rows))
        return checks.check_obj_layout(obj, *self.spec.mesh_samples, True) + checks.check_obj_lattice(
            obj, surface, *self.spec.mesh_samples, tol
        )

    def _check_cli(self, method, per):
        """The CLI must write the same bytes as the benchmark's operation."""
        label = combo_label(method, per)
        base = os.path.join(self.workdir, "cli-" + label)
        argv = [
            "loft", "--input", self.inputs[label][0], "--method", method, "--per", repr(per),
            "--output", base + ".json", "--obj", base + ".obj",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_io.main(argv)
        if code != 0:
            return [f"closedloft loft exited {code}"]
        ours = os.path.join(self.workdir, label)
        return [
            f"closedloft loft wrote a different {ext} than the benchmark's {label} operation"
            for ext in (".json", ".obj")
            if digest(base + ext) != digest(ours + ext)
        ]

    def details(self, times):
        out = {}
        for method, per in COMBOS:
            label = combo_label(method, per)
            if times.get(label):
                name = "loft.open_s" if per is None else f"loft.{label}_s"
                out[name] = median(times[label])
        for method in ("piegl", "park"):
            result = self.first.get(f"{method}.per1")
            if result is not None:
                out[f"ctrl_points.{method}.per1"] = int(np.prod(result.control_dims))
        if times.get("mesh"):
            su, sv = self.spec.mesh_samples
            out["mesh.vertices_per_s"] = su * sv / median(times["mesh"])
        return out


class TrialWorkload:
    """One operation is one batch of `closedloft verify-conjectures`: the trials
    of one conjecture over all degrees, then the report text.  Each round runs
    both conjectures on a fresh trial seed drawn from the run's seed."""

    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed, workdir):
        self.seed = seed

    def _config(self, conjecture, round_index, batch=0):
        s = self.spec
        trial_seed = int(np.random.SeedSequence([self.seed, round_index, batch]).generate_state(1)[0])
        return conjecture_lab.TrialConfig(
            conjecture=conjecture, degrees=s.degrees, n_range=s.n_range,
            nhat_extra=s.nhat_extra, trials=s.trials_per_degree, seed=trial_seed,
            rank_tol=s.rank_tol,
        )

    def _batch(self, conjecture, round_index, batch=0):
        cfg = self._config(conjecture, round_index, batch)
        run = conjecture_lab.run_conjecture1_trials if conjecture == 1 else conjecture_lab.run_conjecture2_trials
        report = run(cfg, threads=1)
        return report, cli_io.format_report(report)

    def round_ops(self, round_index):
        return [
            (f"conj{c}", lambda c=c, b=b: self._batch(c, round_index, b))
            for b in range(self.spec.batches)
            for c in (1, 2)
        ]

    def after_op(self, label, outcome):
        report, text = outcome
        expected = len(self.spec.degrees) * self.spec.trials_per_degree
        problems = checks.check_trials(report.records, int(label[-1]), expected)
        if "counterexamples: 0\n" not in text:
            problems.append("report text does not state zero counterexamples")
        return [f"{label}: {p}" for p in problems]

    def finish(self):
        return []

    def details(self, times):
        per_batch = len(self.spec.degrees) * self.spec.trials_per_degree
        return {
            f"{label}.trials_per_s": per_batch * len(t) / sum(t)
            for label, t in times.items() if t
        }


class Workload:
    """A workload's round interleaves the operations of its parts, each
    part's operations spread evenly over the round."""

    def __init__(self, parts):
        self.parts = parts
        self._owner = {}

    def setup(self, seed, workdir):
        for part in self.parts:
            part.setup(seed, workdir)

    def round_ops(self, round_index):
        slots = []
        for index, part in enumerate(self.parts):
            ops = part.round_ops(round_index)
            self._owner.update((label, part) for label, _op in ops)
            slots += [((i + 0.5) / len(ops), index, op) for i, op in enumerate(ops)]
        return [op for _at, _index, op in sorted(slots, key=lambda slot: slot[:2])]

    def after_op(self, label, outcome):
        return self._owner[label].after_op(label, outcome)

    def finish(self):
        return [p for part in self.parts for p in part.finish()]

    def details(self, times):
        out = {}
        for part in self.parts:
            out.update(part.details({k: t for k, t in times.items() if self._owner[k] is part}))
        return out


TRIALS = TrialSpec(trials_per_degree=125, batches=6)

WORKLOADS = {
    "tube40": (
        (LoftWorkload, LoftSpec(
            rows=40, counts=(16, 32), mesh_samples=(100, 200),
            order=("piegl.per1", "park.per1", "open", "piegl.per0", "mesh", "park.per0",
                   "piegl.per1", "park.per1", "open", "piegl.per0", "mesh"),
        )),
        (TrialWorkload, TRIALS),
    ),
    "tube120": (
        (LoftWorkload, LoftSpec(
            rows=120, counts=(48, 96), mesh_samples=(200, 400), fault_seed=5,
            order=("piegl.per1", "park.per1", "piegl.per0", "mesh",
                   "park.per0", "piegl.per1", "open", "park.per1"),
        )),
        (TrialWorkload, TRIALS),
    ),
}

# Tiny specs of the same workloads, for the benchmark's tests.
TINY = {
    "tube40": (
        LoftSpec(rows=6, counts=(8, 10), mesh_samples=(5, 8), order=WORKLOADS["tube40"][0][1].order),
        TrialSpec(trials_per_degree=25, batches=6),
    ),
    "tube120": (
        LoftSpec(rows=6, counts=(8, 10), mesh_samples=(5, 8), fault_seed=5,
                 order=WORKLOADS["tube120"][0][1].order),
        TrialSpec(trials_per_degree=25, batches=6),
    ),
}


def make(name, tiny=False):
    parts = WORKLOADS[name]
    specs = TINY[name] if tiny else [spec for _cls, spec in parts]
    return Workload([cls(spec) for (cls, _spec), spec in zip(parts, specs)])
