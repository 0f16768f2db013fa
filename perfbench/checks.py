"""Correctness checks made apart from closedloft.

Surfaces are read from the written JSON with :mod:`json` and evaluated with
:meth:`scipy.interpolate.BSpline.design_matrix`, never with closedloft's own
kernels.  Every check returns a list of problems; an empty list passes.
"""

import json

import numpy as np
from scipy.interpolate import BSpline


class Surface:
    """A tensor-product B-spline read straight from a surface JSON document."""

    def __init__(self, text):
        doc = json.loads(text)
        self.p = int(doc["degree_u"])
        self.q = int(doc["degree_v"])
        self.tu = np.asarray(doc["knots_u"]["values"], dtype=float)
        self.tv = np.asarray(doc["knots_v"]["values"], dtype=float)
        net = np.asarray(doc["control_net"], dtype=float)
        if doc["knots_v"]["style"] == "cyclic":
            # distinct columns only: the first q repeat at the end
            net = np.concatenate([net, net[:, : self.q]], axis=1)
        self.net = net
        self.closed_v = bool(doc["closed_v"])

    def row_controls(self, u):
        """Control points of the v-curves at the given u values: (len(u), cols, 3)."""
        bu = BSpline.design_matrix(np.asarray(u, dtype=float), self.tu, self.p)
        rows, cols, _ = self.net.shape
        return (bu @ self.net.reshape(rows, cols * 3)).reshape(-1, cols, 3)

    def points(self, u, v):
        """Points at the lattice u × v: (len(u), len(v), 3)."""
        bv = BSpline.design_matrix(np.asarray(v, dtype=float), self.tv, self.q)
        return np.stack([bv @ c for c in self.row_controls(u)])


def bbox_diagonal(points):
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def check_rows_match_input(aligned, inputs):
    """Each aligned row must be its input row, cyclically shifted and maybe reversed."""
    problems = []
    if len(aligned) != len(inputs):
        return [f"{len(aligned)} rows lofted, {len(inputs)} given"]
    for i, (a, r) in enumerate(zip(aligned, inputs)):
        n = r.shape[0]
        if a.shape != r.shape:
            problems.append(f"row {i}: shape {a.shape} lofted, {r.shape} given")
            continue
        shift = np.nonzero(np.all(r == a[0], axis=1))[0]
        if shift.size == 0 or not any(
            np.array_equal(a, np.roll(cand, -k, axis=0))
            for cand, k in ((r, shift[0]), (r[::-1], n - 1 - shift[0]))
        ):
            problems.append(f"row {i}: lofted points are not a rotation of the input row")
    return problems


def check_interpolates(surface, s, row_params, rows, tol):
    """The surface must pass through rows[i][j] at (s[i], row_params[i][j])."""
    problems = []
    controls = surface.row_controls(s)
    for i, (t, r) in enumerate(zip(row_params, rows)):
        bv = BSpline.design_matrix(np.asarray(t, dtype=float), surface.tv, surface.q)
        worst = float(np.linalg.norm(bv @ controls[i] - r, axis=1).max())
        if not worst <= tol:
            problems.append(f"row {i}: surface misses a data point by {worst:.3e} (tolerance {tol:.1e})")
    return problems


def check_seam(surface, rel_tol=1e-6, samples=17):
    """v-derivatives of orders 0..q-1 must agree across the seam v = 0 ≡ v = 1."""
    problems = []
    for k, c in enumerate(surface.row_controls(np.linspace(0.0, 1.0, samples))):
        curve = BSpline(surface.tv, c, surface.q)
        for order in range(surface.q):
            a, b = curve(0.0, nu=order), curve(1.0, nu=order)
            scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
            gap = float(np.linalg.norm(a - b))
            if not gap <= rel_tol * scale:
                problems.append(
                    f"seam: order-{order} v-derivative jumps by {gap:.3e} at u sample {k}"
                )
    return problems


def obj_vertices(text):
    return np.array(
        [[float(x) for x in line.split()[1:4]] for line in text.splitlines() if line.startswith("v ")]
    ).reshape(-1, 3)


def check_obj_layout(text, su, sv, closed_v):
    """su·sv vertices; (su-1)·sv quads when stitched in v, (su-1)·(sv-1) otherwise."""
    lines = text.splitlines()
    nv = sum(line.startswith("v ") for line in lines)
    faces = [line.split()[1:] for line in lines if line.startswith("f ")]
    want_faces = (su - 1) * (sv if closed_v else sv - 1)
    problems = []
    if nv != su * sv:
        problems.append(f"OBJ has {nv} vertices, expected {su * sv}")
    if len(faces) != want_faces:
        problems.append(f"OBJ has {len(faces)} faces, expected {want_faces}")
    if any(len(f) != 4 or not all(1 <= int(x) <= nv for x in f) for f in faces):
        problems.append("OBJ has a face that is not a quad over existing vertices")
    return problems


def check_obj_lattice(text, surface, su, sv, tol):
    """OBJ vertices must match the surface on the export lattice."""
    us = np.linspace(0.0, 1.0, su)
    vs = np.arange(sv) / sv if surface.closed_v else np.linspace(0.0, 1.0, sv)
    want = surface.points(us, vs).reshape(-1, 3)
    got = obj_vertices(text)
    if got.shape != want.shape:
        return [f"OBJ has {got.shape[0]} vertices, expected {want.shape[0]}"]
    worst = float(np.linalg.norm(got - want, axis=1).max())
    return [] if worst <= tol else [f"OBJ vertex off the surface by {worst:.3e} (tolerance {tol:.1e})"]


def check_trials(records, conjecture, expected_count):
    """No counterexample; conjecture 1 records all satisfy the condition and are
    full rank; conjecture 2 greedy witnesses agree with exhaustive search."""
    problems = []
    if len(records) != expected_count:
        problems.append(f"{len(records)} records, expected {expected_count}")
    cex = [r for r in records if r.condition and not r.full_rank]
    if cex:
        problems.append(f"{len(cex)} counterexamples, first at degree {cex[0].degree} index {cex[0].index}")
    if conjecture == 1:
        bad = [r for r in records if not (r.condition and r.full_rank)]
        if bad:
            problems.append(f"{len(bad)} conjecture-1 records not inside the condition and full rank")
    else:
        checked = [r for r in records if r.greedy_agrees is not None]
        if not checked:
            problems.append("no conjecture-2 record was cross-checked by exhaustive search")
        if any(not r.greedy_agrees for r in checked):
            problems.append("greedy witness disagrees with exhaustive search")
    return problems
