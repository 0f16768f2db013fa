import contextlib
import hashlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closedloft import cli_io, conjecture_lab, curve_interp, linalg_solve, loft
from closedloft import spline_core as sc
from closedloft.errors import InvalidInputError

from conftest import circle_points, fast_range_floats, square_points, tube_rows


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _tube_file(tmp_path, name="tube.json", m1=8, seed=0):
    rows = tube_rows(m1, seed=seed)
    return _write(
        tmp_path, name, json.dumps({"version": 1, "rows": [r.tolist() for r in rows]})
    )


DATA = os.path.join(os.path.dirname(__file__), "data")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.main(argv)
    return code, out.getvalue(), err.getvalue()


# --- contour parsing ---

def test_parse_minimal_triangle():
    rows = cli_io.parse_contours('{"version": 1, "rows": [[[0,0,0],[1,0,0],[0,1,0]]]}')
    assert len(rows.rows) == 1
    assert rows.rows[0].shape == (3, 3)


def test_parse_rejects_duplicate_point_with_location():
    rows = [circle_points(8).tolist() for _ in range(3)]
    rows[2][5] = rows[2][4]
    rows[2][7] = rows[2][6]  # the first repeat is the one named
    text = json.dumps({"version": 1, "rows": rows})
    with pytest.raises(cli_io.ContourParseError, match="^row 2: repeated consecutive point at index 5$"):
        cli_io.parse_contours(text)


def test_parse_csv_matches_json(tmp_path):
    rows = [circle_points(6, z=0.0), circle_points(9, z=1.0)]
    json_text = json.dumps({"version": 1, "rows": [r.tolist() for r in rows]})
    csv_lines = ["# tube fixture"]
    for r in rows:
        csv_lines.extend(f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in r)
        csv_lines.append("")
    from_json = cli_io.parse_contours(json_text)
    from_csv = cli_io.parse_contours("\n".join(csv_lines))
    for a, b in zip(from_json.rows, from_csv.rows):
        np.testing.assert_array_equal(a, b)


def test_parse_alignment_hints_applied():
    base = circle_points(8)
    doc = {
        "version": 1,
        "rows": [base.tolist(), base.tolist()],
        "hints": {"starts": [0, 2], "reversed": [False, False]},
    }
    rows = cli_io.parse_contours(json.dumps(doc))
    assert rows.aligned
    np.testing.assert_array_equal(rows.rows[1], np.roll(base, -2, axis=0))


def test_parse_rejects_hint_list_shorter_than_rows(tmp_path):
    base = circle_points(8)
    doc = {"version": 1, "rows": [base.tolist()] * 5, "hints": {"starts": [1]}}
    with pytest.raises(cli_io.ContourParseError, match="hints.starts has 1 entries for 5 rows"):
        cli_io.parse_contours(json.dumps(doc))
    inp = _write(tmp_path, "short.json", json.dumps(doc))
    code, _, err = _run(["loft", "--input", inp, "--output", str(tmp_path / "s.json")])
    assert code == 1
    assert "1 entries for 5 rows" in err


def test_parse_errors():
    with pytest.raises(cli_io.ContourParseError, match="line"):
        cli_io.parse_contours('{"rows": [[[0,0,0],')
    with pytest.raises(cli_io.ContourParseError, match="at least 3"):
        cli_io.parse_contours('{"rows": [[[0,0,0],[1,0,0]]]}')
    with pytest.raises(cli_io.ContourParseError):
        cli_io.parse_contours("1 2\n")


# --- surface round trip ---

def _small_surface(rng):
    ku = sc.clamped_knot_vector([0, 0.3713281, 1], 2)
    kv = sc.cyclic_knot_vector([0, 0.2, 0.44447, 0.6, 0.8123, 1], 3)
    net = rng.normal(size=(ku.n_basis, kv.n_basis - 3, 3)) * np.pi
    return sc.BSplineSurface(ku, kv, net)


def test_surface_roundtrip_bit_exact(rng):
    sf = cli_io.SurfaceFile(_small_surface(rng), {"method": "park", "per": 1.0})
    text = cli_io.serialize_surface(sf)
    back = cli_io.parse_surface(text)
    assert back == sf
    assert np.array_equal(back.surface.control_net, sf.surface.control_net)
    assert cli_io.serialize_surface(back) == text


@pytest.mark.parametrize("field", ["degree_u", "knots_v", "control_net"])
def test_parse_surface_names_a_missing_field(rng, field):
    doc = json.loads(cli_io.serialize_surface(cli_io.SurfaceFile(_small_surface(rng))))
    del doc[field]
    with pytest.raises(InvalidInputError, match=f"surface document has no '{field}' field"):
        cli_io.parse_surface(json.dumps(doc))


def test_parse_surface_names_a_missing_knot_field(rng):
    doc = json.loads(cli_io.serialize_surface(cli_io.SurfaceFile(_small_surface(rng))))
    del doc["knots_u"]["style"]
    with pytest.raises(InvalidInputError, match="knot vector has no 'style' field"):
        cli_io.parse_surface(json.dumps(doc))


def test_parse_surface_rejects_a_degree_its_knots_do_not_have(rng):
    doc = json.loads(cli_io.serialize_surface(cli_io.SurfaceFile(_small_surface(rng))))
    assert doc["knots_u"]["degree"] == 2
    doc["degree_u"] = 3
    with pytest.raises(InvalidInputError, match="degree_u is 3 but knots_u has degree 2"):
        cli_io.parse_surface(json.dumps(doc))


@pytest.mark.parametrize("change, message", [
    ({"degree_u": "three"}, "surface document field 'degree_u' must be an integer, got \"three\""),
    ({"degree_u": None}, "surface document field 'degree_u' must be an integer, got null"),
    ({"degree_v": True}, "surface document field 'degree_v' must be an integer, got true"),
    ({"knots_u": {"style": "clamped", "degree": 2.7, "values": [0, 0, 0, 1, 1, 1]}, "degree_u": 2.7},
     "knot vector field 'degree' must be an integer, got 2.7"),
    ({"knots_v": {"style": "cyclic", "degree": "x", "values": [0, 1]}},
     "knot vector field 'degree' must be an integer, got \"x\""),
    ({"knots_u": {"style": "clamped", "degree": 2, "values": "0 0 0 1 1 1"}},
     "knot values must be a flat list of numbers"),
    ({"knots_u": {"style": "clamped", "degree": 2, "values": [0, 0, 0, "1", 1, 1]}},
     "knot values must be a flat list of numbers"),
    ({"control_net": "[[[0, 0, 0]]]"}, "control_net must be a list nested 3 deep of numbers"),
    ({"control_net": [[[0, 0, None]]]}, "control_net must be a list nested 3 deep of numbers"),
    ({"control_net": [[[0, 0, 0]], [[0, 0]]]}, "control_net must be a list nested 3 deep of numbers"),
    ({"control_net": [[[0, 0, 0]], [[0, True, 0]]]}, "control_net must be a list nested 3 deep of numbers"),
    ({"knots_u": {"style": "clamped", "degree": 2, "values": [0, 0, False, 1, 1, 1]}},
     "knot values must be a flat list of numbers"),
    ({"closed_v": "no"}, "surface document field 'closed_v' must be true or false, got \"no\""),
    ({"closed_v": 0}, "surface document field 'closed_v' must be true or false, got 0"),
])
def test_parse_surface_checks_field_types(rng, change, message):
    doc = json.loads(cli_io.serialize_surface(cli_io.SurfaceFile(_small_surface(rng))))
    doc.update(change)
    with pytest.raises(InvalidInputError) as info:
        cli_io.parse_surface(json.dumps(doc))
    assert str(info.value) == message


def test_parse_surface_rejects_malformed_json():
    with pytest.raises(InvalidInputError, match="malformed surface document at line 1, column 2"):
        cli_io.parse_surface("{]")


# --- OBJ export ---

def test_obj_bilinear_patch():
    kv = sc.clamped_knot_vector([0, 1], 1)
    net = np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], float)
    s = sc.BSplineSurface(kv, kv, net)
    text = cli_io.export_obj(s, 2, 2)
    verts = [l for l in text.splitlines() if l.startswith("v ")]
    faces = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(verts) == 4 and len(faces) == 1


def test_obj_closed_tube_stitches_seam(rng):
    s = _small_surface(rng)
    text = cli_io.export_obj(s, 10, 16)
    verts = [l for l in text.splitlines() if l.startswith("v ")]
    faces = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(verts) == 10 * 16
    assert len(faces) == 9 * 16
    # last ring of faces reuses vertex column 1
    assert any(" 1 " in f or f.endswith(" 1") for f in faces)


def test_obj_vertices_on_surface(rng):
    s = _small_surface(rng)
    text = cli_io.export_obj(s, 5, 8)
    verts = np.array(
        [[float(x) for x in l.split()[1:]] for l in text.splitlines() if l.startswith("v ")]
    )
    us = np.repeat(np.linspace(0, 1, 5), 8)
    vs = np.tile(np.arange(8) / 8, 5)
    np.testing.assert_array_equal(verts, sc.eval_surface(s, us, vs))


def test_obj_sample_validation(rng):
    with pytest.raises(InvalidInputError):
        cli_io.export_obj(_small_surface(rng), 1, 8)


# --- pinned file formats ---
#
# tests/data holds surface files and meshes written by per-element writers
# (json.dumps and a loop of float.__repr__), before the bulk writers.  The
# golden surfaces have degree 2 and knots on a 1/4 grid, so every basis
# value at the dyadic sample parameters, and every mesh coordinate, is
# exact: the meshes pin the OBJ text, not the rounding of the evaluation
# kernels.

SPECIAL_FLOATS = (-0.0, 5e-324, 1e-300, 1e16, 1e22, 0.1, 1.0 / 3.0, 2.0**53, -2.5e-8, 7.0)


def _golden_surface(closed, special):
    ku = sc.clamped_knot_vector([0, 0.5, 1], 2)
    domain = [0, 0.25, 0.5, 0.75, 1]
    kv = sc.cyclic_knot_vector(domain, 2) if closed else sc.clamped_knot_vector(domain, 2)
    cols = kv.n_basis - (2 if closed else 0)
    net = ((np.arange(ku.n_basis * cols * 3) * 37) % 61 - 30).astype(float) / 16.0
    if special:
        net[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    return sc.BSplineSurface(ku, kv, net.reshape(ku.n_basis, cols, 3))


GOLDEN_PROVENANCE = {
    True: {
        "tool_version": "0.1.0", "method": "park", "per": 0.0, "alpha": 1.0, "beta": None,
        "degree_u": 2, "degree_v": 2, "align": "auto", "note": "r\u00e9sum\u00e9 \u2603",
        "nested": {"b": [1, 2.5, {"z": None}], "a": {}, "c": []},
    },
    False: {},
}
GOLDEN = {True: ("surface_cyclic_v.json", "mesh_cyclic_v.obj", (5, 8)),
          False: ("surface_clamped_v.json", "mesh_clamped_v.obj", (3, 5))}


def _golden_bytes(name):
    with open(os.path.join(DATA, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("closed", [True, False])
def test_writers_reproduce_golden_files(closed):
    json_name, obj_name, samples = GOLDEN[closed]
    sf = cli_io.SurfaceFile(_golden_surface(closed, True), GOLDEN_PROVENANCE[closed])
    assert cli_io.serialize_surface(sf).encode("utf-8") == _golden_bytes(json_name)
    obj = cli_io.export_obj(_golden_surface(closed, False), *samples)
    assert obj.encode("utf-8") == _golden_bytes(obj_name)


def _json_oracle(surface_file):
    """The surface document as the json module lays it out."""
    s = surface_file.surface
    doc = {
        "version": 1,
        "degree_u": s.degree_u,
        "degree_v": s.degree_v,
        "knots_u": {"style": s.knots_u.style, "degree": s.knots_u.degree,
                    "values": s.knots_u.knots.tolist()},
        "knots_v": {"style": s.knots_v.style, "degree": s.knots_v.degree,
                    "values": s.knots_v.knots.tolist()},
        "closed_v": bool(s.closed_v),
        "control_net": s.control_net.tolist(),
        "provenance": surface_file.provenance,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


_coords = st.one_of(
    st.sampled_from(SPECIAL_FLOATS + (1e300, -1e-320, 123456789.0)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
    fast_range_floats(),  # the bulk formatter's own path; most draws above fall back
)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
)
_provenance = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        _json_leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=5,
)


def _domain(draw, max_interior):
    inner = draw(st.lists(st.integers(1, 999), max_size=max_interior, unique=True))
    return [0.0] + sorted(k / 1000 for k in inner) + [1.0]


@st.composite
def surface_files(draw):
    pu, pv = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    closed = draw(st.booleans())
    ku = sc.clamped_knot_vector(_domain(draw, 3), pu)
    kv = (sc.cyclic_knot_vector if closed else sc.clamped_knot_vector)(_domain(draw, 4), pv)
    cols = kv.n_basis - (pv if closed else 0)
    flat = draw(st.lists(_coords, min_size=ku.n_basis * cols * 3, max_size=ku.n_basis * cols * 3))
    net = np.asarray(flat).reshape(ku.n_basis, cols, 3)
    surface = sc.BSplineSurface(ku, kv, net, closed_v=draw(st.booleans()))
    return cli_io.SurfaceFile(surface, draw(_provenance))


@settings(deadline=None, max_examples=150)
@given(surface_files())
def test_serialize_surface_matches_json_layout(sf):
    assert cli_io.serialize_surface(sf) == _json_oracle(sf)


@settings(deadline=None, max_examples=100)
@given(surface_files())
def test_surface_roundtrip_bit_exact_property(sf):
    back = cli_io.parse_surface(cli_io.serialize_surface(sf))
    assert back == sf
    for a, b in ((back.surface.control_net, sf.surface.control_net),
                 (back.surface.knots_u.knots, sf.surface.knots_u.knots),
                 (back.surface.knots_v.knots, sf.surface.knots_v.knots)):
        assert a.tobytes() == b.tobytes()  # keeps the sign of -0.0


def test_parse_surface_rejects_a_non_finite_knot(rng):
    doc = json.loads(cli_io.serialize_surface(cli_io.SurfaceFile(_small_surface(rng))))
    doc["knots_v"]["values"][5] = float("nan")  # an interior knot; json writes NaN
    with pytest.raises(InvalidInputError, match="knots must be finite"):
        cli_io.parse_surface(json.dumps(doc))


def _obj_oracle(surface, samples_u, samples_v):
    """OBJ text written one vertex and one face at a time."""
    su, sv = int(samples_u), int(samples_v)
    us = np.linspace(0.0, 1.0, su)
    closed = surface.closed_v
    vs = (np.arange(sv) / sv) if closed else np.linspace(0.0, 1.0, sv)
    uu, vv = [a.ravel() for a in np.meshgrid(us, vs, indexing="ij")]
    pts = sc.eval_surface(surface, uu, vv).reshape(su, sv, 3)
    lines = [f"# closedloft surface mesh {su}x{sv}" + (" (v-seam stitched)" if closed else "")]
    for i in range(su):
        for j in range(sv):
            x, y, z = (float(c) for c in pts[i, j])
            lines.append(f"v {x!r} {y!r} {z!r}")

    def vid(i, j):
        return i * sv + (j % sv) + 1

    jmax = sv if closed else sv - 1
    for i in range(su - 1):
        for j in range(jmax):
            lines.append(f"f {vid(i, j)} {vid(i + 1, j)} {vid(i + 1, j + 1)} {vid(i, j + 1)}")
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=60)
@given(surface_files(), st.integers(2, 7), st.integers(2, 7))
def test_export_obj_matches_vertex_loop(sf, su, sv):
    s = sf.surface
    # a finite net of moderate size, so the evaluation stays finite
    net = np.nan_to_num(np.clip(s.control_net, -1e100, 1e100))
    s = sc.BSplineSurface(s.knots_u, s.knots_v, net, closed_v=s.closed_v)
    assert cli_io.export_obj(s, su, sv) == _obj_oracle(s, su, sv)


# --- CLI: loft ---

def test_cmd_loft_piegl(tmp_path):
    inp = _tube_file(tmp_path)
    out = str(tmp_path / "surface.json")
    obj = str(tmp_path / "mesh.obj")
    code, stdout, _ = _run(
        ["loft", "--input", inp, "--method", "piegl", "--per", "1.0",
         "--output", out, "--obj", obj]
    )
    assert code == 0
    assert "control-net=" in stdout and "max-residual=" in stdout
    sf = cli_io.parse_surface(open(out).read())
    assert sf.surface.closed_v
    assert sf.provenance["method"] == "piegl"
    assert len(sf.provenance["input_digest"]) == 64
    assert os.path.exists(obj)


def test_lofts_and_closed_curves_never_build_the_stacked_system(tmp_path, monkeypatch):
    # the row solves use the folded matrix N·E; [N; A] is for the trial harness
    original = linalg_solve.assemble_closed_system

    def refuse(*args):
        raise AssertionError("the stacked closed system was built")

    for mod in (cli_io, conjecture_lab, curve_interp, linalg_solve, loft):
        if getattr(mod, "assemble_closed_system", None) is original:
            monkeypatch.setattr(mod, "assemble_closed_system", refuse)
    with pytest.raises(AssertionError):
        conjecture_lab.run_conjecture1_trials(conjecture_lab.TrialConfig(trials=1, degrees=(3,)))
    inp = _tube_file(tmp_path, m1=5)
    for method, per in (("piegl", "1"), ("park", "0"), ("open", "1")):
        code, _, err = _run(["loft", "--input", inp, "--method", method, "--per", per,
                             "--output", str(tmp_path / f"{method}.json")])
        assert code == 0, err
    ring = _write(tmp_path, "ring.json", json.dumps({"rows": [circle_points(9).tolist()]}))
    for degree, method in (("3", "natural"), ("2", "shifting")):
        code, _, err = _run(["interp-curve", "--input", ring, "--closed", "--degree", degree,
                             "--knot-method", method])
        assert code == 0, err


def test_cmd_loft_bad_per(tmp_path):
    inp = _tube_file(tmp_path)
    code, _, err = _run(["loft", "--input", inp, "--per", "1.5", "--output", "x.json"])
    assert code == 64
    assert "per must lie in [0,1]" in err


def test_cmd_loft_park_zero_weights_usage_error(tmp_path):
    inp = _tube_file(tmp_path, m1=5)
    for per in ("0", "1"):
        code, _, err = _run(
            ["loft", "--input", inp, "--method", "park", "--per", per,
             "--alpha", "0", "--beta", "0", "--output", str(tmp_path / "z.json")]
        )
        assert code == 64
        assert "positive alpha or beta" in err


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cmd_loft_non_finite_weights_usage_error(tmp_path, flag, value):
    inp = _tube_file(tmp_path, m1=5)
    out = tmp_path / "w.json"
    code, _, err = _run(
        ["loft", "--input", inp, "--method", "park", f"{flag}={value}", "--output", str(out)]
    )
    assert code == 64
    assert "alpha and beta must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--samples-u", "--samples-v"])
def test_cmd_loft_bad_samples_usage_error_writes_nothing(tmp_path, flag):
    inp = _tube_file(tmp_path, m1=5)
    out, obj = tmp_path / "s.json", tmp_path / "s.obj"
    code, _, err = _run(
        ["loft", "--input", inp, "--output", str(out), "--obj", str(obj), flag, "1"]
    )
    assert code == 64
    assert "samples-u and samples-v must be >= 2" in err
    assert not out.exists() and not obj.exists()


def test_cmd_loft_park_degree_v1_drops_bend_weight(tmp_path):
    inp = _tube_file(tmp_path, m1=5)
    for per in ("0", "1"):
        out = str(tmp_path / f"lin{per}.json")
        code, _, err = _run(
            ["loft", "--input", inp, "--method", "park", "--degree-v", "1", "--per", per,
             "--output", out]
        )
        assert code == 0, err
        sf = cli_io.parse_surface(open(out).read())
        assert sf.surface.degree_v == 1
        assert (sf.provenance["alpha"], sf.provenance["beta"]) == (1.0, 0.0)


def test_cmd_loft_park_degree_v1_without_alpha_usage_error(tmp_path):
    inp = _tube_file(tmp_path, m1=5)
    code, _, err = _run(
        ["loft", "--input", inp, "--method", "park", "--degree-v", "1", "--alpha", "0",
         "--output", str(tmp_path / "z.json")]
    )
    assert code == 64
    assert "positive alpha or beta" in err and "no effect at --degree-v 1" in err


def test_cmd_loft_park_equals_piegl_on_equal_rows(tmp_path):
    rows = tube_rows(8, seed=4, equal_counts=18)
    inp = _write(
        tmp_path, "eq.json", json.dumps({"version": 1, "rows": [r.tolist() for r in rows]})
    )
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert _run(["loft", "--input", inp, "--method", "piegl", "--output", out1])[0] == 0
    assert _run(["loft", "--input", inp, "--method", "park", "--output", out2])[0] == 0
    s1 = cli_io.parse_surface(open(out1).read()).surface
    s2 = cli_io.parse_surface(open(out2).read()).surface
    scale = sc.bbox_diagonal(np.vstack(rows))
    assert np.abs(s1.control_net - s2.control_net).max() <= 1e-8 * scale


def test_cmd_loft_determinism(tmp_path):
    inp = _tube_file(tmp_path, seed=11)
    out1, out2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
    code1, stdout1, _ = _run(["loft", "--input", inp, "--method", "park", "--output", out1])
    code2, stdout2, _ = _run(["loft", "--input", inp, "--method", "park", "--output", out2])
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert open(out1, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize("method", ["piegl", "park", "open"])
def test_cmd_loft_collapsed_chord_exit_1(tmp_path, method):
    rows = [circle_points(16, z=0.5 * (i - 2)) for i in range(5)]
    rows[2][5] = rows[2][4] + [0.0, 0.0, 1e-20]  # distinct points, one parameter
    inp = _write(tmp_path, "rows.json", json.dumps({"version": 1, "rows": [r.tolist() for r in rows]}))
    out = tmp_path / "surface.json"
    code, _, err = _run(["loft", "--input", inp, "--method", method, "--output", str(out)])
    assert code == 1 and not out.exists()
    assert err.startswith("closedloft: invalid input: row 2: parameters coincide at index 4")


@pytest.mark.parametrize("method", ["piegl", "park"])
def test_cmd_loft_collapsed_wrap_chord_exit_1(tmp_path, method):
    rows = [circle_points(16, z=float(i)) for i in range(5)]
    rows[2][15] = rows[2][0] + [0.0, 1e-20, 0.0]  # t_n absorbs the wrap chord
    inp = _write(tmp_path, "rows.json", json.dumps({"version": 1, "rows": [r.tolist() for r in rows]}))
    out = tmp_path / "surface.json"
    code, _, err = _run(["loft", "--input", inp, "--method", method, "--align", "none", "--output", str(out)])
    assert code == 1 and not out.exists()
    assert err.startswith("closedloft: invalid input: row 2: parameters coincide at index 15")


def test_cmd_loft_missing_file(tmp_path):
    code, _, err = _run(["loft", "--input", str(tmp_path / "nope.json"), "--output", "o.json"])
    assert code == 1


def test_cmd_loft_unknown_flag(tmp_path):
    code, _, _ = _run(["loft", "--nonsense"])
    assert code == 64
    out = tmp_path / "x.json"
    code, _, err = _run(["loft", "--input", _tube_file(tmp_path, m1=5), "--output", str(out),
                         "--seed", "5"])
    assert code == 64
    assert "unrecognized arguments: --seed 5" in err and not out.exists()


# --- CLI: interp-curve ---

def test_cmd_interp_curve_square_natural(tmp_path):
    inp = _write(
        tmp_path, "sq.json", json.dumps({"version": 1, "rows": [square_points().tolist()]})
    )
    code, stdout, _ = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "1", "--knot-method", "natural"]
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["max_residual"] == 0.0
    assert doc["condition_ok"] == "true"
    assert doc["kind"] == "closed"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cmd_interp_curve_even_natural_warns(tmp_path):
    pts = circle_points(12) + np.random.default_rng(5).normal(scale=0.08, size=(12, 3))
    inp = _write(
        tmp_path, "c12.json", json.dumps({"version": 1, "rows": [pts.tolist()]})
    )
    code, stdout, err = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "4", "--knot-method", "natural"]
    )
    assert "warning" in err.lower() or "warn" in err.lower()
    assert code in (0, 2)  # ill-conditioned; may solve or fail with diagnostics


def test_cmd_interp_curve_averaging_circle(tmp_path):
    inp = _write(
        tmp_path, "c16.json",
        json.dumps({"version": 1, "rows": [circle_points(16).tolist()]}),
    )
    code, stdout, _ = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "3",
         "--knot-method", "averaging"]
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["max_residual"] < 1e-10


def test_cmd_interp_curve_input_knots(tmp_path):
    inp = _write(
        tmp_path, "c12.json",
        json.dumps({"version": 1, "rows": [circle_points(12).tolist()]}),
    )
    kv = sc.clamped_knot_vector(np.linspace(0, 1, 14), 3)
    kpath = _write(
        tmp_path, "knots.json",
        json.dumps({"style": "clamped", "degree": 3, "values": kv.knots.tolist()}),
    )
    out = str(tmp_path / "curve.json")
    code, stdout, _ = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "3",
         "--knot-method", "input", "--input-knots", kpath, "--per", "1.0",
         "--output", out]
    )
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "open"  # clamped output of the input-knots pipeline
    assert "updated_input_knots" in doc


def test_cmd_interp_curve_nested_input_knots_exit_1(tmp_path):
    inp = _write(
        tmp_path, "c12.json",
        json.dumps({"version": 1, "rows": [circle_points(12).tolist()]}),
    )
    knots = sc.clamped_knot_vector(np.linspace(0, 1, 14), 3).knots.tolist()
    kpath = _write(
        tmp_path, "knots.json",
        json.dumps({"style": "clamped", "degree": 3, "values": [knots, knots]}),
    )
    code, _, err = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "3",
         "--knot-method", "input", "--input-knots", kpath]
    )
    assert code == 1
    assert "closedloft: invalid input: knot values must be a flat list of numbers" in err


def test_cmd_interp_curve_non_finite_input_knot_exit_1(tmp_path):
    inp = _write(tmp_path, "c12.json", json.dumps({"version": 1, "rows": [circle_points(12).tolist()]}))
    knots = sc.clamped_knot_vector(np.linspace(0, 1, 14), 3).knots.tolist()
    knots[6] = float("nan")
    kpath = _write(tmp_path, "knots.json", json.dumps({"style": "clamped", "degree": 3, "values": knots}))
    code, _, err = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "3",
         "--knot-method", "input", "--input-knots", kpath]
    )
    assert (code, err) == (1, "closedloft: invalid input: knots must be finite\n")


@pytest.mark.parametrize("text, message", [
    ('{"style": "clamped", "degree": "x", "values": [0, 0, 0, 0, 1, 1, 1, 1]}',
     "knot vector field 'degree' must be an integer, got \"x\""),
    ('{"style": "clamped", "degree": 3, "values": [0, 0, 0, 0, 1, 1, 1, 1]',
     "malformed knot file at line 1, column 69"),
], ids=["degree", "malformed"])
def test_cmd_interp_curve_input_knots_of_wrong_type_exit_1(tmp_path, text, message):
    inp = _write(tmp_path, "c12.json", json.dumps({"version": 1, "rows": [circle_points(12).tolist()]}))
    kpath = _write(tmp_path, "knots.json", text)
    code, _, err = _run(
        ["interp-curve", "--input", inp, "--closed", "--degree", "3",
         "--knot-method", "input", "--input-knots", kpath]
    )
    assert (code, err) == (1, f"closedloft: invalid input: {message}\n")


def test_cmd_interp_curve_multi_row_rejected(tmp_path):
    inp = _tube_file(tmp_path)
    code, _, err = _run(["interp-curve", "--input", inp, "--closed"])
    assert code == 1


def test_cmd_interp_curve_open_requires_averaging(tmp_path):
    inp = _write(
        tmp_path, "arc.json",
        json.dumps({"version": 1, "rows": [[[0, 0, 0], [1, 1, 0], [2, 0, 0], [3, 1, 0]]]}),
    )
    code, _, _ = _run(["interp-curve", "--input", inp, "--degree", "2"])
    assert code == 64
    code, stdout, _ = _run(
        ["interp-curve", "--input", inp, "--degree", "2", "--knot-method", "averaging"]
    )
    assert code == 0


# --- CLI: verify-conjectures ---

def test_cmd_verify_deterministic_bytes():
    args = ["verify-conjectures", "--which", "1", "--trials", "40", "--seed", "42"]
    code1, out1, _ = _run(args)
    code2, out2, _ = _run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "closedloft conjecture report" in out1
    assert "rank_tol" in out1


def test_cmd_verify_which_both_and_exit_zero():
    code, out, _ = _run(
        ["verify-conjectures", "--which", "both", "--trials", "25", "--seed", "7",
         "--degrees", "2,3", "--nhat-extra", "1:4"]
    )
    assert code == 0
    assert out.count("closedloft conjecture report") == 2
    assert "counterexamples: 0" in out


def test_cmd_verify_stress_flag():
    code, out, _ = _run(
        ["verify-conjectures", "--which", "1", "--trials", "5", "--seed", "3",
         "--degrees", "3", "--stress"]
    )
    assert code == 0
    assert "stress degree=3 epsilon=" in out


def test_cmd_verify_zero_trials_usage_error():
    code, _, err = _run(["verify-conjectures", "--trials", "0"])
    assert code == 64


@pytest.mark.parametrize("tol", ["nan", "inf", "2", "1", "0", "-1"])
def test_cmd_verify_rank_tol_outside_unit_interval_exits_1(tmp_path, tol):
    out = tmp_path / "report.txt"
    code, _, err = _run(
        ["verify-conjectures", "--trials", "2", "--degrees", "3", f"--rank-tol={tol}",
         "--output", str(out)]
    )
    assert code == 1
    assert "rank_tol must lie in (0, 1)" in err
    assert not out.exists()


def test_cmd_verify_stress_report_is_pinned(tmp_path):
    # the boundary-stress and trial reports of one fixed run, byte for byte
    out = tmp_path / "report.txt"
    code, _, _ = _run(
        ["verify-conjectures", "--which", "both", "--trials", "300", "--seed", "7",
         "--stress", "--output", str(out)]
    )
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "86ae03e8362ecc6fe32e4a4726c64ae841e4e9023ab779c7d1c78dada87b9ec0"


def test_cmd_verify_conjecture2_report_is_pinned(tmp_path):
    # the trial shape of the benchmark: 125 conjecture-2 trials per degree,
    # whose (n, n̂) rarely repeat, byte for byte
    out = tmp_path / "report.txt"
    code, _, _ = _run(
        ["verify-conjectures", "--which", "2", "--trials", "125", "--seed", "3", "--output", str(out)]
    )
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "47693f223d3895cfec8fd068e4101a43e86e053b0db75258010d8cee80d16771"


@pytest.mark.parametrize("argv,message", [
    (["--trials", "3", "--degrees", "5", "--n-range", "2:3"],
     "n_range upper bound must be >= max(degrees) + 1 = 6"),
    (["--nhat-extra=-1:0", "--which", "2"], "nhat_extra must be non-negative"),
    (["--which", "1", "--trials", "3", "--degrees", "3,3"], "degrees must not repeat"),
    (["--seed", "-1"], "seed must be non-negative"),
])
def test_cmd_verify_sampling_ranges_that_cannot_draw_exit_1(tmp_path, argv, message):
    out = tmp_path / "report.txt"
    code, _, err = _run(["verify-conjectures", *argv, "--output", str(out)])
    assert code == 1
    assert f"closedloft: invalid input: {message}" in err
    assert not out.exists()


def test_cmd_verify_has_no_threads_flag():
    code, _, err = _run(["verify-conjectures", "--trials", "10", "--threads", "4"])
    assert code == 64 and "unrecognized arguments: --threads 4" in err


def test_cmd_verify_bad_ranges():
    code, _, _ = _run(["verify-conjectures", "--n-range", "banana"])
    assert code == 64
    code, _, _ = _run(["verify-conjectures", "--degrees", "a,b"])
    assert code == 64
