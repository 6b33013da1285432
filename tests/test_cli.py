import json

import pytest

from tanvar.cli import run
from tanvar.mesh import parse_obj

CUSP = "kind: curve\ntruncation: 9\ncomponent: t\ncomponent: t^2\ncomponent: t^3\n"
FOLDED = "kind: curve\ntruncation: 9\ncomponent: t\ncomponent: t^2\ncomponent: t^4\n"
ZERO = "kind: curve\ntruncation: 6\ncomponent: t - t\ncomponent: t^2 - t^2\n"
HYPERBOLIC = "kind: surface\ntruncation: 8\nx3: 1/2 u^2\nx4: 1/2 v^2\n"
SECANT = "kind: matrix\nentries: 1 0 0 1 0 0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- basic reports ------------------------------------------------------------------


def test_type_report(tmp_path):
    code, out = run(["type", write(tmp_path, "c.germ", CUSP)])
    assert code == 0
    assert "type: (1,2,3)" in out


def test_type_report_gap(tmp_path):
    germ = "kind: curve\ntruncation: 9\ncomponent: t\ncomponent: t^3 + t^4\ncomponent: t^4\ncomponent: t^6\n"
    code, out = run(["type", write(tmp_path, "c.germ", germ)])
    assert code == 0
    assert "type: (1,3,4,6)" in out


def test_type_zero_curve_inconclusive(tmp_path):
    code, out = run(["type", write(tmp_path, "z.germ", ZERO)])
    assert code == 3
    assert "not finite type up to truncation 6" in out


def test_classify_flags():
    code, out = run(
        ["classify", "--type", "1,2,4,5", "--class", "osculating", "--ambient", "5"]
    )
    assert code == 0
    assert "open folded umbrella" in out
    assert "generic: yes" in out


def test_classify_contact_pleat():
    code, out = run(["classify", "--type", "2,3,5", "--class", "contact"])
    assert code == 0
    assert "generic folded pleat" in out
    assert "caveat" in out


def test_classify_unclassified_exit_code():
    code, out = run(["classify", "--type", "1,3,5,7", "--class", "plain"])
    assert code == 3
    assert "unclassified" in out


def test_enumerate_contact():
    code, out = run(["enumerate", "--class", "contact", "--n", "2"])
    assert code == 0
    for entries in ("(1,2,3,4,5)", "(1,2,4,5,6)", "(1,3,4,6,7)", "(2,3,4,5,7)"):
        assert entries in out


def test_codim_reports():
    code, out = run(["codim", "--type", "1,3,4,6", "--class", "plain", "--N", "3"])
    assert code == 0 and "codimension: 4" in out
    code, out = run(
        ["codim", "--type", "1,3,4,6,7", "--class", "contact", "--n", "2"]
    )
    assert code == 0 and "codimension: 1" in out


def test_codim_general_flag_depth():
    code, out = run(
        ["codim", "--type", "2,3,4,5", "--class", "flag", "--k", "1", "--N", "3"]
    )
    assert code == 0 and "codimension: 1" in out


def test_tangent_report(tmp_path):
    code, out = run(["tangent", write(tmp_path, "f.germ", FOLDED)])
    assert code == 0
    assert "folded umbrella" in out
    assert "frontal: yes" in out
    assert "order P3: 3" in out  # a3 - a1
    assert "order Q3: 2" in out  # a3 - a2


def test_tangent_not_frontal_verdict(tmp_path):
    germ = "kind: curve\ntruncation: 9\ncomponent: t\ncomponent: t^4\ncomponent: t^2\n"
    code, out = run(["tangent", write(tmp_path, "m.germ", germ)])
    assert code == 3
    assert "not frontal up to truncation 9" in out


def test_surface_report(tmp_path):
    code, out = run(["surface", write(tmp_path, "s.germ", HYPERBOLIC)])
    assert code == 0
    assert "ordinary class: hyperbolic" in out
    assert "H: -1" in out
    assert "D4 verdict: D4+" in out


def test_surface_closedness_guard(tmp_path):
    bad = "kind: surface\ntruncation: 8\nx3: 1/2 u^2 + v^3\nx4: 1/2 v^2\n"
    code, out = run(["surface", write(tmp_path, "b.germ", bad)])
    assert code == 2
    assert "error" in out


def test_veronese_entries_flag():
    code, out = run(["veronese", "--entries", "1 0 0 1 0 0"])
    assert code == 0
    assert "in Sec(S) \\ Tan(S)" in out
    code, out = run(["veronese", "--entries", "1 0 0 -1 0 0"])
    assert "in Tan(S)" in out


@pytest.mark.parametrize("token", ["0.5", "1e3", "1_000"])
def test_veronese_rejects_non_rational_entries(tmp_path, token):
    entries = f"1 0 0 {token} 0 0"
    code, out = run(["veronese", "--entries", entries])
    assert (code, out) == (2, f"error: bad matrix entries: '{token}' is not a rational p/q\n")
    doc = write(tmp_path, "m.germ", f"kind: matrix\nentries: {entries}\n")
    assert run(["veronese", doc]) == (code, out)


def test_opening_report(tmp_path):
    code, out = run(["opening", write(tmp_path, "c.germ", CUSP)])
    assert code == 0
    assert "certificates: 1" in out


def test_morin_report():
    code, out = run(["morin", "--k", "2", "--m", "0"])
    assert code == 0
    assert "F: t*l1 + t^3" in out
    assert "F_(1): 1/3*t^3*l1 + 1/5*t^5" in out
    assert "F_(2): 1/4*t^4*l1 + 1/6*t^6" in out


def test_family_report():
    code, out = run(["family", "--type", "1,2,4,5"])
    assert code == 0
    assert "x2: -2*t*x1 - 10/3*t^2" in out
    assert "x3: 2*t^3*x1 + 5*t^4" in out
    assert "x4: -t^4*x1 - 8/3*t^5" in out


def test_family_pattern_guard():
    code, out = run(["family", "--type", "1,3,5,7"])
    assert code == 2
    assert "error" in out


def test_normal_form_report():
    code, out = run(["normal-form", "--singularity", "open-swallowtail", "--ambient", "4"])
    assert code == 0
    assert "(s,t) chart component 1: 2*s + t^2" in out
    assert "(u,x) chart component 2: u*x + x^3" in out


def test_batch(tmp_path):
    text = CUSP + "---\n" + SECANT + "---\n" + HYPERBOLIC
    code, out = run(["batch", write(tmp_path, "b.germs", text)])
    assert code == 0
    assert "document 1: curve: type (1,2,3)" in out
    assert "document 2: matrix: in Sec(S) \\ Tan(S)" in out
    assert "document 3: surface: hyperbolic, H = -1" in out


def test_batch_propagates_guard(tmp_path):
    text = CUSP + "---\nkind: curve\ntruncation: 4\n"
    code, out = run(["batch", write(tmp_path, "b.germs", text)])
    assert code == 2


# -- structured format, determinism, meshes ----------------------------------------------


def test_structured_format():
    code, out = run(["enumerate", "--class", "plain", "--N", "3", "--format", "structured"])
    assert code == 0
    obj = json.loads(out)
    assert obj["types"] == ["(1,2,3,4)", "(1,2,3,5)"]


def test_reports_deterministic(tmp_path):
    germ = write(tmp_path, "c.germ", CUSP)
    surface = write(tmp_path, "s.germ", HYPERBOLIC)
    invocations = [
        ["type", germ],
        ["classify", "--type", "1,2,4,5", "--class", "osculating"],
        ["enumerate", "--class", "contact", "--n", "2"],
        ["codim", "--type", "1,3,4,6", "--class", "plain", "--N", "3"],
        ["tangent", germ],
        ["surface", surface],
        ["veronese", "--entries", "1 0 0 1 0 0"],
        ["opening", germ],
        ["morin", "--k", "3", "--m", "1"],
        ["family", "--type", "1,2,4,5"],
        ["normal-form", "--singularity", "cuspidal-edge", "--ambient", "3"],
    ]
    for argv in invocations:
        first = run(argv)
        second = run(argv)
        assert first == second


def test_subprocess_determinism():
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "tanvar.cli", "enumerate", "--class", "osculating", "--N", "4"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_mesh_export_and_roundtrip(tmp_path):
    germ = write(tmp_path, "c.germ", CUSP)
    target = tmp_path / "out.obj"
    code, out = run(["tangent", germ, "--mesh", str(target), "--grid", "50"])
    assert code == 0
    text = target.read_text()
    vertices, faces = parse_obj(text)
    assert len(vertices) == 2500
    assert len(faces) == 49 * 49
    assert all(len(f) == 4 for f in faces)
    assert all(1 <= i <= len(vertices) for f in faces for i in f)
    # printed precision round-trips
    for (x, y, z), line in zip(vertices, [l for l in text.splitlines() if l.startswith("v ")]):
        _, xs, ys, zs = line.split()
        assert (float(xs), float(ys), float(zs)) == (x, y, z)
        assert f"{x:.9g}" == xs


def test_mesh_coordinate_guard(tmp_path):
    germ = write(tmp_path, "c.germ", CUSP)
    code, out = run(
        ["tangent", germ, "--mesh", str(tmp_path / "o.obj"), "--coords", "1,2,9"]
    )
    assert code == 2
