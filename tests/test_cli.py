import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

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


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv, length",
    [
        (["classify", "--type", "1,2,3", "--ambient", "1100"], 1100),
        (["classify", "--type", "1,2,3", "--ambient", "1000000000"], 1000000000),
        (["classify", "--type", ",".join(map(str, range(1, 258)))], 257),
        (["enumerate", "--class", "contact", "--n", "600"], 1201),
        (["enumerate", "--class", "plain", "--N", "256"], 257),
        (["normal-form", "--singularity", "cuspidal-edge", "--ambient", "100000000"], 100000000),
        (["family", "--type", ",".join(map(str, range(1, 258)))], 257),
    ],
)
def test_type_length_cap(argv, length):
    message = f"type length {length} exceeds 256"
    assert run(argv) == (2, f"error: {message}\n")
    code, out = run(argv + ["--format", "structured"])
    assert (code, json.loads(out)) == (2, {"error": message})


def test_type_length_cap_exits_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "tanvar.cli", "enumerate", "--class", "contact", "--n", "600"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "error: type length 1201 exceeds 256\n",
        "",
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        ["codim", "--type", "1,2,3,4"],
        ["classify", "--type", "1,2,3,4"],
        ["enumerate", "--N", "3"],
    ],
)
@pytest.mark.parametrize("k", ["0", "4"])
def test_flag_depth_out_of_range(argv, k):
    message = "flag depth must satisfy 1 <= k <= N"
    argv = argv + ["--class", "flag", "--k", k]
    assert run(argv) == (2, f"error: {message}\n")
    code, out = run(argv + ["--format", "structured"])
    assert (code, json.loads(out)) == (2, {"error": message})


@pytest.mark.parametrize(
    "argv",
    [
        ["codim", "--type", "1,2", "--class", "tpn"],
        ["classify", "--type", "1,2", "--class", "tpn"],
        ["enumerate", "--class", "tpn", "--N", "1"],
    ],
)
def test_class_depth_above_dimension(argv):
    message = "tangent-principal-normal-framed curves need N >= 2"
    assert run(argv) == (2, f"error: {message}\n")
    code, out = run(argv + ["--format", "structured"])
    assert (code, json.loads(out)) == (2, {"error": message})


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


@pytest.mark.parametrize("truncation", [0, 1])
def test_surface_truncation_below_two_is_refused(tmp_path, truncation):
    doc = write(tmp_path, "s.germ", f"kind: surface\ntruncation: {truncation}\nx3: 0\nx4: 0\n")
    message = "surface charts need truncation at least 2"
    assert run(["surface", doc]) == (2, f"error: {message}\n")
    assert run(["batch", doc]) == (
        2, f"command: batch\ndocuments: 1\ndocument 1: error: {message}\n"
    )


def test_surface_truncation_two_lacks_the_quadratic_part(tmp_path):
    doc = write(tmp_path, "s.germ", "kind: surface\ntruncation: 2\nx3: 1/2 u^2\nx4: 1/2 v^2\n")
    code, out = run(["surface", doc])
    assert (code, out) == (2, "error: truncation too small for the quadratic part\n")


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


def test_zero_denominator_coefficient_is_reported(tmp_path):
    doc = write(tmp_path, "z.germ", "kind: curve\ntruncation: 4\ncomponent: 1/0 t\n")
    code, out = run(["type", doc])
    assert (code, out) == (2, "error: bad coefficient: '1/0' has a zero denominator\n")


def test_opening_report(tmp_path):
    code, out = run(["opening", write(tmp_path, "c.germ", CUSP)])
    assert code == 0
    assert "certificates: 1" in out


def test_opening_not_finite_type_is_inconclusive(tmp_path):
    germ = "kind: curve\ntruncation: 4\ncomponent: t\ncomponent: t^2\ncomponent: t^2\n"
    code, out = run(["opening", write(tmp_path, "n.germ", germ)])
    assert (code, out) == (
        3,
        "command: opening\nverdict: germ is not of finite type within truncation 4\n",
    )


def test_opening_one_component_curve_is_refused(tmp_path):
    germ = write(tmp_path, "c.germ", "kind: curve\ntruncation: 2\ncomponent: 3 t^2\n")
    code, out = run(["opening", germ])
    assert (code, out) == (2, "error: the lift needs at least two curve components\n")


def test_morin_report():
    code, out = run(["morin", "--k", "2", "--m", "0"])
    assert code == 0
    assert "F: t*l1 + t^3" in out
    assert "F_(1): 1/3*t^3*l1 + 1/5*t^5" in out
    assert "F_(2): 1/4*t^4*l1 + 1/6*t^6" in out


@pytest.mark.parametrize("k, m, count", [(257, 0, 257), (129, 1, 258), (2, 128, 258), (1, 256, 257)])
def test_morin_variable_cap(k, m, count):
    argv = ["morin", "--k", str(k), "--m", str(m)]
    message = f"variable count k*(m+1) = {count} exceeds 256"
    assert run(argv) == (2, f"error: {message}\n")
    code, out = run(argv + ["--format", "structured"])
    assert (code, json.loads(out)) == (2, {"error": message})


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


# every classified singularity, in the least ambient dimension it needs
NORMAL_FORM_SLUGS = [
    ("cuspidal-edge", 3),
    ("folded-umbrella", 3),
    ("swallowtail", 3),
    ("mond-surface", 3),
    ("open-swallowtail", 4),
    ("open-mond-surface", 4),
    ("open-folded-umbrella", 4),
    ("unfurled-mond-surface", 4),
    ("generic-folded-pleat", 3),
]


def test_normal_form_reports_pinned():
    # tests/data/normal_forms.txt holds the nine reports, concatenated
    outs = []
    for slug, ambient in NORMAL_FORM_SLUGS:
        code, out = run(["normal-form", "--singularity", slug, "--ambient", str(ambient)])
        assert code == 0, slug
        outs.append(out)
    golden = (pathlib.Path(__file__).parent / "data" / "normal_forms.txt").read_text()
    assert "".join(outs) == golden


# tests/data/surface_reports.txt holds, for each dense document below, the
# document and its `tanvar surface` report in both formats, each block headed
# by a `### ` line; it was captured before the D4 verdict read 2-jets only.
SURFACE_QUADS = [
    ("hyperbolic", (2, 1, -1, 3)),
    ("elliptic", (1, F(1, 2), -1, F(1, 3))),
    ("parabolic", (0, 0, 1, 0)),
    ("not ordinary", (2, 1, F(1, 2), F(1, 4))),
]


def _poly_text(terms):
    monomials = (
        " ".join([str(c)] + [x if k == 1 else f"{x}^{k}" for x, k in (("u", i), ("v", j)) if k])
        for (i, j), c in terms
    )
    return " + ".join(monomials).replace("+ -", "- ")


def dense_surface_document(quad, K):
    """x3 = P_u, x4 = P_v for a potential P with every monomial of degree 4..K+1."""
    a, b, c, e = (F(x) for x in quad)
    P = {(3, 0): a / 6, (2, 1): b / 2, (1, 2): c / 2, (0, 3): e / 6}
    for d in range(4, K + 2):
        for j in range(d + 1):
            i = d - j
            P[i, j] = F((3 * i + 5 * j) % 7 - 3 or 2, 1 + (i + 2 * j) % 4)
    x3, x4 = {}, {}
    for (i, j), p in P.items():
        if p and i:
            x3[i - 1, j] = p * i
        if p and j:
            x4[i, j - 1] = p * j
    return (
        f"kind: surface\ntruncation: {K}\n"
        f"x3: {_poly_text(sorted(x3.items()))}\nx4: {_poly_text(sorted(x4.items()))}\n"
    )


def surface_reports(tmp_path):
    blocks = []
    for K in (6, 12, 22):
        for label, quad in SURFACE_QUADS:
            doc = dense_surface_document(quad, K)
            path = write(tmp_path, "s.germ", doc)
            blocks.append(f"### {label}, truncation {K}\n{doc}")
            for fmt in ("plain", "structured"):
                code, out = run(["surface", path, "--format", fmt])
                blocks.append(f"### {fmt}, exit {code}\n{out}")
            assert f"ordinary class: {label}\n" in blocks[-2]  # the plain report
    return "".join(blocks)


def test_surface_reports_pinned(tmp_path):
    golden = (pathlib.Path(__file__).parent / "data" / "surface_reports.txt").read_text()
    assert surface_reports(tmp_path) == golden


def test_normal_form_guards():
    code, out = run(["normal-form", "--singularity", "open-swallowtail", "--ambient", "3"])
    assert (code, out) == (2, "error: open swallowtail needs ambient dimension >= 4\n")
    code, out = run(["normal-form", "--singularity", "cusp", "--ambient", "3"])
    assert code == 2
    assert out == (
        "error: unknown singularity; choose from " + ", ".join(sorted(s for s, _ in NORMAL_FORM_SLUGS))
        + "\n"
    )


def test_normal_form_mesh(tmp_path):
    target = tmp_path / "nf.obj"
    code, out = run(
        ["normal-form", "--singularity", "open-swallowtail", "--ambient", "4",
         "--mesh", str(target), "--grid", "3", "--coords", "1,2,4"]
    )
    assert code == 0
    assert out.endswith(f"mesh: {target} (9 vertices, 4 faces)\n")
    text = target.read_text()
    assert text.splitlines()[0] == (
        "# provenance: normal form open-swallowtail, (s,t) chart, coords 1,2,4"
    )
    vertices, faces = parse_obj(text)
    # (s,t) = (1,-1) maps to (2*s + t^2, ..., 5*s*t^3 + t^5) = (3, -4, -6) on coords 1,2,4
    assert vertices[6] == (3.0, -4.0, -6.0)
    assert len(faces) == 4
    code, out = run(
        ["normal-form", "--singularity", "open-swallowtail", "--ambient", "4",
         "--mesh", str(target), "--coords", "1,2,9"]
    )
    assert (code, out) == (2, "error: coordinate index 9 out of range\n")


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


# -- internal invariant failures ---------------------------------------------------


def spoiled(check):
    """(module, name, replacement) that makes one exact re-check find a residual."""
    from tanvar import surfaces, tangency
    from tanvar.jets import Jet2

    if check == "pullback":
        return surfaces, "_potential", lambda A, B: Jet2.zero(A.truncation + 1)
    if check == "slice":
        return (
            surfaces,
            "slice_frontality_residuals",
            lambda g1, g2, g3: (Jet2.constant(1, g1.truncation - 1),) * 2,
        )
    real = tangency.lift_residuals

    def lift_residuals(tmap, lift):
        R, residuals = real(tmap, lift)
        return R, tuple((rs + Jet2.constant(1, R), rt) for rs, rt in residuals)

    return tangency, "lift_residuals", lift_residuals


PULLBACK = "contact pullback failed to vanish after integration"
INTERNAL_CASES = [
    ("surface", HYPERBOLIC, "pullback", "internal error", PULLBACK),
    ("surface", HYPERBOLIC, "slice", "internal error", "slice frontality identity failed"),
    ("opening", CUSP, "lift", "internal error",
     "lift identity failed for component 3: nonzero residual"),
    ("batch", CUSP + "---\n" + HYPERBOLIC, "pullback", "document 2",
     "internal error: " + PULLBACK),
]


@pytest.mark.parametrize("command, doc, check, key, message", INTERNAL_CASES)
def test_internal_error_report(tmp_path, monkeypatch, command, doc, check, key, message):
    monkeypatch.setattr(*spoiled(check))
    path = write(tmp_path, "in.germ", doc)
    code, out = run([command, path])
    assert code == 3
    assert out.splitlines()[-1] == f"{key}: {message}"
    code, out = run([command, path, "--format", "structured"])
    assert code == 3 and json.loads(out)[key] == message
    if command != "batch":
        assert out == json.dumps({key: message}, indent=2) + "\n"


def test_internal_error_in_batch_ranks_below_guard(tmp_path, monkeypatch):
    monkeypatch.setattr(*spoiled("pullback"))
    text = HYPERBOLIC + "---\nkind: curve\ntruncation: 4\n"
    code, out = run(["batch", write(tmp_path, "b.germs", text)])
    assert code == 2
    assert f"document 1: internal error: {PULLBACK}" in out
    assert "document 2: error: " in out


@pytest.mark.parametrize("command, doc, check, key, message", INTERNAL_CASES[1:])
def test_internal_error_exits_without_traceback(tmp_path, command, doc, check, key, message):
    script = (
        "import sys, test_cli; setattr(*test_cli.spoiled(sys.argv[1])); "
        "from tanvar.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    tests = pathlib.Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", script, check, command, write(tmp_path, "in.germ", doc)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join((str(SRC), str(tests)))},
    )
    assert (proc.returncode, proc.stdout.splitlines()[-1], proc.stderr) == (
        3,
        f"{key}: {message}",
        "",
    )


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
    env = {"PYTHONPATH": str(SRC)}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
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


def test_export_meshes_script(tmp_path):
    script = SRC.parent / "scripts" / "export_meshes.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path), "--grid", "2"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{slug}.obj" for slug, _ in NORMAL_FORM_SLUGS
    )
    for slug, ambient in NORMAL_FORM_SLUGS:
        text = (tmp_path / f"{slug}.obj").read_text()
        assert text.splitlines()[0] == (
            f"# provenance: {slug} normal form, coords (1, 2, {ambient})"
        )
        vertices, faces = parse_obj(text)
        assert (len(vertices), len(faces)) == (4, 1)


@pytest.mark.parametrize("command", ["tangent", "normal-form"])
def test_mesh_grid_cap(tmp_path, command):
    if command == "tangent":
        argv = ["tangent", write(tmp_path, "c.germ", CUSP)]
    else:
        argv = ["normal-form", "--singularity", "cuspidal-edge", "--ambient", "3"]
    target = tmp_path / "big.obj"
    code, out = run(argv + ["--mesh", str(target), "--grid", "501"])
    assert (code, out) == (2, "error: grid must be at most 500\n")
    assert not target.exists()


def test_reproduce_tables_script():
    script = SRC.parent / "scripts" / "reproduce_tables.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    expected = pathlib.Path(__file__).parent / "data" / "generic_tables.txt"
    assert proc.stdout == expected.read_text()


def test_mesh_coordinate_guard(tmp_path):
    germ = write(tmp_path, "c.germ", CUSP)
    code, out = run(
        ["tangent", germ, "--mesh", str(tmp_path / "o.obj"), "--coords", "1,2,9"]
    )
    assert code == 2
