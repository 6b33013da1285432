"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q`` from the repository root."""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import cli_workload, inputs, reference, run, workloads
from perfbench import oracle as O
from perfbench.tracing import Tracer, layer_totals
from tanvar import cli, surfaces, tangency

SEED = 0


def small_inputs(name):
    """A few cheap inputs of every kind the workload draws."""
    rng = random.Random(f"test:{name}:{SEED}")
    if name == "membership":
        return [inputs.membership_input(rng, i, 6, member) for i, member in enumerate((True, False) * 3)]
    if name == "surface":
        return [inputs.surface_input(rng, i, 10, cls) for i, cls in
                enumerate(("hyperbolic", "elliptic", "parabolic") * 2)]
    families = {}
    kinds = [("family", 4), ("family", 6), ("classify", 12), ("classify", 24), ("morin", 0), ("morin", 0)]
    return [inputs.symbolic_input(rng, i, kind, size, families) for i, (kind, size) in enumerate(kinds)]


def decide(wl, x):
    run.clear_caches()
    return wl.decide(wl.prepare(x))


@pytest.mark.parametrize("name", ["membership", "surface", "symbolic"])
def test_wrapped_and_unwrapped_calls_return_identical_values(name):
    wl = workloads.WORKLOADS[name]
    for x in small_inputs(name):
        plain = decide(wl, x)
        tracer = Tracer()
        tracer.install()
        try:
            traced = decide(wl, x)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert tracer.spans and all(span is not None for span in tracer.spans)
    assert tangency.jacobi_membership.__module__ == "tanvar.tangency"
    assert not hasattr(tangency.jacobi_membership, "__wrapped__")


def test_wrappers_reach_every_importing_module():
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.complete_to_legendre is surfaces.complete_to_legendre
        assert hasattr(cli.complete_to_legendre, "__wrapped__")
        assert hasattr(tangency.curve_type, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(cli.complete_to_legendre, "__wrapped__")


def test_self_time_is_span_minus_children():
    spans = [
        ("a", 0.0, 10.0, -1, 1, None, 0.0),
        ("b", 1.0, 4.0, 0, 1, None, 0.5),
        ("b", 5.0, 6.0, 0, 1, None, 0.0),
    ]
    totals = layer_totals(spans)
    assert totals["a.self"] == pytest.approx(10 - 3 - 0.5 - 1)
    assert totals["b.self"] == pytest.approx(4.0)
    assert totals["b.calls"] == 2
    assert totals["root"] == pytest.approx(10.0)


@pytest.mark.parametrize("name", ["membership", "surface", "symbolic"])
def test_oracle_agrees_with_the_program(name):
    wl = workloads.WORKLOADS[name]
    for x in small_inputs(name):
        assert wl.check(x, decide(wl, x)), x.ident


def test_batch_oracle_agrees_with_the_program(tmp_path):
    text, expected, code = inputs.batch_stream(random.Random(SEED), 60)
    path = tmp_path / "stream.germs"
    path.write_text(text)
    assert cli.run(["batch", str(path)]) == (code, expected)


def test_goldens_match_the_program_and_the_oracle():
    golden = cli_workload.load_golden()
    cases = cli_workload.cold_cases()
    assert [g["args"] for g in golden] == [args for args, _, _ in cases]
    for entry, (args, code, fields) in zip(golden, cases):
        assert cli_workload.oracle_agrees(args, code, fields, entry["stdout"], entry["exit"]), args
        assert cli.run(args) == (entry["exit"], entry["stdout"]), args


def test_launcher_output_equals_plain_invocation(tmp_path):
    for entry in cli_workload.load_golden()[:3]:
        spans = tmp_path / "spans.json"
        _, code, out, err = cli_workload.invoke(cli_workload.traced_prefix(), [str(spans)] + entry["args"])
        assert (code, out, err) == (entry["exit"], entry["stdout"], "")
        assert json.loads(spans.read_text())["spans"]


def failures(name, inputs_list):
    wl = workloads.WORKLOADS[name]
    return sum(not run.timed(wl, x)[1] for x in inputs_list)


def test_failed_count_rises_on_a_corrupted_membership_verdict(monkeypatch):
    xs = small_inputs("membership")
    assert failures("membership", xs) == 0
    refuted = tangency.Refuted(0, (0, 0), "corrupted")
    monkeypatch.setattr(tangency, "jacobi_membership", lambda g, h, order: refuted)
    assert failures("membership", xs) == sum(x.member for x in xs)


def test_failed_count_rises_on_a_corrupted_surface_verdict(monkeypatch):
    xs = small_inputs("surface")
    real = surfaces.saji_verdict

    def flipped(g):
        v = real(g)
        swap = {"D4+": surfaces.SajiTag.D4_MINUS, "D4-": surfaces.SajiTag.D4_PLUS}
        return replace(v, tag=swap.get(v.tag.value, v.tag))

    monkeypatch.setattr(surfaces, "saji_verdict", flipped)
    assert failures("surface", xs) == sum(x.expected_class != "parabolic" for x in xs)


def test_failed_count_rises_on_a_corrupted_batch_line():
    text, expected, code = inputs.batch_stream(random.Random(SEED), 30)
    assert cli_workload.batch_failures(expected, expected, code, code, "") == 0
    lines = expected.splitlines()
    lines[5] = lines[5] + " (corrupted)"
    assert cli_workload.batch_failures("\n".join(lines) + "\n", expected, code, code, "") == 1
    assert cli_workload.batch_failures(expected, expected, 1, code, "") == 1


def test_inputs_repeat_for_a_seed():
    for name in ("membership", "surface", "symbolic"):
        a = inputs.Stream(name, 7).cycle()
        b = inputs.Stream(name, 7).cycle()
        assert a == b
    assert inputs.batch_stream(random.Random(3), 20) == inputs.batch_stream(random.Random(3), 20)


def test_membership_obstruction_oracle_on_members_and_non_members():
    rng = random.Random(SEED)
    for order in (6, 7):
        member = inputs.membership_input(rng, 0, order, True)
        assert O.membership_obstruction(member.h, member.type_entries[0], order) is None
        other = inputs.membership_input(rng, 1, order, False)
        assert 1 <= other.obstruction <= order


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "surface", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_reference_is_a_fixed_product_and_leaves_the_collector_as_it_was():
    assert O.mul(reference._P, reference._Q, 2 * reference.DEGREE) == {
        k: v for k, v in reference._product().items() if v}
    import gc
    assert gc.isenabled()
    gc.disable()
    try:
        assert reference.reference_seconds() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert reference.reference_seconds() > 0 and gc.isenabled()


def test_bracket_returns_the_call_and_a_reference_time():
    out, ref = reference.bracket(lambda: 42, samples=3)
    assert out == 42 and 0 < ref < 1


def test_verdict_metrics_divide_each_wall_time_by_its_reference():
    walls = [0.01 * (i + 1) for i in range(100)]
    refs = [0.002] * 50 + [0.004] * 50
    metrics, raw = run.verdict_metrics(walls, refs)
    units = [w / r for w, r in zip(walls, refs)]
    assert metrics["verdict_ref_p50"] == pytest.approx(sorted(units)[49] / 2 + sorted(units)[50] / 2)
    assert metrics["verdict_ref_mean"] == pytest.approx(sum(units) / 100)
    assert raw["verdict_ms_p50"] == pytest.approx(505.0)
    assert raw["verdicts_per_s"] == pytest.approx(100 / sum(walls))
    assert raw["reference_ms"] == pytest.approx(3.0)


def test_cold_invocations_each_get_the_bare_starts_around_them():
    golden = cli_workload.load_golden()[:3]
    items = [(g["args"], g["stdout"], g["exit"], 0) for g in golden]
    stats = cli_workload.new_stats()
    cli_workload.run_items(items, cli_workload.untraced_prefix(), stats)
    assert stats["failed"] == 0 and stats["attempted"] == 3
    assert len(stats["refs"]) == len(stats["walls"]) == 3
    assert all(ref > 0 for ref in stats["refs"])
