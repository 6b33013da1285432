"""The ``cli`` workload: cold ``tanvar`` invocations and ``batch`` throughput.

Each cycle runs every invocation of ``cold_cases`` (every subcommand in
both ``--format`` modes) as a child process, one at a time and in a seeded
order, then one ``batch`` invocation on a fresh seeded stream of
``BATCH_DOCS`` documents.  Cold outputs are compared byte for byte with
``golden.json``; batch reports with the lines the generator expects.
Interpreter start, import, ``germdoc`` parsing and the guard path are paid
only here.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import List

from . import inputs
from . import oracle as O
from .reference import bracket
from .tracing import layer_totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "perfbench", "golden.json")
CURVE = "perfbench/cli_inputs/curve.germ"
SURFACE = "perfbench/cli_inputs/surface.germ"
SMALL_BATCH = "perfbench/cli_inputs/small.germs"
ENTRY = "import sys; from tanvar.cli import main; sys.exit(main())"
# About 3.4 s at the seed on one core, so start-up is under a tenth of it.
BATCH_DOCS = 3000

# The curve document has type (1,3,4,6) at truncation 9; the surface
# document has quadratic data (1, 0, 0, 1).  Each entry: arguments and the
# report fields the oracle knows for them.
_CURVE_TYPE = (1, 3, 4, 6)
_OSC_TYPE = (1, 2, 4, 5, 6)
_SURFACE_QUAD = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def cold_cases():
    H = O.h_invariant(_SURFACE_QUAD)
    cls = O.ordinary_class(_SURFACE_QUAD)
    base = [
        (["type", CURVE], 0, {"type": "(1,3,4,6)"}),
        (["classify", CURVE], 0, {"type": "(1,3,4,6)", "singularity": O.singularity(_CURVE_TYPE, False),
                                  "generic": "yes" if O.codim_plain(_CURVE_TYPE) <= 1 else "no"}),
        (["classify", "--type", "1,2,4,5", "--class", "osculating", "--ambient", "5"], 0,
         {"type": "(1,2,4,5,6)", "singularity": O.singularity(_OSC_TYPE, False),
          "generic": "yes" if O.codim_flag(_OSC_TYPE, 4) <= 1 else "no"}),
        (["enumerate", "--class", "contact", "--n", "2"], 0,
         {"count": len(list(O.generic_types(5, O.codim_contact, O.contact_admissible)))}),
        (["codim", "--type", "1,3,4,6", "--class", "plain", "--N", "3"], 0,
         {"codimension": O.codim_plain(_CURVE_TYPE)}),
        # the lift is verified to order K + 1 - a1 - a2
        (["tangent", CURVE], 0, {"type": "(1,3,4,6)", "frontal": "yes (lift verified to order 6)"}),
        (["surface", SURFACE], 0, {"H": str(H), "ordinary class": cls, "D4 verdict": O.D4_BY_CLASS[cls]}),
        (["veronese", "--entries", "1 0 0 -1 0 0"], 0, {"membership": inputs.VERONESE_TEXT["tangent"]}),
        (["opening", CURVE], 0, {"certificates": len(_CURVE_TYPE) - 2}),
        (["morin", "--k", "2", "--m", "1"], 0, {"generators (with 1)": 1 + 2 + 1}),
        (["family", "--type", "1,2,4,5"], 0, {"pattern": O.family_pattern((1, 2, 4, 5))}),
        (["normal-form", "--singularity", "open-swallowtail", "--ambient", "4"], 0,
         {"singularity": "open swallowtail", "ambient": 4}),
        (["batch", SMALL_BATCH], 2, None),  # fields: the stored generator lines
    ]
    return [(args + ["--format", fmt], code, fields) for fmt in ("plain", "structured")
            for args, code, fields in base]


def small_batch_expected() -> str:
    with open(os.path.join(ROOT, SMALL_BATCH + ".expected")) as handle:
        return handle.read()


def report_fields(stdout: str, fmt: str) -> dict:
    if fmt == "structured":
        return json.loads(stdout)
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def oracle_agrees(args: List[str], code: int, fields, stdout: str, exit_code: int) -> bool:
    """A golden output agrees with what the oracle knows about its invocation."""
    if exit_code != code:
        return False
    fmt = args[-1]
    got = report_fields(stdout, fmt)
    if fields is None:  # the small batch: every generator line must be in the report
        want = report_fields(small_batch_expected(), "plain")
        return all(str(got.get(k)) == v for k, v in want.items())
    return all(str(got.get(k)) == str(v) for k, v in fields.items())


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def invoke(prefix: List[str], args: List[str]):
    start = time.perf_counter()
    proc = subprocess.run(prefix + args, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=150)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def batch_failures(stdout: str, expected: str, code: int, want_code: int, stderr: str) -> int:
    got = stdout.splitlines()
    want = expected.splitlines()
    failed = sum(1 for i, line in enumerate(want[2:], 2) if i >= len(got) or got[i] != line)
    if not failed and (got != want or code != want_code or "Traceback" in stderr):
        failed = 1
    return failed


class CliRun:
    """One run of the workload: cycles of cold invocations plus a batch."""

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(f"cli:{seed}")
        self.seed = seed
        self.out_dir = out_dir
        self.golden = load_golden()
        self.paths: List[str] = []

    def cycle(self):
        """Invocations of one cycle: (args, expected stdout, expected exit, docs)."""
        cases = list(self.golden)
        self.rng.shuffle(cases)
        items = [(c["args"], c["stdout"], c["exit"], 0) for c in cases]
        text, expected, code = inputs.batch_stream(self.rng, BATCH_DOCS)
        path = os.path.join(self.out_dir, f"batch-{self.seed}-{len(self.paths)}.germs")
        with open(path, "w") as handle:
            handle.write(text)
        self.paths.append(path)
        items.append((["batch", os.path.relpath(path, ROOT)], expected, code, BATCH_DOCS))
        return items

    def remove_streams(self):
        for path in self.paths:
            os.remove(path)


def bare_start_seconds() -> float:
    """Wall time of a bare isolated interpreter start (``-I``: it never sees
    ``src/``), the reference of the cold invocations."""
    return invoke([sys.executable, "-I", "-c", "pass"], [])[0]


def run_items(items, prefix, stats, trace_dir=None):
    """Run invocations; add walls, references, attempts and failures to ``stats``.

    A cold invocation is mostly process start-up, which the host slows
    differently from arithmetic, so its reference is a bare interpreter
    start: the mean of those timed right before and right after it (shared
    with its neighbours).  A batch is mostly arithmetic in the child; it runs
    for seconds once a cycle and is bracketed by five references a side.
    """
    starts = []
    for args, expected, code, docs in items:
        argv = args
        if trace_dir is not None:  # the launcher's first argument: where its spans go
            spans = f"spans-{len(stats['walls']) + len(stats['batch'])}.json"
            argv = [os.path.join(trace_dir, spans)] + args
        if docs:
            (wall, got_code, out, err), ref = bracket(lambda: invoke(prefix, argv), 5)
            stats["batch"].append((wall, docs, ref))
            stats["attempted"] += docs
            stats["failed"] += batch_failures(out, expected, got_code, code, err)
            continue
        if not starts:
            starts.append(bare_start_seconds())
        wall, got_code, out, err = invoke(prefix, argv)
        starts.append(bare_start_seconds())
        stats["walls"].append(wall)
        stats["attempted"] += 1
        if out != expected or got_code != code or "Traceback" in err:
            stats["failed"] += 1
            print(f"mismatch: tanvar {' '.join(args)} (exit {got_code})", file=sys.stderr)
    stats["refs"].extend((a + b) / 2 for a, b in zip(starts, starts[1:]))


def new_stats():
    return {"walls": [], "refs": [], "batch": [], "attempted": 0, "failed": 0}


def untraced_prefix():
    return [sys.executable, "-c", ENTRY]


def traced_prefix():
    return [sys.executable, os.path.join(ROOT, "perfbench", "launcher.py")]


def busy_seconds(stats) -> float:
    return sum(stats["walls"]) + sum(w for w, _, _ in stats["batch"])


def measure(seed: int, seconds: float, out_dir: str):
    run = CliRun(seed, out_dir)
    stats = new_stats()
    try:
        while busy_seconds(stats) < seconds:
            run_items(run.cycle(), untraced_prefix(), stats)
    finally:
        run.remove_streams()
    return stats


def end_to_end(stats):
    """Reference-unit metrics (cold invocations in bare interpreter starts;
    batch time per document in reference products) and the wall-clock
    figures for the ``raw:`` line."""
    walls, refs = stats["walls"], stats["refs"]
    units = [w / r for w, r in zip(walls, refs)]
    walls_ms = [w * 1000 for w in walls]
    docs = sum(d for _, d, _ in stats["batch"])
    metrics = {
        "verdict_ref_p50": statistics.median(units),
        "verdict_ref_p90": statistics.quantiles(units, n=10)[8],
        "verdict_ref_mean": sum(w / r for w, _, r in stats["batch"]) / docs,
    }
    raw = {
        "cli_ms_p50": statistics.median(walls_ms),
        "cli_ms_p90": statistics.quantiles(walls_ms, n=10)[8],
        "batch_docs_per_s": docs / sum(w for w, _, _ in stats["batch"]),
        "bare_start_ms": statistics.median(refs) * 1000,
        "reference_ms": statistics.median(r for _, _, r in stats["batch"]) * 1000,
    }
    return metrics, raw


def control_ms(code: str, repeats: int = 5) -> float:
    walls = [invoke([sys.executable, "-c", code], [])[0] for _ in range(repeats)]
    return statistics.median(walls) * 1000


def trace(seed: int, seconds: float, out_dir: str):
    """Cycles run through the launcher, each invocation also run untraced."""
    run = CliRun(seed, out_dir)
    items = [item for _ in range(max(1, int(seconds // 20))) for item in run.cycle()]
    trace_dir = os.path.join(out_dir, f"cli-spans-{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced, plain = new_stats(), new_stats()
    try:
        for i, item in enumerate(items):
            # each invocation traced and untraced, alternating which goes first
            for is_traced in (i % 2 == 0, i % 2 == 1):
                if is_traced:
                    run_items([item], traced_prefix(), traced, trace_dir)
                else:
                    run_items([item], untraced_prefix(), plain)
    finally:
        run.remove_streams()
    totals = {}
    import_s = 0.0
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as handle:
            dump = json.load(handle)
        import_s += dump["import_s"]
        for key, value in layer_totals(dump["spans"], dump["counts"]).items():
            totals[key] = totals.get(key, 0.0) + value
    interpreter_ms = control_ms("pass")
    import_ms = control_ms("import tanvar.cli") - interpreter_ms
    return {
        "items": len(items),
        "totals": totals,
        "traced_s": busy_seconds(traced),
        "untraced_s": busy_seconds(plain),
        "child_import_s": import_s,
        "interpreter_ms": interpreter_ms,
        "import_ms": import_ms,
        "attempted": traced["attempted"] + plain["attempted"],
        "failed": traced["failed"] + plain["failed"],
    }
