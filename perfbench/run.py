#!/usr/bin/env python3
"""tanvar benchmark: time to a verdict on four workloads.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  End-to-end times
are in reference units (``reference.py``); the line before the result,
``raw:``, gives them in wall-clock time.  ``--workload all`` runs the four
workloads untraced and prints one row per workload with both.
``perfbench/NOTES.md`` describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("membership", "surface", "symbolic", "cli")
SETUP_REPEATS = 7
MIN_INPUTS = 100  # so that the 90th percentile has ten inputs beyond it

# What a fresh interpreter imports and first calls before the workload's
# first verdict.
SETUP_PROBES = {
    "membership": "from tanvar import tangency; from tanvar.curves import CurveGerm, TypeSequence; "
                  "germ = CurveGerm.monomial(TypeSequence.of(1, 2, 3), 6); "
                  "tangency.opening_check(tangency.tangent_map(germ))",
    "surface": "from tanvar import surfaces; from tanvar.jets import Jet2; "
               "x3, x4 = Jet2.from_terms([(2, 0, 1)], 4), Jet2.from_terms([(0, 2, 1)], 4); "
               "s = surfaces.complete_to_legendre(x3, x4); "
               "surfaces.saji_verdict(surfaces.transversal_slice(s))",
    "symbolic": "from tanvar import classify, strata, tangency; from tanvar.curves import TypeSequence; "
                "classify(TypeSequence.of(1, 2, 3), strata.CurveClass.plain(2)); "
                "tangency.generating_family_tangent(TypeSequence.of(1, 2, 4))",
    "cli": "from tanvar.cli import build_parser; build_parser()",
}

# Traced cycles per --seconds: about half of the seconds traced at the seed,
# the other half replaying the same inputs untraced.
TRACE_CYCLE_SECONDS = {"membership": 10, "surface": 2, "symbolic": 5}

# Verdict times are in reference units: wall time over the reference timed
# beside it (``reference.py``; a bare interpreter start for a cold cli
# invocation).  The wall-clock figures are printed on the ``raw:`` line before
# the result.
END_TO_END_UNITS = {
    "verdict_ref_p50": "ref",
    "verdict_ref_p90": "ref",
    "verdict_ref_mean": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Names the cli row is printed under: a verdict there is a cold invocation
# (p50, p90) or a batch document (mean).
CLI_NAMES = {"verdict_ref_p50": "cli_ref_p50", "verdict_ref_p90": "cli_ref_p90",
             "verdict_ref_mean": "batch_doc_ref_mean"}
# Units of the wall-clock figures on the ``raw:`` line.
RAW_UNITS = {"verdict_ms_p50": "ms", "verdict_ms_p90": "ms", "verdicts_per_s": "1/s",
             "cli_ms_p50": "ms", "cli_ms_p90": "ms", "batch_docs_per_s": "1/s",
             "bare_start_ms": "ms", "reference_ms": "ms"}

SPAN_METRICS = [
    "jets.Jet2.mul", "jets.Jet2.derivative", "jets.Jet2.addsub", "jets.Jet2.divide",
    "jets.Jet1.mul", "jets.Jet1.divide", "tangency.jacobi_membership", "tangency.tangent_map",
    "tangency.grassmann_lift", "tangency.opening_check", "tangency.verify_certificate",
    "tangency.generating_family_tangent", "polys.solve_ratfun_system",
    "strata.enumerate_generic", "classify.classify", "surfaces.complete_to_legendre",
    "surfaces.transversal_slice", "surfaces.saji_verdict", "surfaces.ordinary_point_class",
    "curves.curve_type", "germdoc.parse_document", "germdoc.build", "cli.run",
]
COUNT_METRICS = [
    "jets.Jet2.mul.calls", "jets.Jet2.mul.term_pairs", "tangency.jacobi_membership.unknowns",
    "polys.solve_ratfun_system.calls", "strata.enumerate_generic.calls", "strata.codimension.calls",
]
SPLIT_METRICS = ["tangency.jacobi_membership.certified", "tangency.jacobi_membership.refuted"]
SIZE_METRICS = (
    [f"tangency.jacobi_membership.o{k}" for k in (6, 8, 10, 12)]
    + [f"surfaces.saji_verdict.k{k}" for k in (10, 16, 22)]
    + [f"tangency.generating_family_tangent.n{k}" for k in (6, 8, 10)]
)
OTHER_LAYER_METRICS = {
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead_ms": "ms/input", "trace.coverage": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{name}.self_ms": "ms/input" for name in SPAN_METRICS}
    units.update({f"{name}_self_ms": "ms/input" for name in SPLIT_METRICS})
    units.update({name: "count/input" for name in COUNT_METRICS})
    units.update({f"{name}.total_ms": "ms/call" for name in SIZE_METRICS})
    units.update(OTHER_LAYER_METRICS)
    return units


def environment() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "platform": platform.platform()}


def setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters importing and first calling the entry point."""
    from perfbench.cli_workload import child_env

    walls = []
    for _ in range(SETUP_REPEATS):
        # Captured output: with pipes the wait ends when the child exits; a
        # timeout without pipes polls with sleeps of up to 50 ms.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBES[workload]], cwd=ROOT, env=child_env(),
                       check=True, capture_output=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def own_peak_rss_mb() -> float:
    """Peak RSS of this process since it started its program.

    ``ru_maxrss`` also counts the parent's memory at the time of the fork,
    ``VmHWM`` in ``/proc/self/status`` does not; the latter is used where it
    exists.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return peak_rss_mb(resource.RUSAGE_SELF)


def decide_first_cycle(name: str, seed: int) -> None:
    """Decide the seed's first cycle and print this process's peak RSS in MB."""
    from perfbench import inputs, workloads

    wl = workloads.WORKLOADS[name]
    for x in inputs.Stream(name, seed).cycle():
        timed(wl, x)
    print(own_peak_rss_mb())


def cycle_peak_rss_mb(name: str) -> float:
    """Peak resident memory of a fresh interpreter deciding the reference cycle.

    The reference cycle is the first cycle of seed 0, the same in every run,
    decided in a fresh process rather than the timed one: a process's peak
    depends on the order of its large inputs and on how its allocation
    history fragmented the heap, which would make it vary from run to run.
    """
    code = (f"import sys; sys.path[:0] = {[SRC, ROOT]!r}; from perfbench import run; "
            f"run.decide_first_cycle({name!r}, 0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def clear_caches() -> None:
    """Empty every functools cache in the package, so a replay is cold too."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tanvar" or name.startswith("tanvar.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed(wl, x):
    """(seconds, correct) for one verdict; an exception counts as a wrong verdict.

    Caches are emptied first, as in a fresh command-line process.
    """
    clear_caches()
    prepared = wl.prepare(x)
    start = time.perf_counter()
    try:
        out = wl.decide(prepared)
    except Exception as exc:  # any exception is a failed verdict; the run goes on
        print(f"input {x.ident}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - start, False
    seconds = time.perf_counter() - start
    try:
        ok = wl.check(x, out)
    except Exception as exc:  # a malformed result is a wrong verdict
        print(f"input {x.ident}: check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"input {x.ident}: wrong verdict", file=sys.stderr)
    return seconds, ok


def result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def verdict_metrics(walls, refs) -> dict:
    """Reference-unit metrics of per-verdict wall times and the reference
    times beside them, and the wall-clock figures for the ``raw:`` line."""
    units = [w / r for w, r in zip(walls, refs)]
    walls_ms = [w * 1000 for w in walls]
    metrics = {
        "verdict_ref_p50": statistics.median(units),
        "verdict_ref_p90": statistics.quantiles(units, n=10)[8],
        "verdict_ref_mean": statistics.fmean(units),
    }
    raw = {
        "verdict_ms_p50": statistics.median(walls_ms),
        "verdict_ms_p90": statistics.quantiles(walls_ms, n=10)[8],
        "verdicts_per_s": len(walls) / sum(walls),
        "reference_ms": statistics.median(refs) * 1000,
    }
    return metrics, raw


def run_inprocess(name: str, seed: int, seconds: float) -> dict:
    from perfbench import inputs, workloads
    from perfbench.reference import bracket

    wl = workloads.WORKLOADS[name]
    setup = setup_seconds(name)
    for x in workloads.warmup_inputs(name, seed):
        timed(wl, x)
    stream = inputs.Stream(name, seed)
    walls, refs, failed = [], [], 0
    while sum(walls) < seconds or len(walls) < MIN_INPUTS:  # whole cycles only
        for x in stream.cycle():
            (wall, ok), ref = bracket(lambda: timed(wl, x))
            walls.append(wall)
            refs.append(ref)
            failed += not ok
    metrics, raw = verdict_metrics(walls, refs)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = cycle_peak_rss_mb(name)
    print(f"raw: {json.dumps(raw)}")
    return result(len(walls), failed, metrics, END_TO_END_UNITS)


def run_cli(seed: int, seconds: float) -> dict:
    from perfbench import cli_workload

    setup = setup_seconds("cli")
    stats = cli_workload.measure(seed, seconds, OUT_DIR)
    metrics, raw = cli_workload.end_to_end(stats)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    print(f"raw: {json.dumps(raw)}")
    return result(stats["attempted"], stats["failed"], metrics, END_TO_END_UNITS)


def layer_metrics(totals: dict, n: int) -> dict:
    """Per-layer values from summed span totals over ``n`` traced inputs."""
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.self_ms"] = totals.get(f"{name}.self", 0.0) * 1000 / n
    for name in SPLIT_METRICS:
        out[f"{name}_self_ms"] = totals.get(f"{name}_self", 0.0) * 1000 / n
    for name in COUNT_METRICS:
        out[name] = totals.get(name, 0) / n
    for name in SIZE_METRICS:
        calls = totals.get(f"{name}.calls", 0)
        out[f"{name}.total_ms"] = totals.get(f"{name}.total", 0.0) * 1000 / calls if calls else 0.0
    return out


def dominance(label: str, share: float) -> None:
    verdict = "holds" if share > 0.5 else "FAILS"
    print(f"dominance: {label} = {share:.3f} of the traced verdict time ({verdict})")


def trace_inprocess(name: str, seed: int, seconds: float) -> dict:
    from perfbench import inputs, workloads
    from perfbench.tracing import Tracer, layer_totals

    wl = workloads.WORKLOADS[name]
    for x in workloads.warmup_inputs(name, seed):
        timed(wl, x)
    stream = inputs.Stream(name, seed)
    cycles = max(1, int(seconds // TRACE_CYCLE_SECONDS[name]))
    batch = [x for _ in range(cycles) for x in stream.cycle()]
    tracer = Tracer()
    failed, traced_s, untraced_s = 0, 0.0, 0.0
    for i, x in enumerate(batch):
        # each input traced and untraced, alternating which goes first
        tracer.input_id = x.ident
        for traced in (i % 2 == 0, i % 2 == 1):
            if traced:
                tracer.install()
            wall, ok = timed(wl, x)
            if traced:
                tracer.uninstall()
                traced_s += wall
            else:
                untraced_s += wall
            failed += not ok
    totals = layer_totals(tracer.spans, tracer.counts)
    metrics = layer_metrics(totals, len(batch))
    attempted = 2 * len(batch)
    if name == "membership":
        # one order-12 call, outside the stream, so that the scaling shows
        probe = inputs.membership_input(random.Random(f"probe:{seed}"), -12, 12, True)
        probe_tracer = Tracer()
        probe_tracer.install()
        wall, ok = timed(wl, probe)
        probe_tracer.uninstall()
        failed += not ok
        attempted += 1
        probe_totals = layer_totals(probe_tracer.spans)
        metrics["tangency.jacobi_membership.o12.total_ms"] = (
            probe_totals["tangency.jacobi_membership.o12.total"] * 1000)
    metrics["cli.interpreter_ms"] = 0.0
    metrics["cli.import_ms"] = 0.0
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1000 / len(batch)
    metrics["trace.coverage"] = totals["root"] / traced_s
    share = sum(totals.get(f"{n}.self", 0.0) for n in wl.dominant) / totals["root"]
    dominance(" + ".join(wl.dominant), share)
    if name == "surface":
        jacobi = totals.get("tangency.jacobi_membership.self", 0.0) / totals["root"]
        print(f"dominance: tangency.jacobi_membership = {jacobi:.3f} of the traced verdict time")
    tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-{seed}.json"),
                {"workload": name, "seed": seed, "environment": environment()})
    return result(attempted, failed, metrics, per_layer_units())


def trace_cli(seed: int, seconds: float) -> dict:
    from perfbench import cli_workload

    t = cli_workload.trace(seed, seconds, OUT_DIR)
    totals, n = t["totals"], t["items"]
    metrics = layer_metrics(totals, n)
    metrics["cli.interpreter_ms"] = t["interpreter_ms"]
    metrics["cli.import_ms"] = t["import_ms"]
    metrics["trace.overhead_ms"] = (t["traced_s"] - t["untraced_s"]) * 1000 / n
    start_s = n * t["interpreter_ms"] / 1000 + t["child_import_s"]
    metrics["trace.coverage"] = (start_s + totals.get("root", 0.0)) / t["traced_s"]
    germdoc = totals.get("germdoc.parse_document.self", 0.0) + totals.get("germdoc.build.self", 0.0)
    dominance("interpreter + import + germdoc", (start_s + germdoc) / t["traced_s"])
    return result(t["attempted"], t["failed"], metrics, per_layer_units())


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, in a child each; one row per workload."""
    print(f"environment: {json.dumps(environment())}")
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name:<11} failed with exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            code = 1
            continue
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        cells = []
        for metric, entry in res["metrics"].items():
            label = CLI_NAMES.get(metric, metric) if name == "cli" else metric
            cells.append(f"{label}={entry['value']:.4g} {entry['unit']}")
        raw = json.loads(next(line for line in lines if line.startswith("raw: "))[5:])
        cells += [f"{metric}={value:.4g} {RAW_UNITS[metric]}" for metric, value in raw.items()]
        cells.append(f"failed_frac={res['failed'] / res['attempted']:.4g} ratio")
        cells.append(f"attempted={res['attempted']}")
        print(f"{name:<11} " + "  ".join(cells))
        code = code or (0 if res["correct"] else 1)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tanvar", "cli.py")):
        print(f"error: no tanvar sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(OUT_DIR, exist_ok=True)
    from perfbench.reference import pin_to_one_cpu

    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print(f"environment: {json.dumps(environment())}")
    if args.workload == "cli":
        res = (trace_cli if args.trace else run_cli)(args.seed, args.seconds)
    elif args.trace:
        res = trace_inprocess(args.workload, args.seed, args.seconds)
    else:
        res = run_inprocess(args.workload, args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
