#!/usr/bin/env python3
"""Single-token mutation probe: which faults in chosen functions do the tests miss?

Each mutant changes one token inside the named functions of one module:

* a comparison flips (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
  ``in``/``not in``);
* a ``+`` becomes ``-`` or a ``-`` becomes ``+`` (binary, augmented included);
* an integer constant grows by one;
* a ``not`` is dropped.

The module is rewritten with ``ast.unparse`` into a copy of ``src/`` and
``tests/`` under ``--workdir``, and the given test files run against the copy
with ``pytest -x``.  A mutant is *killed* when the tests fail (or time out)
and *survives* when they pass.  The unmutated, re-rendered module runs first
and must pass.  The repository itself is never written.

    python3 scripts/mutation_probe.py --workdir /tmp/probe \\
        --module tangency --functions jacobi_membership,verify_certificate \\
        tests/test_tangency.py tests/test_linalg.py

One mutant costs one pytest run (seconds to tens of seconds), so the probe
is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FLIP_CMP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_FLIP_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def _sites(node: ast.AST):
    """Yield (node, slot, description) for every mutable token below ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Compare):
            for k, op in enumerate(sub.ops):
                if type(op) in _FLIP_CMP:
                    yield sub, ("ops", k), f"{type(op).__name__} -> {_FLIP_CMP[type(op)].__name__}"
        elif isinstance(sub, (ast.BinOp, ast.AugAssign)) and type(sub.op) in _FLIP_ARITH:
            yield sub, ("op", None), f"{type(sub.op).__name__} -> {_FLIP_ARITH[type(sub.op)].__name__}"
        elif isinstance(sub, ast.Constant) and type(sub.value) is int:
            yield sub, ("value", None), f"{sub.value} -> {sub.value + 1}"
        elif isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.Not):
            yield sub, ("not", None), "drop not"


def _ordered_sites(functions):
    sites = [s for fn in functions for s in _sites(fn)]
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset))


def _apply(node: ast.AST, slot) -> None:
    field, k = slot
    if field == "ops":
        node.ops[k] = _FLIP_CMP[type(node.ops[k])]()
    elif field == "op":
        node.op = _FLIP_ARITH[type(node.op)]()
    elif field == "value":
        node.value += 1


class _DropNot(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutants(source: str, functions):
    """Yield (lineno, description, mutated source) for each site in ``functions``."""
    tree = ast.parse(source)
    wanted = [n for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in functions]
    missing = set(functions) - {n.name for n in wanted}
    if missing:
        raise SystemExit(f"no such function(s): {', '.join(sorted(missing))}")
    count = len(_ordered_sites(wanted))
    for index in range(count):
        mutated = copy.deepcopy(tree)
        fns = [n for n in ast.walk(mutated)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in functions]
        node, slot, desc = _ordered_sites(fns)[index]
        name = next(fn.name for fn in fns if any(node is n for n in ast.walk(fn)))
        if slot[0] == "not":
            mutated = _DropNot(node).visit(mutated)
        else:
            _apply(node, slot)
        yield f"{name}:{node.lineno}", desc, ast.unparse(ast.fix_missing_locations(mutated))


def _run_tests(workdir: Path, tests, timeout: float) -> bool:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", required=True, type=Path,
                        help="scratch directory that receives the copy (emptied first)")
    parser.add_argument("--module", required=True, help="module under src/tanvar, e.g. tangency")
    parser.add_argument("--functions", required=True, help="comma-separated function names")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per pytest run")
    parser.add_argument("tests", nargs="+", help="test files, relative to the repository root")
    args = parser.parse_args(argv)

    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        raise SystemExit("--workdir must lie outside the repository")
    if workdir.exists():
        shutil.rmtree(workdir)
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, workdir / sub, ignore=shutil.ignore_patterns("__pycache__"))
    target = workdir / "src" / "tanvar" / f"{args.module}.py"
    source = target.read_text()
    functions = [f for f in args.functions.split(",") if f]

    target.write_text(ast.unparse(ast.parse(source)))
    if not _run_tests(workdir, args.tests, args.timeout):
        raise SystemExit("the tests fail on the unmutated module; nothing to measure")

    killed, survived = 0, []
    for where, desc, text in mutants(source, functions):
        target.write_text(text)
        if _run_tests(workdir, args.tests, args.timeout):
            survived.append((where, desc))
            print(f"SURVIVED {where}  {desc}", flush=True)
        else:
            killed += 1
            print(f"killed   {where}  {desc}", flush=True)
    target.write_text(source)
    print(f"{args.module}: {killed} killed, {len(survived)} survived "
          f"of {killed + len(survived)} mutants")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
