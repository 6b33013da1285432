#!/usr/bin/env python3
"""Regenerate the cli workload's fixed inputs and golden outputs.

    python3 perfbench/make_golden.py

Writes ``perfbench/cli_inputs/small.germs`` (with the report lines its
generator expects) and ``perfbench/golden.json`` from the current program.
Refuses to write a golden whose verdicts disagree with the oracle, so that
no program bug is frozen into it.
"""

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import cli_workload, inputs  # noqa: E402

SMALL_SEED = "small-batch"
SMALL_DOCS = 12


def main() -> int:
    rng = random.Random(SMALL_SEED)
    while True:
        text, expected, code = inputs.batch_stream(rng, SMALL_DOCS)
        if code == 2:  # keep one malformed document, so the guard path is golden too
            break
    path = os.path.join(ROOT, cli_workload.SMALL_BATCH)
    with open(path, "w") as handle:
        handle.write(text)
    with open(path + ".expected", "w") as handle:
        handle.write(expected)
    golden, bad = [], 0
    for args, code, fields in cli_workload.cold_cases():
        _, got_code, out, err = cli_workload.invoke(cli_workload.untraced_prefix(), args)
        if not cli_workload.oracle_agrees(args, code, fields, out, got_code) or err:
            print(f"disagrees with the oracle: tanvar {' '.join(args)}\n{out}{err}", file=sys.stderr)
            bad += 1
        golden.append({"args": args, "exit": got_code, "stdout": out})
    if bad:
        return 1
    with open(cli_workload.GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(golden)} golden outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
