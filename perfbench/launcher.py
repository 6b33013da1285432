"""Traced ``tanvar`` invocation: ``python3 perfbench/launcher.py <spans.json> <tanvar args>``.

Imports the command-line entry point, installs the benchmark's wrappers,
runs ``tanvar.cli.main`` on the remaining arguments and writes the spans
to the given file.  Standard output and the exit code are the command's.
"""

import os
import sys
import time

start = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import tanvar.cli  # noqa: E402

import_s = time.perf_counter() - start

from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.input_id = " ".join(argv)
    tracer.install()
    code = tanvar.cli.main(argv)
    sys.stdout.flush()
    tracer.uninstall()
    tracer.dump(out_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
