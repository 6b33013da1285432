"""Benchmark of the tanvar library: time to a verdict on four workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/NOTES.md``.
"""
