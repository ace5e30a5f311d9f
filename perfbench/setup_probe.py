"""Time one set-up of a workload in a fresh interpreter; print seconds.

Set-up is everything before the timed call: importing toposample and
building the workload's inputs (model, threshold, configuration).

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""
from time import perf_counter

_t0 = perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(perf_counter() - _t0)
