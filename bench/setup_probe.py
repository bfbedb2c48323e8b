"""Time one in-process set-up and print it in seconds.

Usage: python3 bench/setup_probe.py <workload> <inputs.json>

The time covers importing matchprice and loading the workload's inputs
from JSON through the package's public loaders.  run.py starts this in a
fresh interpreter several times and reports the median as setup_s.
"""

import time

START = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports matchprice)

with open(sys.argv[2], encoding="utf-8") as handle:
    workloads.WORKLOADS[sys.argv[1]].build(json.load(handle), None)
print((time.perf_counter_ns() - START) / 1e9)
