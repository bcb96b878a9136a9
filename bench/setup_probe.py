"""Time one workload's set-up in a fresh process.

Set-up is importing the package and building and validating the workload's
scenario. Prints the set-up seconds and the speed probe's seconds taken just
before it. Run with the package's ``src/`` and this directory on PYTHONPATH:

    python3 bench/setup_probe.py arb_sweep
"""
import sys
import time

import speed

probe_s = speed.probe()
t0 = time.perf_counter()
import workloads  # noqa: E402 — the import is part of what is timed

workloads.WORKLOADS[sys.argv[1]]().build()
print(time.perf_counter() - t0, probe_s)
