"""Set-up time of one workload in a fresh interpreter.

Times importing dnlslab (numpy and scipy with it), resolving the workload's
scenarios and building its initial conditions, and prints the seconds.
Started by run.py; run it alone as

    python3 perfbench/setup_probe.py <workload> <seed> <noise_amp>
"""
import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
print(repr(time.perf_counter() - t0))
