"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from the first line of this file (before numpy and
hxkit are imported) to the point where the workload could start its first
timed operation.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.perf_counter() - _T0))
