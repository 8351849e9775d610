"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is everything before a workload's timed work: importing numpy
and hktruth, then building the workload's configs and run specs. Import
cost is only visible in a fresh process, so ``run.py`` starts this
script several times and reports the median.

The time is the CPU time (user plus system) this process spends from its
first statement on, which leaves out the interpreter's own start-up. On
the shared recording machine the wall time of the same set-up varied by
half from one probe to the next, mostly time spent waiting rather than
running. The CPU time still follows the machine's speed, which drifts
for minutes at a time, so the probe also prints the CPU time of a fixed
import calibration (calibrate.import_seconds) taken in the same process
right after, and run.py scales the set-up time by it.

Prints two numbers: the set-up seconds and the calibration seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

CPU0 = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    import workloads

    hk = workloads.load_package(root)
    workloads.WORKLOADS[name](hk, seed, root / workloads.WORKDIR)  # build() writes nothing
    setup = time.process_time() - CPU0
    import calibrate

    print(repr(setup), repr(calibrate.import_seconds()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
