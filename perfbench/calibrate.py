"""Machine-speed calibration for the throughput timings.

The benchmark shares its machine. Over a few seconds the same rep can run
30% faster or slower, and the raw median over a 20-second run moved by
9-14% from one run to the next. Those swings are common to any CPU work
in the process, so a fixed calibration kernel measures them. The kernel
is timed between reps, and the runner scales each rep's time by
``REFERENCE_S / c``, where ``c`` is the mean of the calibrations just
before and just after the rep. The result is the time the rep would have
taken with the machine as fast as it was when ``REFERENCE_S`` was
measured. On the recording machine this cut the run-to-run spread of
throughput to 3-5%.

The kernel mixes the kinds of work the workloads do, so that no single
one dominates: interpreter bytecode, numpy calls on 20-element arrays,
and a pairwise comparison over 1000 x 1000 elements. It uses no hktruth
code, so a change to the package moves the scaled figure while a change
in machine speed mostly does not.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# Median calibration time on the machine the results/ files were recorded
# on (2 vCPUs, Intel Xeon, numpy 2.4.6 with OpenBLAS 0.3.31, one thread).
REFERENCE_S = 0.035


class Calibration:
    """The kernel's inputs and buffers, allocated once.

    The pairwise part works in blocks of rows into preallocated buffers,
    so the calibration adds a constant 0.9 MB to the process's memory and
    no temporaries that could set its peak.
    """

    ROWS = 100

    def __init__(self) -> None:
        self.small = np.linspace(0.0, 1.0, 20)
        self.big = np.linspace(0.0, 1.0, 1000)
        self.diff = np.zeros((self.ROWS, self.big.size))
        self.close = np.zeros((self.ROWS, self.big.size), dtype=bool)

    def seconds(self) -> float:
        """Time one pass of the calibration kernel."""
        started = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(1200):
            np.clip(np.abs(self.small - 0.5) + self.small.max(), 0.0, 1.0)
        for _ in range(2):
            for lo in range(0, self.big.size, self.ROWS):
                np.subtract(self.big[lo:lo + self.ROWS, None], self.big[None, :], out=self.diff)
                np.abs(self.diff, out=self.diff)
                np.less_equal(self.diff, 0.2, out=self.close)
                self.close.sum()
        return time.perf_counter() - started


# Standard-library modules that neither numpy nor hktruth imports. Loading
# them is import work of the same kind as the set-up, on code that no
# change to the package touches.
IMPORT_MODULES = ("mailbox", "imaplib", "ftplib", "smtplib", "xmlrpc.client", "http.cookiejar",
                  "xml.dom.minidom", "wsgiref.simple_server", "pydoc", "asyncio")
# Median CPU time of import_seconds() on the recording machine.
IMPORT_REFERENCE_S = 0.085


def import_seconds() -> float:
    """CPU time to import ``IMPORT_MODULES``; once per fresh interpreter."""
    loaded = [name for name in IMPORT_MODULES if name in sys.modules]
    if loaded:
        raise RuntimeError(f"calibration modules already imported: {loaded}")
    started = time.process_time()
    for name in IMPORT_MODULES:
        importlib.import_module(name)
    return time.process_time() - started
