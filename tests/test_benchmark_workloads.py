"""Rep 0 of each benchmark workload at the default seed, with the deep checks.

The deep checks recompute steps against the dense reference in
``perfbench/reference.py``, compare the files of rep 0 with the ``GOLDEN``
digests and check every record, so a change that moves one output byte or
breaks a workload fails here and not only in the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def hk():
    return workloads.load_package(BENCH.parent)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_rep_0_passes_the_deep_checks(name, hk, tmp_path):
    workload = workloads.WORKLOADS[name](hk, workloads.DEFAULT_SEED, tmp_path)
    out = workload.run_rep(0)
    checked = workload.check(0, out, deep=True)
    assert checked.attempted >= 1
    assert checked.failed == 0, checked.problems
