"""Time the neighbour kernel a step calls in two source trees side by side, in one process.

    python tools/side_by_side.py BASE [HEAD] [--blocks N] [--cases a,b]

BASE and HEAD are source trees (a directory holding ``src/hktruth``) or
git revisions of this repository, which are laid out with local
``git archive`` into a temporary directory. HEAD defaults to the
current directory. Run it from the repository root. Both ``dynamics``
modules are imported under distinct names, so each keeps its own mask
memo. Each side times ``dynamics._neighbor_means``, the unchecked kernel
a step calls, or ``dynamics.neighbor_means`` in a tree without it, which
is what an older tree's step called; the output names the function timed
on each side. Every case is timed in alternating blocks of ``CALLS``
calls, the side that goes first swapping from block to block, and the
script prints the best and the median µs per call of each side as JSON. Pin
BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) for figures comparable
with the repository's BENCH files.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLS = 50  # per block


def _cases() -> dict[str, tuple[str, list[np.ndarray], float]]:
    """Each case: what it selects, the profiles its calls cycle through, and epsilon."""
    rng = np.random.Generator(np.random.PCG64(0))
    cases = {}
    for n in (8, 20, 50):
        x, y = rng.random((2, 1, n))
        cases[f"reuse-1x{n}"] = ("one row, mask kept from the last call", [x], 0.2)
        cases[f"rebuild-1x{n}"] = ("one row, mask rebuilt every call", [x, y], 0.2)
    cases["consensus-1x20"] = ("one row within epsilon", [0.5 + 0.1 * rng.random((1, 20))], 0.2)
    x = rng.random((50, 20))
    y = x.copy()
    y[::13] = rng.random((4, 20))
    cases["partial-50x20"] = ("50 rows, 4 of them rebuilt every call", [x, y], 0.2)
    for n in (300, 2000):
        cases[f"window-1x{n}"] = ("one row, sorted-window kernel", [rng.random((1, n))], 0.2)
    cases["window-4x300"] = ("4 rows, sorted-window kernel", [rng.random((4, 300))], 0.2)
    return cases


def _tree(where: str, scratch: Path) -> Path:
    """The directory of ``where``'s ``dynamics.py``: a tree's, or a revision's archive."""
    if Path(where).is_dir():
        return Path(where).resolve() / "src" / "hktruth"
    tar = subprocess.run(["git", "-C", str(REPO), "archive", where, "src/hktruth"],
                         check=True, capture_output=True).stdout
    out = scratch / where.replace("/", "_")
    # the "data" filter refuses links and paths out of ``out`` where tarfile has it
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(out, **safe)
    return out / "src" / "hktruth"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path / "dynamics.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _kernel(module):
    """The neighbour kernel of ``module``'s step: ``_neighbor_means``, else ``neighbor_means``."""
    return getattr(module, "_neighbor_means", module.neighbor_means)


def _block(means, profiles: list[np.ndarray], epsilon: float) -> float:
    """µs per call over ``CALLS`` calls cycling through ``profiles``, after one of each."""
    sequence = [profiles[i % len(profiles)] for i in range(CALLS)]
    for x in profiles:
        means(x, epsilon)
    start = time.perf_counter()
    for x in sequence:
        means(x, epsilon)
    return (time.perf_counter() - start) / CALLS * 1e6


def compare(base: str, head: str, blocks: int, names: list[str] | None) -> dict:
    cases = _cases()
    sides = {"base": base, "head": head}
    with tempfile.TemporaryDirectory() as scratch:
        modules = {side: _load(_tree(where, Path(scratch)), f"side_by_side_{side}_dynamics")
                   for side, where in sides.items()}
    kernels = {side: _kernel(module) for side, module in modules.items()}
    result = {}
    for name in names or list(cases):
        what, profiles, epsilon = cases[name]
        times: dict[str, list[float]] = {side: [] for side in sides}
        for b in range(blocks):
            for side in (("base", "head") if b % 2 == 0 else ("head", "base")):
                times[side].append(_block(kernels[side], profiles, epsilon))
        result[name] = {"selects": what, "shape": list(profiles[0].shape), "epsilon": epsilon}
        for side, ts in times.items():
            result[name][side] = {"best_us": round(min(ts), 2),
                                  "median_us": round(statistics.median(ts), 2)}
    return {
        "base": base, "head": head, "blocks": blocks, "calls_per_block": CALLS,
        "kernels": {side: kernel.__name__ for side, kernel in kernels.items()},
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "cases": result,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="source tree or git revision")
    parser.add_argument("head", nargs="?", default=".", help="source tree or git revision")
    parser.add_argument("--blocks", type=int, default=200, help="timed blocks per side and case")
    known = list(_cases())
    parser.add_argument("--cases", help=f"comma-separated subset of: {', '.join(known)}")
    args = parser.parse_args(argv)
    names = args.cases.split(",") if args.cases else None
    unknown = set(names or ()) - set(known)
    if unknown:
        parser.error(f"unknown cases: {', '.join(sorted(unknown))}")
    print(json.dumps(compare(args.base, args.head, args.blocks, names), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
