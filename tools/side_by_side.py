"""Time the neighbour kernel and the step in two source trees side by side, in one process.

    python tools/side_by_side.py BASE [HEAD] [--blocks N] [--cases a,b]

BASE and HEAD are source trees (a directory holding ``src/hktruth``) or
git revisions of this repository, which are laid out with local
``git archive`` into a temporary directory. HEAD defaults to the
current directory. Run it from the repository root. Both ``dynamics``
modules are imported under distinct names, so each keeps its own mask
memo. A kernel case times ``dynamics._neighbor_means``, the unchecked
kernel a step calls, or ``dynamics.neighbor_means`` in a tree without it,
which is what an older tree's step called; the output names the kernel
timed on each side. A step case times ``dynamics._step`` on a config built
by each side's own ``ModelConfig``, and names it in its ``calls``; its
steered noise is this repository's ``bounds.steered_noise``. Every
case is timed in alternating blocks of ``CALLS`` calls, the side that goes
first swapping from block to block, and the script prints the best and the
median µs per call of each side as JSON. Pin
BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) for figures comparable
with the repository's BENCH files. ``tools/csv_encoding.py`` loads its trees
and alternates its blocks with this script's ``source_tree``, ``load`` and
``alternate``.
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
sys.path.insert(0, str(REPO / "src"))
from hktruth.bounds import steered_noise  # noqa: E402  a step case's noise, not what is compared

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLS = 50  # per block


def _cases() -> dict[str, tuple[str, list[np.ndarray], float, tuple | None]]:
    """Each case: what it selects, the profiles its calls cycle through, epsilon, and the step.

    The step is None for a kernel case, else the other ``ModelConfig`` fields
    and the noise of a ``_step`` case.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    cases = {}
    for n in (8, 20, 50):
        x, y = rng.random((2, 1, n))
        cases[f"reuse-1x{n}"] = ("one row, mask kept from the last call", [x], 0.2, None)
        cases[f"rebuild-1x{n}"] = ("one row, mask rebuilt every call", [x, y], 0.2, None)
    cases["consensus-1x20"] = (
        "one row within epsilon", [0.5 + 0.1 * rng.random((1, 20))], 0.2, None)
    x = rng.random((50, 20))
    y = x.copy()
    y[::13] = rng.random((4, 20))
    cases["partial-50x20"] = ("50 rows, 4 of them rebuilt every call", [x, y], 0.2, None)
    for n in (300, 2000):
        cases[f"window-1x{n}"] = ("one row, sorted-window kernel", [rng.random((1, n))], 0.2, None)
    cases["window-4x300"] = ("4 rows, sorted-window kernel", [rng.random((4, 300))], 0.2, None)
    # the reference config at delta = 0.01, whose absorbing band holds the seekers within
    # 0.03 of the truth and the other agents within 0.05
    ref = {"n": 20, "truth": 0.8, "alpha": 0.5, "seekers": range(10), "delta": 0.01}
    cases["step-consensus-20"] = (
        "_step, one 1-D row inside the band, iid noise", [0.8 + 0.03 * rng.uniform(-1, 1, 20)],
        0.2, (ref, rng.uniform(-0.01, 0.01, 20)))
    cases["step-steered-20"] = (
        "_step, one 1-D row on the mask path, steered noise", [0.2 + 0.6 * rng.random(20)],
        0.2, (ref, steered_noise))
    cases["step-50x20"] = (
        "_step, 50 rows whose masks are kept, iid noise", [rng.random((50, 20))],
        0.2, (ref, rng.uniform(-0.01, 0.01, (50, 20))))
    cases["consensus-20"] = ("one 1-D row within epsilon", [0.5 + 0.1 * rng.random(20)], 0.2, None)
    # the reference config's band and noise at n = 2000, on the sorted-window kernel
    cases["step-window-2000"] = (
        "_step, one 1-D row inside the band, sorted-window kernel, iid noise",
        [0.8 + 0.03 * rng.uniform(-1, 1, 2000)], 0.2,
        ({**ref, "n": 2000, "seekers": range(1000)}, rng.uniform(-0.01, 0.01, 2000)))
    return cases


def source_tree(where: str, scratch: Path) -> Path:
    """The ``src/hktruth`` directory of ``where``: a tree's, or a revision's archive."""
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


def load(path: Path, name: str):
    """Import ``path`` as ``name``: a package if it is a directory, else that one file."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _kernel(module):
    """The neighbour kernel of ``module``'s step: ``_neighbor_means``, else ``neighbor_means``."""
    return getattr(module, "_neighbor_means", module.neighbor_means)


def _call(module, epsilon: float, step: tuple | None):
    """The function a case calls on ``module``, and the arguments after the profile."""
    if step is None:
        return _kernel(module), (epsilon,)
    fields, noise = step
    return module._step, (module.ModelConfig(epsilon=epsilon, **fields), noise)


def _block(fn, profiles: list[np.ndarray], args: tuple) -> float:
    """µs per call over ``CALLS`` calls cycling through ``profiles``, after one of each."""
    sequence = [profiles[i % len(profiles)] for i in range(CALLS)]
    for x in profiles:
        fn(x, *args)
    start = time.perf_counter()
    for x in sequence:
        fn(x, *args)
    return (time.perf_counter() - start) / CALLS * 1e6


def alternate(sides: dict, blocks: int, measure) -> dict[str, list]:
    """``measure(sides[name])`` for each side in ``blocks`` rounds, the first side swapping."""
    times: dict[str, list] = {name: [] for name in sides}
    order = list(sides)
    for block in range(blocks):
        for name in order if block % 2 == 0 else order[::-1]:
            times[name].append(measure(sides[name]))
    return times


def compare(base: str, head: str, blocks: int, names: list[str] | None) -> dict:
    cases = _cases()
    sides = {"base": base, "head": head}
    with tempfile.TemporaryDirectory() as scratch:
        modules = {side: load(source_tree(where, Path(scratch)) / "dynamics.py",
                              f"side_by_side_{side}_dynamics")
                   for side, where in sides.items()}
    kernels = {side: _kernel(module) for side, module in modules.items()}
    result = {}
    for name in names or list(cases):
        what, profiles, epsilon, step = cases[name]
        calls = {side: _call(module, epsilon, step) for side, module in modules.items()}
        times = alternate(calls, blocks, lambda call: _block(call[0], profiles, call[1]))
        result[name] = {"selects": what, "shape": list(profiles[0].shape), "epsilon": epsilon,
                        "calls": calls["head"][0].__name__}
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
