"""Time two source trees side by side, in one process.

    python tools/side_by_side.py BASE [HEAD] [--blocks N] [--cases a,b]

BASE and HEAD are source trees (a directory holding ``src/hktruth``) or git
revisions of this repository, laid out by local ``git archive``; HEAD defaults
to the current directory. Run it from the repository root. Each tree's package
is imported under its own name. A case is of one of four kinds: kernel and step
(µs per call), table (ms per call of the CLI's table writer) and rep (steps/s
of a ``perfbench/workloads.py`` workload). It runs in alternating blocks, the
side that goes first swapping, and the JSON gives each side's best and median
and the quartiles of the blocks' paired base/head ratio. Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``) for figures comparable with the BENCH files.
"""

from __future__ import annotations

import argparse
import contextlib
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
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
import workloads  # noqa: E402  the rep cases' work, not what is compared
from hktruth import harness  # noqa: E402  the table cases' data
from hktruth.bounds import steered_noise  # noqa: E402  a step case's noise

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLS = 50  # kernel and step calls per block


class Mismatch(Exception):
    """The two trees did different work, or a rep failed its check."""


def _cases() -> dict[str, tuple]:
    """Each case: what it selects, its kind's timer, and the timer's arguments."""
    rng = np.random.Generator(np.random.PCG64(0))
    cases = {}

    def calls(name, what, profiles, step=None):
        cases[name] = (what, _calls, (profiles, 0.2, step))

    for n in (8, 20, 50):
        x, y = rng.random((2, 1, n))
        calls(f"reuse-1x{n}", "one row, mask kept from the last call", [x])
        calls(f"rebuild-1x{n}", "one row, mask rebuilt every call", [x, y])
    calls("consensus-1x20", "one row within epsilon", [0.5 + 0.1 * rng.random((1, 20))])
    x = rng.random((50, 20))
    y = x.copy()
    y[::13] = rng.random((4, 20))
    calls("partial-50x20", "50 rows, 4 of them rebuilt every call", [x, y])
    for n in (300, 2000):
        calls(f"window-1x{n}", "one row, sorted-window kernel", [rng.random((1, n))])
    calls("window-4x300", "4 rows, sorted-window kernel", [rng.random((4, 300))])
    # the reference config at delta = 0.01: its band holds seekers within 0.03 of A, others 0.05
    ref = {"n": 20, "truth": 0.8, "alpha": 0.5, "seekers": range(10), "delta": 0.01}
    calls("step-consensus-20", "_step, one 1-D row inside the band, iid noise",
          [0.8 + 0.03 * rng.uniform(-1, 1, 20)], (ref, rng.uniform(-0.01, 0.01, 20)))
    calls("step-steered-20", "_step, one 1-D row on the mask path, steered noise",
          [0.2 + 0.6 * rng.random(20)], (ref, steered_noise))
    calls("step-50x20", "_step, 50 rows whose masks are kept, iid noise",
          [rng.random((50, 20))], (ref, rng.uniform(-0.01, 0.01, (50, 20))))
    calls("consensus-20", "one 1-D row within epsilon", [0.5 + 0.1 * rng.random(20)])
    # the reference config's band and noise at n = 2000, on the sorted-window kernel
    calls("step-window-2000",
          "_step, one 1-D row inside the band, sorted-window kernel, iid noise",
          [0.8 + 0.03 * rng.uniform(-1, 1, 2000)],
          ({**ref, "n": 2000, "seekers": range(1000)}, rng.uniform(-0.01, 0.01, 2000)))
    for name, what, table in (
            ("states-401x51", "401x51 states (simulate --n 50 --full-states)", (50, 25, 400)),
            ("metrics-401x4", "401x4 metrics (simulate --n 50)", (50, 25, 400, False)),
            ("run-201x4", "201x4 metrics (ensemble --per-run run CSV)", (20, 10, 200, False)),
            ("nan-201x4", "201x4 metrics, d_S all nan (m = 0)", (20, 0, 200, False)),
            ("states-201x2001", "201x2001 states (simulate --n 2000 --full-states)",
             (2000, 1000, 200)),
            ("noise-free-2001x4", "2001x4 metrics, noise-free (a third below 1e-4)",
             (20, 10, 2000, False, harness.MODE_NOISE_FREE))):
        cases[f"table-{name}"] = (what, _table, table)
    for name, workload in workloads.WORKLOADS.items():
        cases[f"rep-{name}"] = (workload.__doc__.splitlines()[0], _rep, (workload,))
    return cases


def source_tree(where: str, scratch: Path) -> Path:
    """The ``src/hktruth`` directory of ``where``: a tree's, or a revision's archive."""
    if Path(where).is_dir():
        return Path(where).resolve() / "src" / "hktruth"
    tar = subprocess.run(["git", "-C", str(REPO), "archive", where, "src/hktruth"],
                         check=True, capture_output=True).stdout
    out = scratch / where.replace("/", "_")
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(out, **safe)
    return out / "src" / "hktruth"


def load(path: Path, name: str):
    """Import the package at ``path`` as ``name``, with the modules the workloads use."""
    for stale in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[stale]
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # dataclasses look their module up here
    spec.loader.exec_module(package)
    for module in ("dynamics", "bounds", "harness", "verify", "cli"):  # the workloads' modules
        importlib.import_module(f"{name}.{module}")
    return package


def alternate(blocks: int, measure) -> dict[str, list]:
    """``measure(side, block)`` for each side in ``blocks`` rounds, the first side swapping."""
    values: dict[str, list] = {"base": [], "head": []}
    for block in range(blocks):
        for side in ("base", "head") if block % 2 == 0 else ("head", "base"):
            values[side].append(measure(side, block))
    return values


def _summary(values: dict[str, list[float]], unit: str, best=min) -> dict:
    """Each side's best and median of its ``values``, and the paired base/head ratios'."""
    out = {side: {f"best_{unit}": round(best(v), 4),
                  f"median_{unit}": round(statistics.median(v), 4)} for side, v in values.items()}
    q1, q2, q3 = np.percentile(np.divide(values["base"], values["head"]), [25, 50, 75])
    out["base_over_head"] = {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    return out


def _per_call(fn, inputs: list, *args) -> float:
    """Seconds per call of ``fn(x, *args)`` for each ``x`` of ``inputs``."""
    start = time.perf_counter()
    for x in inputs:
        fn(x, *args)
    return (time.perf_counter() - start) / len(inputs)


def _kernel(module):
    """The neighbour kernel of ``module``'s step: ``_neighbor_means``, else ``neighbor_means``."""
    return getattr(module, "_neighbor_means", module.neighbor_means)


def _calls(trees: dict, blocks: int, profiles: list[np.ndarray], epsilon: float,
           step: tuple | None) -> dict:
    """``_kernel``, or ``_step`` on ``step``'s noise and fields, in each tree's ``ModelConfig``."""
    calls = {side: (_kernel(t.dynamics), (epsilon,)) if step is None else
             (t.dynamics._step, (t.dynamics.ModelConfig(epsilon=epsilon, **step[0]), step[1]))
             for side, t in trees.items()}
    sequence = [profiles[i % len(profiles)] for i in range(CALLS)]

    def block(side, _):  # µs per call over CALLS calls cycling through the profiles
        fn, args = calls[side]
        _per_call(fn, profiles, *args)
        return _per_call(fn, sequence, *args) * 1e6

    return {"shape": list(profiles[0].shape), "epsilon": epsilon,
            "calls": calls["head"][0].__name__, **_summary(alternate(blocks, block), "us")}


def _percent_rows(table: np.ndarray) -> bytes:
    """The rows as an older tree's per-row "%" formatting wrote them: the encoder's reference."""
    row = "%d," + ",".join(["%.12g"] * table.shape[1]) + "\n"
    return "".join(row % (t, *values) for t, values in enumerate(table.tolist())).encode()


def _encoder(tree):
    """The name and function of ``tree``'s row encoding: ``_csvrows.encode_table``, else "%"."""
    if importlib.util.find_spec(f"{tree.__name__}._csvrows") is None:
        return "%", _percent_rows
    encode_table = importlib.import_module(f"{tree.__name__}._csvrows").encode_table
    return "encode_table", lambda table: b"".join(encode_table(table))


def _table(trees: dict, blocks: int, n: int, m: int, horizon: int, states: bool = True,
           mode: str = harness.MODE_IID) -> dict:
    """``cli._Output.steps`` on a seeded run's states or metrics: bytes, peak, encoding alone."""
    config = harness.ModelConfig(n=n, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(m),
                                 delta=0.02)
    record = harness.run_trajectory(harness.RunSpec(  # seed 0
        config, horizon, mode=mode, tail_window=max(1, horizon // 10), record_states=states))
    columns, table = ([f"x_{i}" for i in range(n)], record.states) if states else (
        ["d_V", "d_S", "d_Sbar"], np.column_stack([record.d_v, record.d_s, record.d_sbar]))
    calls = max(1, 100_000 // table.size)  # writes per block: 100,000 cells, or one table
    encoders = {side: _encoder(tree) for side, tree in trees.items()}
    with tempfile.TemporaryDirectory() as tmp:
        def write(side):
            trees[side].cli._Output({"output": f"{tmp}/{side}"}).steps("table.csv", columns, table)

        peaks = {}
        for side in trees:  # the encoders imported every module a write needs
            tracemalloc.start()
            write(side)
            peaks[side] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
            tracemalloc.stop()
        if len({(Path(tmp) / side / "table.csv").read_bytes() for side in trees}) > 1:
            raise Mismatch("the two trees wrote different bytes")
        if len({encode(table) for _, encode in encoders.values()}) > 1:
            raise Mismatch("the two encoders differ")
        writes = alternate(blocks, lambda side, _: _per_call(write, [side] * calls) * 1e3)
        encodes = alternate(blocks, lambda side, _: _per_call(
            encoders[side][1], [table] * calls) * 1e3)
    return {"shape": list(table.shape), "calls_per_block": calls, **_summary(writes, "ms"),
            "encode_only": {"encoders": {side: e[0] for side, e in encoders.items()},
                            **_summary(encodes, "ms")},
            "tracemalloc_peak_mib": peaks}


def _rep(trees: dict, blocks: int, workload) -> dict:
    """Rep 0 untimed, then rep ``block + 1`` on each side, each checked outside its time;
    a CLI workload's reps also report their share spent in ``cli._Output.steps``."""
    in_steps = {}  # seconds in ``_Output.steps`` during a side's current rep

    def rep(side, k):
        w, in_steps[side] = runs[side], 0.0
        start = time.perf_counter()
        out = w.run_rep(k)
        seconds = time.perf_counter() - start
        checked, steps = w.check(k, out, deep=False), w.steps(out)
        w.cleanup(out)
        if checked.failed:
            raise Mismatch(f"{side} rep {k}: {'; '.join(checked.problems)}")
        return steps / seconds, in_steps[side] / seconds

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as patches:
        runs = {side: workload(tree, workloads.DEFAULT_SEED, Path(tmp) / side)
                for side, tree in trees.items()}
        for side, tree in trees.items():
            def timed(self, *args, _side=side, _steps=tree.cli._Output.steps):
                start = time.perf_counter()
                _steps(self, *args)
                in_steps[_side] += time.perf_counter() - start

            patches.enter_context(mock.patch.object(tree.cli._Output, "steps", timed))
            rep(side, 0)
        reps = alternate(blocks, lambda side, block: rep(side, block + 1))
    out = _summary({side: [r for r, _ in v] for side, v in reps.items()}, "steps_per_s", max)
    if workload.uses_cli:
        out["steps_share_median"] = {side: round(statistics.median(s for _, s in v), 4)
                                     for side, v in reps.items()}
    return out


def compare(base: str, head: str, blocks: int, names: list[str] | None) -> dict:
    cases, result = _cases(), {}
    with tempfile.TemporaryDirectory() as scratch:
        # the trees stay on disk while they run: a module may import another at its first use
        trees = {side: load(source_tree(where, Path(scratch)), f"side_by_side_{side}")
                 for side, where in (("base", base), ("head", head))}
        for name in names or list(cases):
            what, timer, args = cases[name]
            try:
                result[name] = {"selects": what, **timer(trees, blocks, *args)}
            except Mismatch as exc:
                raise SystemExit(f"{name}: {exc}") from None
    return {
        "base": base, "head": head, "blocks": blocks, "calls_per_block": CALLS,
        "kernels": {side: _kernel(tree.dynamics).__name__ for side, tree in trees.items()},
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "threads": {v: os.environ.get(v) for v in THREAD_VARS}},
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
    if args.blocks < 1:
        parser.error(f"--blocks must be at least 1, got {args.blocks}")
    names = args.cases.split(",") if args.cases else None
    unknown = set(names or ()) - set(known)
    if unknown:
        parser.error(f"unknown cases: {', '.join(sorted(unknown))}")
    print(json.dumps(compare(args.base, args.head, args.blocks, names), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
