"""Time the per-step CSV writer of two source trees side by side, in one process.

    python tools/csv_encoding.py BASE [HEAD] [--blocks N]

BASE and HEAD are source trees (a directory holding ``src/hktruth``) or git
revisions of this repository; HEAD defaults to the current directory. Run it
from the repository root. Each tree's package is imported under its own
name, by ``tools/side_by_side.py``'s loaders. For every table shape the
CLI writes, both trees' ``cli._Output.steps`` write the same table into a
temporary directory, in alternating blocks of ``CALLS`` calls, the side
that goes first swapping from block to block; the script checks that both
files hold the same bytes and prints the best and median ms per call of
each side and the tracemalloc peak of one write. It times HEAD's
``_csvrows.encode_table`` alone the same way, against the parent's per-row
"%" formatting of the same rows (``encode_only``). It then runs the two
commands of a perfbench ``cli-artifacts`` rep through each side's
``cli.main``, ``REPS`` reps a block, and prints the best block's ms per
rep and the share of it spent in ``_Output.steps``. Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``) for figures comparable with the BENCH files.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
from side_by_side import alternate, load, source_tree

CALLS = 5  # per block
REPS = 10  # cli-artifacts reps per block


def _load(where: str, scratch: Path, name: str):
    """Import the hktruth package of ``where`` as ``name``, with its cli module."""
    package = load(source_tree(where, scratch), name)
    importlib.import_module(f"{name}.cli")
    return package


def _tables(hk) -> dict[str, tuple[list[str], np.ndarray]]:
    """Each table shape the CLI writes, t column included in the name, from seeded runs."""
    h = hk.harness

    def run(n, m, horizon, mode=h.MODE_IID, states=False):
        config = hk.ModelConfig(n=n, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(m),
                                delta=0.02)
        return h.run_trajectory(h.RunSpec(config=config, horizon=horizon, seed=0, mode=mode,
                                          tail_window=max(1, horizon // 10),
                                          record_states=states))

    def metrics(record):
        return ["d_V", "d_S", "d_Sbar"], np.column_stack([record.d_v, record.d_s, record.d_sbar])

    sim = run(50, 25, 400, states=True)
    wide = run(2000, 1000, 200, states=True)
    return {
        "401x51 states (simulate --n 50 --full-states)": ([f"x_{i}" for i in range(50)],
                                                          sim.states),
        "401x4 metrics (simulate --n 50)": metrics(sim),
        "201x4 metrics (ensemble --per-run run CSV)": metrics(run(20, 10, 200)),
        "201x4 metrics, d_S all nan (m = 0)": metrics(run(20, 0, 200)),
        "201x2001 states (simulate --n 2000 --full-states)": ([f"x_{i}" for i in range(2000)],
                                                              wide.states),
        "2001x4 metrics, noise-free (a third below 1e-4)": metrics(run(20, 10, 2000,
                                                                       h.MODE_NOISE_FREE)),
    }


def _percent_rows(table: np.ndarray) -> bytes:
    """The rows as the parent's per-row "%" formatting wrote them: the encoder's reference."""
    row = "%d," + ",".join(["%.12g"] * table.shape[1])
    return ("\n".join(row % (t, *values) for t, values in enumerate(table.tolist())) + "\n").encode()


def _write(side, outdir: Path, columns, table) -> None:
    side.cli._Output({"output": str(outdir)}).steps("table.csv", columns, table)


def _peak(side, outdir: Path, columns, table) -> float:
    tracemalloc.start()
    try:
        _write(side, outdir, columns, table)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _alternate(sides: dict, blocks: int, once) -> dict[str, list[float]]:
    """Seconds per call of ``once(side)`` for each side, in alternating blocks."""
    def seconds(side) -> float:
        start = time.perf_counter()
        once(side)
        return time.perf_counter() - start

    return alternate(sides, blocks, seconds)


def _summary(times: dict[str, list[float]], per: int) -> dict:
    out = {name: {"best_ms": round(min(t) / per * 1e3, 4),
                  "median_ms": round(statistics.median(t) / per * 1e3, 4)}
           for name, t in times.items()}
    out["base_over_head_median"] = round(
        statistics.median(times["base"]) / statistics.median(times["head"]), 3)
    return out


def _rep_argv(outdir: Path, seed: int) -> list[list[str]]:
    """The two commands of a perfbench cli-artifacts rep."""
    return [
        ["simulate", "--n", "50", "--m", "25", "--horizon", "400", "--tail-window", "40",
         "--seed", str(seed), "--full-states", "--output", str(outdir / "sim")],
        ["ensemble", "--runs", "10", "--horizon", "200", "--tail-window", "20",
         "--seed", str(seed), "--per-run", "--output", str(outdir / "ens")],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="source tree or git revision")
    parser.add_argument("head", nargs="?", default=".", help="source tree or git revision")
    parser.add_argument("--blocks", type=int, default=40)
    args = parser.parse_args()
    result: dict = {"blocks": args.blocks, "calls_per_block": CALLS, "tables": {},
                    "numpy": np.__version__, "python": sys.version.split()[0]}

    # the trees stay on disk while they run: the head imports _csvrows at its first table
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"base": _load(args.base, tmp / "trees", "hk_base"),
                 "head": _load(args.head, tmp / "trees", "hk_head")}
        encode_table = importlib.import_module("hk_head._csvrows").encode_table
        for label, (columns, table) in _tables(sides["head"]).items():
            files = {}
            for name, side in sides.items():
                _write(side, tmp / name, columns, table)
                files[name] = (tmp / name / "table.csv").read_bytes()
            if files["base"] != files["head"]:
                raise SystemExit(f"{label}: the two trees wrote different bytes")
            blocks = max(4, args.blocks // 10) if table.size > 100_000 else args.blocks
            times = _alternate(sides, blocks, lambda side: [
                _write(side, tmp / "t", columns, table) for _ in range(CALLS)])
            entry = _summary(times, CALLS)
            encoders = {"base": _percent_rows, "head": lambda t: b"".join(encode_table(t))}
            if encoders["base"](table) != encoders["head"](table):
                raise SystemExit(f"{label}: the encoder and the % path differ")
            entry["encode_only"] = _summary(
                _alternate(encoders, blocks, lambda f: [f(table) for _ in range(CALLS)]), CALLS)
            entry["tracemalloc_peak_mib"] = {
                name: round(_peak(side, tmp / name, columns, table), 3)
                for name, side in sides.items()}
            result["tables"][label] = entry
            print(label, json.dumps(entry), file=sys.stderr)

        in_steps = {name: 0.0 for name in sides}
        for name, side in sides.items():
            steps = side.cli._Output.steps

            def timed(self, *a, _steps=steps, _name=name):
                start = time.perf_counter()
                _steps(self, *a)
                in_steps[_name] += time.perf_counter() - start

            side.cli._Output.steps = timed

        def rep_block(side):
            for k in range(REPS):
                for argv in _rep_argv(tmp / "rep", 900 + k):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = side.cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"{argv[0]} failed")

        def total_and_share(name):
            in_steps[name] = 0.0
            start = time.perf_counter()
            rep_block(sides[name])
            total = time.perf_counter() - start
            return total, in_steps[name] / total

        blocks = alternate({name: name for name in sides}, max(4, args.blocks // 4),
                           total_and_share)
        totals = {name: [total for total, _ in b] for name, b in blocks.items()}
        shares = {name: [share for _, share in b] for name, b in blocks.items()}
        result["cli_artifacts_rep"] = {
            name: {"best_ms_per_rep": round(min(totals[name]) / REPS * 1e3, 3),
                   "steps_share_of_best_block": round(
                       shares[name][totals[name].index(min(totals[name]))], 3),
                   "steps_share_median": round(statistics.median(shares[name]), 3)}
            for name in sides}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
