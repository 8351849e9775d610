"""hktruth benchmark: model steps per second on four closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of ensemble-ref, trajectory-large-n, absorption-campaign and
cli-artifacts (see workloads.py and README.md). One process runs one
workload on one thread, with BLAS pinned to one thread. It imports
hktruth from ``src/`` of the checkout it sits in and exits 2 without a
result if there is none.

The work is done in fixed-size reps, each on its own inputs drawn from
the seed. Rep 0 is a warm-up; reps 1, 2, ... are timed one by one until
their time adds up to ``--seconds``, and each is checked after its timer
stops. With ``--trace 0`` the result carries the end-to-end metrics:

* ``steps_per_s``: model steps (one synchronous update of one run) per
  second, the median over the timed reps;
* ``setup_s``: import plus config and spec construction, the median of
  several fresh interpreters (setup_probe.py);
* ``peak_rss_mib``: the process's peak resident set after the timed reps.

With ``--trace 1`` each timed rep runs twice, untraced and then traced
(spans.py), and the result carries per-layer call counts and self times
per rep plus the tracing overhead. Either way the last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics; ``failed / attempted`` is the share of operations (CLI
invocations, runs, trials, walks) that raised, exited nonzero or failed
a check. The lines before it give the environment and every metric by
name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("ensemble-ref", "trajectory-large-n", "absorption-campaign", "cli-artifacts")
# set before numpy loads; the machine has two cores and the workloads are single-threaded
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 11
DEEP_REPS = 2  # reps 0 and 1 get the costly checks
MIN_REPS = 3
CALIBRATE_EVERY_S = 0.4  # timed seconds between calibrations; today's reps take 0.45-0.6 s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    """Operations attempted and failed over a whole run, with the problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def do_rep(w, k: int, tally: Tally, deep: bool, context=contextlib.nullcontext):
    """Run rep ``k`` inside ``context``, time it, check it; None if it raised."""
    try:
        with context():
            started = time.perf_counter()
            out = w.run_rep(k)
            seconds = time.perf_counter() - started
    except Exception:
        traceback.print_exc()
        tally.add(w.ops_per_rep, w.ops_per_rep, [f"rep {k} raised"])
        return None
    try:
        res = w.check(k, out, deep)
        steps, written = w.steps(out), w.written(out)
    except Exception as exc:
        tally.add(w.ops_per_rep, w.ops_per_rep, [f"rep {k}: checking raised {exc!r}"])
        return None
    finally:
        w.cleanup(out)
    tally.add(res.attempted, res.failed, [f"rep {k}: {p}" for p in res.problems])
    return seconds, steps, written


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Set-up CPU time of one fresh interpreter, and its import calibration."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, calibration = done.stdout.split()[-2:]
    return float(setup), float(calibration)


def measure(w, seconds: float, tally: Tally, probe) -> tuple[dict, dict]:
    """Untraced reps: median throughput, median set-up time and peak memory.

    Each rep's time is scaled by the mean of the calibrations timed just
    before and just after it, and each set-up probe by the import
    calibration of its own process (calibrate.py). Reps shorter than
    CALIBRATE_EVERY_S share their calibrations, so that the calibration's
    cost stays a bounded share of the run however fast the reps get. The
    probes are spread over the run rather than run back to back.
    """
    from calibrate import IMPORT_REFERENCE_S, REFERENCE_S, Calibration

    calib = Calibration()
    do_rep(w, 0, tally, deep=True)
    cals = [calib.seconds()]
    raw, scaled, pending, setups = [], [], [], []

    def calibrate() -> None:
        cals.append(calib.seconds())
        scaled.extend(rate * (cals[-2] + cals[-1]) / (2 * REFERENCE_S) for rate in pending)
        pending.clear()

    measured, uncalibrated, k = 0.0, 0.0, 1
    deadline = time.perf_counter() + 3 * seconds + 30
    while (measured < seconds or len(raw) < MIN_REPS) and time.perf_counter() < deadline:
        if len(setups) < SETUP_PROBES and measured >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe())
        done = do_rep(w, k, tally, deep=k < DEEP_REPS)
        if done is not None:
            rep_s, steps, _ = done
            measured += rep_s
            uncalibrated += rep_s
            raw.append(steps / rep_s)
            pending.append(steps / rep_s)
        if uncalibrated >= CALIBRATE_EVERY_S:
            calibrate()
            uncalibrated = 0.0
        k += 1
    if pending:
        calibrate()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    metrics = {
        "steps_per_s": (statistics.median(scaled) if scaled else 0.0, "steps/s"),
        "setup_s": (statistics.median(s * IMPORT_REFERENCE_S / c for s, c in setups), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    unscaled = {
        "steps_per_s unscaled": statistics.median(raw) if raw else 0.0,
        "setup_s unscaled": statistics.median(s for s, _ in setups),
        "machine speed (REFERENCE_S / median calibration)": REFERENCE_S / statistics.median(cals),
    }
    return metrics, unscaled


@contextlib.contextmanager
def allocation_peak(sink: list[float]):
    import tracemalloc

    tracemalloc.start()
    try:
        yield
        sink.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


def measure_traced(w, seconds: float, tally: Tally) -> dict:
    """Pairs of untraced and traced runs of the same rep: per-layer metrics."""
    import spans

    tracer = spans.Tracer()
    totals = {name: [0, 0.0] for name in spans.SPAN_NAMES}
    overheads, coverage, steps_total, written = [], [], 0, [0, 0]
    do_rep(w, 0, tally, deep=True)
    measured, k = 0.0, 1
    deadline = time.perf_counter() + 3 * seconds + 30
    while (measured < seconds or len(overheads) < MIN_REPS) and time.perf_counter() < deadline:
        plain = do_rep(w, k, tally, deep=k < DEEP_REPS)
        tracer.clear()
        traced = do_rep(w, k, tally, deep=False, context=lambda: spans.patched(tracer))
        k += 1
        if plain is None or traced is None:
            continue
        measured += plain[0] + traced[0]
        self_sum = 0.0
        for name, (calls, self_s) in tracer.self_times().items():
            totals[name][0] += calls
            totals[name][1] += self_s
            self_sum += self_s
        overheads.append(traced[0] / plain[0] - 1.0)
        coverage.append(self_sum / plain[0])
        steps_total += traced[1]
        written[0] += traced[2][0]
        written[1] += traced[2][1]
    tracer.clear()
    alloc: list[float] = []
    if w.uses_cli:
        do_rep(w, k, tally, deep=False, context=lambda: allocation_peak(alloc))

    reps = max(len(overheads), 1)
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls / reps, "count")
        metrics[f"{name}.self_s"] = (self_s / reps, "s")
    nm_calls, nm_self = totals["dynamics.neighbor_means"]
    metrics["dynamics.neighbor_means.us_per_call"] = (
        1e6 * nm_self / nm_calls if nm_calls else 0.0, "us")
    for name in ("dynamics.neighbor_means", "dynamics.validate_state"):
        metrics[f"{name}.calls_per_step"] = (
            totals[name][0] / steps_total if steps_total else 0.0, "count")
    metrics["cli.bytes_written"] = (written[0] / reps, "bytes")
    metrics["cli.files_written"] = (written[1] / reps, "count")
    metrics["cli.alloc_peak_mib"] = (alloc[0] if alloc else 0.0, "MiB")
    metrics["trace.overhead_frac"] = (statistics.median(overheads) if overheads else 0.0, "ratio")
    metrics["trace.self_sum_frac"] = (statistics.median(coverage) if coverage else 0.0, "ratio")
    return metrics


def environment(args: argparse.Namespace) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build report's layout is not a stable numpy API
        blas_build = "unknown"
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(HERE))
    import workloads

    try:
        hk = workloads.load_package(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot load hktruth: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / workloads.WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        w = workloads.WORKLOADS[args.workload](hk, args.seed, workdir)
        if args.trace:
            metrics = measure_traced(w, args.seconds, tally)
        else:
            metrics, unscaled = measure(w, args.seconds, tally,
                                        lambda: setup_probe(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(json.dumps({"env": environment(args)}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if not args.trace:
        for name, value in unscaled.items():
            print(f"{name} = {value!r}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"ops_failed_frac = {frac!r} ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
