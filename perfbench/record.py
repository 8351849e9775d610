"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/record.py [--workloads a,b] [--seeds 0-9] [--seconds 10]
                                [--trace 0|1] [--out FILE]

Each (workload, seed) runs ``run.py`` in its own process, one after the
other. For every workload and metric the summary gives the median, the
quartiles as ``statistics.quantiles(values, n=4)`` computes them, and
the spread: the distance between the quartiles as a share of the median.
``--out`` writes the environment, every run's result and the summary as
JSON, the form of the files under ``results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return env, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs, summary, env = [], {}, None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            env, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                      if not k.endswith((".calls", ".self_s"))), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: spread(vals) for name, vals in values.items()}
        for name, s in summary[workload].items():
            if args.trace == 0 or not name.endswith((".calls", ".self_s")):
                print(f"  {workload} {name}: median {s['median']:.6g} "
                      f"spread {100 * s['spread']:.2f}%", flush=True)
    if args.out:
        env = {k: v for k, v in env.items() if k not in ("workload", "seed")}
        Path(args.out).write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
