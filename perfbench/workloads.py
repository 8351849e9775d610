"""The four benchmark workloads and the checks on their outputs.

Each workload does its timed work in repetitions ("reps") of a fixed
size. ``run_rep(k)`` does rep ``k`` through hktruth's public functions
only, looked up on the module at call time so a traced run sees them
wrapped; ``check(k, out, deep)`` then verifies what the rep produced,
outside the timed region, and returns the operations attempted, how many
of them failed and what was wrong. Rep ``k`` draws its
inputs from the workload seed and ``k``, so every rep does distinct but
reproducible work. ``deep`` turns on the costly checks (recomputing runs,
steps against the dense reference, golden digests), which the runner
applies to the first reps only so the checking cost stays bounded
however fast the program gets.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

import reference as ref

DEFAULT_SEED = 0
WORKDIR = ".perfbench_work"  # under the checkout root; what the CLI reps write
# rep k at workload seed s seeds its runs from s * SEED_STRIDE + k * (runs per rep)
SEED_STRIDE = 100_000
ABSORPTION_TOL = 1e-14  # verify.ROUNDING_SLACK, the tolerance of criterion 03
CONTRACTION_TOL = 1e-12  # the steered-walk tolerance of criterion 04
CSV_TOL = 1e-11  # 12 significant digits of a value in [0, 1]

# Reference experiment of the paper and the README defaults.
REF = {"n": 20, "m": 10, "alpha": 0.5, "epsilon": 0.2, "truth": 0.8, "delta": 0.02}

# sha256 of the data files of rep 0 at the default seed, at the commit that
# introduced the benchmark. A change to these bytes must be deliberate.
GOLDEN = {
    "ensemble-ref": {
        "summary.json": "67bc6f8741480b53921e1d6a60f855af3db896e1922cb7553e5209e75b9d9e96",
    },
    "cli-artifacts": {
        "sim/metrics.csv": "47f0fab2ea7e1db60a673b767c3c695cdb1b2a3681c2eda71d62da7767cc98cd",
        "sim/states.csv": "4d8b2f32709a5469a7d1fe502100be0cc2e06c0c7b34846d5ef9dc9fad06c02f",
        "ens/summary.json": "ed15e4d5f99663524d2415621ad632d71cdc1beee9eea3058c10d8a9abd242e0",
        "ens/run_0000.csv": "4154a4945fce296558cec0d6659c8885b67429174f0be2298d8a394020384a22",
        "ens/run_0001.csv": "6cd19c7d3f6cc8adc94631efc88523a6e1acbfc3c894e801847f1b4b2ace4bd5",
        "ens/run_0002.csv": "4d664a279b856de6fd343a127cd7c259a29410c478087189d835c046b92bb134",
        "ens/run_0003.csv": "ceaf3e6dd248690e8203d52f48970752d3ddae4e89bcb27129027c55cf7f3436",
        "ens/run_0004.csv": "545bf2a44baceb9f8654e78f768f65ad3fb190c081ba91e3052d5172dddfac96",
        "ens/run_0005.csv": "be7ecfe22892aebb4cd2e175d6b4a5e715b37207804e860fcaa3340397662d47",
        "ens/run_0006.csv": "d1b4fa309f1406324e9379d6503bd9cb51fdfc1cfbb5cd8f7fbe845d79a21ccc",
        "ens/run_0007.csv": "def0fd3173b3cb99587fb0099d1b0af5efe58b12236185273423289f4b6f4650",
        "ens/run_0008.csv": "9b93f4e916ba4d99a49d87eef90794a069e201584f4276139da1b3364cd5e8fb",
        "ens/run_0009.csv": "0beb46f24f27f4fd45c31f78d189c7c2b7a9abf9cd980a3b95a4a3acd8ed4b1b",
    },
}


@dataclass
class Checked:
    """Operations a rep attempted, how many failed, and what was wrong."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        """Count one operation that failed if ``problems`` is not empty."""
        if problems:
            self.failed += 1
            self.problems += problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(value: float) -> str:
    """The CLI's CSV number format: 12 significant digits."""
    return format(float(value), ".12g")


def _read_csv(path: Path, header: list[str]) -> tuple[np.ndarray, list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path.name}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    return np.array(rows, dtype=float), lines[1:]


def _entry_time(states: np.ndarray, seekers: np.ndarray, truth: float,
                delta1: float, delta2: float) -> int | None:
    dev = np.abs(states - truth)
    ok = dev[:, seekers].max(axis=1) <= delta1
    if not seekers.all():
        ok &= dev[:, ~seekers].max(axis=1) <= delta2
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


class Workload:
    name = ""
    uses_cli = False
    ops_per_rep = 1

    def __init__(self, hk, seed: int, workdir: Path) -> None:
        self.hk = hk
        self.seed = seed
        self.workdir = workdir
        self.build()

    def build(self) -> None:
        """Construct the configs and specs the reps use (timed as set-up)."""

    def steps(self, out: Any) -> int:
        raise NotImplementedError

    def run_rep(self, k: int) -> Any:
        raise NotImplementedError

    def check(self, k: int, out: Any, deep: bool) -> Checked:
        raise NotImplementedError

    def cleanup(self, out: Any) -> None:
        """Remove what a rep wrote once it has been checked."""

    def written(self, out: Any) -> tuple[int, int]:
        """Bytes and files a rep wrote."""
        return 0, 0

    # shared pieces -----------------------------------------------------

    def _ref_config(self):
        return self.hk.dynamics.ModelConfig(
            n=REF["n"], epsilon=REF["epsilon"], truth=REF["truth"], alpha=REF["alpha"],
            seekers=range(REF["m"]), delta=REF["delta"])

    def _check_record(self, rec, seed: int, cfg_params: dict, horizon: int, tail: int,
                      sample_steps: int, rng: np.random.Generator) -> list[str]:
        """Check a run_trajectory record made with record_states=True."""
        p = cfg_params
        problems = []
        states = rec.states
        if states is None or states.shape != (horizon + 1, p["n"]):
            return [f"seed {seed}: states missing or of the wrong shape"]
        if not (np.all(states >= 0.0) and np.all(states <= 1.0)):
            problems.append(f"seed {seed}: an opinion left [0, 1]")
        x0, noise = ref.iid_stream(seed, p["n"], horizon, p["delta"])
        if not np.array_equal(states[0], x0):
            problems.append(f"seed {seed}: x(0) is not the first n draws of the run's stream")
        seekers = np.zeros(p["n"], dtype=bool)
        seekers[: p["m"]] = True
        dev = np.abs(states - p["truth"])
        if not np.array_equal(rec.d_v, dev.max(axis=1)):
            problems.append(f"seed {seed}: d_V disagrees with the recorded states")
        if not np.array_equal(rec.d_s, dev[:, seekers].max(axis=1)):
            problems.append(f"seed {seed}: d_S disagrees with the recorded states")
        if p["m"] < p["n"] and not np.array_equal(rec.d_sbar, dev[:, ~seekers].max(axis=1)):
            problems.append(f"seed {seed}: d_Sbar disagrees with the recorded states")
        if rec.tail_sup != float(rec.d_v[horizon + 1 - tail:].max()):
            problems.append(f"seed {seed}: tail_sup is not the max of the tail window")
        b = ref.bounds(p["n"], p["m"], p["alpha"], p["epsilon"], p["delta"])
        if rec.entry_time != _entry_time(states, seekers, p["truth"], b["delta1"], b["delta2"]):
            problems.append(f"seed {seed}: entry_time disagrees with the recorded states")
        if sample_steps:
            steps = sorted(rng.choice(np.arange(1, horizon + 1), size=sample_steps, replace=False))
            eff = ref.effective_alpha(p["n"], p["alpha"], range(p["m"]))
            problems += [f"seed {seed}: {msg}" for msg in ref.check_steps(
                states, noise, steps, p["epsilon"], p["truth"], eff)]
        return problems

    def _check_summary(self, path: Path, runs: int, seed_base: int, horizon: int,
                       params: dict) -> tuple[dict, list[str]]:
        summary = json.loads(path.read_text())
        problems = []
        if summary["runs"] != runs or summary["seed_base"] != seed_base:
            problems.append("summary.json: wrong run count or seed base")
        ts = summary["tail_sup"]
        if not 0.0 <= ts["min"] <= ts["median"] <= ts["max"] <= 1.0:
            problems.append("summary.json: tail_sup statistics out of order or out of [0, 1]")
        frac = summary["converged_fraction"]
        if frac is None or not 0.0 <= frac <= 1.0 or abs(frac * runs - round(frac * runs)) > 1e-9:
            problems.append(f"summary.json: converged_fraction {frac!r} is not k/{runs}")
        entry = summary["entry_time"]
        if not 0 <= entry["count"] <= runs:
            problems.append("summary.json: entry count out of range")
        elif entry["count"] and not 0 <= entry["min"] <= entry["median"] <= entry["max"] <= horizon:
            problems.append("summary.json: entry_time statistics out of order or range")
        want = ref.bounds(params["n"], params["m"], params["alpha"], params["epsilon"],
                          params["delta"])
        got = summary["bounds"]
        for key, value in want.items():
            if not math.isclose(got[key], value, rel_tol=1e-12):
                problems.append(f"summary.json: bound {key} = {got[key]!r}, expected {value!r}")
        if got["admissible"] != (0.0 < params["delta"] <= want["delta_lower"]):
            problems.append("summary.json: wrong admissibility flag")
        return summary, problems

    def _check_golden(self, k: int, files: dict[str, Path]) -> list[str]:
        golden = GOLDEN.get(self.name, {})
        if self.seed != DEFAULT_SEED or k != 0 or not golden:
            return []
        return [f"{name}: sha256 differs from the golden digest"
                for name, path in files.items() if _sha256(path) != golden[name]]


class CliWorkload(Workload):
    """A workload whose reps run CLI commands, each rep writing into its own directory."""

    uses_cli = True

    def cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.hk.cli.main(argv)

    def cleanup(self, out: Any) -> None:
        shutil.rmtree(out["dir"], ignore_errors=True)

    def written(self, out: Any) -> tuple[int, int]:
        files = [p for p in out["dir"].rglob("*") if p.is_file()]
        return sum(p.stat().st_size for p in files), len(files)


class EnsembleRef(CliWorkload):
    """`hktruth ensemble` on the reference config, 50 seeds, summary.json only."""

    name = "ensemble-ref"
    RUNS, HORIZON, TAIL = 50, 100, 10

    def build(self) -> None:
        h = self.hk.harness
        self.spec = h.RunSpec(config=self._ref_config(), horizon=self.HORIZON,
                              mode=h.MODE_IID, tail_window=self.TAIL)

    def steps(self, out: Any) -> int:
        return self.RUNS * self.HORIZON

    def run_rep(self, k: int) -> Any:
        seed_base = self.seed * SEED_STRIDE + k * self.RUNS
        outdir = self.workdir / f"rep{k}"
        code = self.cli([
            "ensemble", "--runs", str(self.RUNS), "--horizon", str(self.HORIZON),
            "--tail-window", str(self.TAIL), "--seed", str(seed_base), "--output", str(outdir)])
        return {"code": code, "dir": outdir, "seed_base": seed_base}

    def check(self, k: int, out: Any, deep: bool) -> Checked:
        res = Checked(1)
        if out["code"] != 0:
            res.add([f"ensemble exited {out['code']}"])
            return res
        path = out["dir"] / "summary.json"
        summary, problems = self._check_summary(path, self.RUNS, out["seed_base"],
                                                self.HORIZON, REF)
        if deep:
            problems += self._recompute(summary, out["seed_base"], k)
            problems += self._check_golden(k, {"summary.json": path})
        res.add(problems)
        return res

    def _recompute(self, summary: dict, seed_base: int, k: int) -> list[str]:
        """Rerun every seed of the rep and reduce the records independently."""
        rng = np.random.Generator(np.random.PCG64([self.seed, k, 1]))
        sampled = set(rng.choice(self.RUNS, size=2, replace=False).tolist())
        problems, tail_sups, entries = [], [], []
        b = ref.bounds(REF["n"], REF["m"], REF["alpha"], REF["epsilon"], REF["delta"])
        for i in range(self.RUNS):
            seed = seed_base + i
            rec = self.hk.harness.run_trajectory(
                replace(self.spec, seed=seed, record_states=True))
            problems += self._check_record(rec, seed, REF, self.HORIZON, self.TAIL,
                                           3 if i in sampled else 0, rng)
            tail_sups.append(rec.tail_sup)
            if rec.entry_time is not None:
                entries.append(rec.entry_time)
        want = {
            "tail_sup": {"min": min(tail_sups), "median": float(np.median(tail_sups)),
                         "max": max(tail_sups)},
            "converged_fraction": sum(ts <= b["delta_bar"] for ts in tail_sups) / self.RUNS,
            "entry_time": {"count": len(entries),
                           "min": min(entries) if entries else None,
                           "median": float(np.median(entries)) if entries else None,
                           "max": max(entries) if entries else None},
        }
        for key, value in want.items():
            if summary[key] != value:
                problems.append(f"summary.json: {key} = {summary[key]!r}, recomputed {value!r}")
        return problems


class TrajectoryLargeN(Workload):
    """One iid run_trajectory at n=2000, m=1000, where the dense O(n^2) kernel dominates."""

    name = "trajectory-large-n"
    PARAMS = {"n": 2000, "m": 1000, "alpha": 0.5, "epsilon": 0.2, "truth": 0.8, "delta": 0.02}
    HORIZON = 5

    def build(self) -> None:
        h, p = self.hk.harness, self.PARAMS
        config = self.hk.dynamics.ModelConfig(
            n=p["n"], epsilon=p["epsilon"], truth=p["truth"], alpha=p["alpha"],
            seekers=range(p["m"]), delta=p["delta"])
        # states are recorded so every step can be checked; at n=2000 that
        # is 16 KB a step against a 32 MB pairwise kernel
        self.spec = h.RunSpec(config=config, horizon=self.HORIZON, mode=h.MODE_IID,
                              tail_window=1, record_states=True)

    def steps(self, out: Any) -> int:
        return self.HORIZON

    def run_rep(self, k: int) -> Any:
        seed = self.seed * SEED_STRIDE + k
        return seed, self.hk.harness.run_trajectory(replace(self.spec, seed=seed))

    def check(self, k: int, out: Any, deep: bool) -> Checked:
        seed, rec = out
        rng = np.random.Generator(np.random.PCG64([self.seed, k, 2]))
        res = Checked(1)
        res.add(self._check_record(rec, seed, self.PARAMS, self.HORIZON, 1,
                                   2 if deep else 0, rng))
        return res


class AbsorptionCampaign(Workload):
    """Admissible configs (n <= 25): adversarial absorption plus steered walks."""

    name = "absorption-campaign"
    CONFIGS, STEPS, WALKS, N_MAX = 4, 1000, 16, 25
    ops_per_rep = CONFIGS * (1 + WALKS)

    def build(self) -> None:
        # the configs are sampled inside the reps; set-up is one of them
        config = self.hk.verify.sample_admissible_config(self._rng(0), n_max=self.N_MAX)
        self.hk.bounds.bounds_for_config(config)

    def _rng(self, k: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64([self.seed, k]))

    def steps(self, out: Any) -> int:
        return sum(self.STEPS + sum(w[2] for w in walks) for _, _, _, walks in out)

    def run_rep(self, k: int) -> Any:
        v, b = self.hk.verify, self.hk.bounds
        rng = self._rng(k)
        trials = []
        for _ in range(self.CONFIGS):
            config = v.sample_admissible_config(rng, n_max=self.N_MAX)
            nb = b.bounds_for_config(config)
            margin = v.absorption_margin(config, nb, self.STEPS, rng)
            walks = [v.steered_walk(config, rng.random(config.n)) for _ in range(self.WALKS)]
            trials.append((config, nb, margin, walks))
        return trials

    def check(self, k: int, out: Any, deep: bool) -> Checked:
        res = Checked(len(out) * (1 + self.WALKS))
        for config, nb, margin, walks in out:
            problems = []
            alpha = config.homogeneous_alpha()
            want = ref.bounds(config.n, config.m, alpha, config.epsilon, config.delta)
            if not 2 <= config.n <= self.N_MAX or not 0.0 < config.delta <= want["delta_lower"]:
                problems.append(f"sampled config n={config.n} delta={config.delta!r} "
                                "is not admissible")
            for key, value in want.items():
                if not math.isclose(getattr(nb, key), value, rel_tol=1e-12):
                    problems.append(f"bound {key} = {getattr(nb, key)!r}, expected {value!r}")
            if not margin >= -ABSORPTION_TOL:
                problems.append(f"absorbing band left: margin {margin!r}")
            res.add(problems)
            budget = ref.block_length(config.delta)
            for walk_margin, entered, taken in walks:
                problems = []
                if not entered or taken > budget:
                    problems.append(f"steered walk took {taken} of {budget} steps, "
                                    f"entered={entered}")
                if taken and not walk_margin >= -CONTRACTION_TOL:
                    problems.append(f"steered step gained {walk_margin!r} less than delta/2")
                res.add(problems)
        return res


class CliArtifacts(CliWorkload):
    """`simulate --full-states` at n=50 and `ensemble --per-run`, both writing files."""

    name = "cli-artifacts"
    ops_per_rep = 2
    SIM = {"n": 50, "m": 25, "alpha": 0.5, "epsilon": 0.2, "truth": 0.8, "delta": 0.02}
    SIM_HORIZON, SIM_TAIL = 400, 40
    ENS_RUNS, ENS_HORIZON, ENS_TAIL = 10, 200, 20

    def build(self) -> None:
        h, p = self.hk.harness, self.SIM
        config = self.hk.dynamics.ModelConfig(
            n=p["n"], epsilon=p["epsilon"], truth=p["truth"], alpha=p["alpha"],
            seekers=range(p["m"]), delta=p["delta"])
        self.sim_spec = h.RunSpec(config=config, horizon=self.SIM_HORIZON, mode=h.MODE_IID,
                                  tail_window=self.SIM_TAIL, record_states=True)
        self.ens_spec = h.RunSpec(config=self._ref_config(), horizon=self.ENS_HORIZON,
                                  mode=h.MODE_IID, tail_window=self.ENS_TAIL,
                                  record_states=True)

    def steps(self, out: Any) -> int:
        return self.SIM_HORIZON + self.ENS_RUNS * self.ENS_HORIZON

    def run_rep(self, k: int) -> Any:
        seed = self.seed * SEED_STRIDE + k * self.ENS_RUNS
        outdir = self.workdir / f"rep{k}"
        p = self.SIM
        sim = self.cli([
            "simulate", "--n", str(p["n"]), "--m", str(p["m"]),
            "--horizon", str(self.SIM_HORIZON), "--tail-window", str(self.SIM_TAIL),
            "--seed", str(seed), "--full-states", "--output", str(outdir / "sim")])
        ens = self.cli([
            "ensemble", "--runs", str(self.ENS_RUNS), "--horizon", str(self.ENS_HORIZON),
            "--tail-window", str(self.ENS_TAIL), "--seed", str(seed), "--per-run",
            "--output", str(outdir / "ens")])
        return {"codes": (sim, ens), "dir": outdir, "seed": seed}

    def check(self, k: int, out: Any, deep: bool) -> Checked:
        res = Checked(2)
        sim_dir, ens_dir = out["dir"] / "sim", out["dir"] / "ens"
        for code, problems in zip(out["codes"], (
                self._check_simulate(sim_dir, out["seed"], k, deep),
                self._check_ensemble(ens_dir, out["seed"], k, deep))):
            res.add(([f"exited {code}"] if code != 0 else []) + problems)
        if deep:
            files = {f"sim/{name}": sim_dir / name for name in ("metrics.csv", "states.csv")}
            files["ens/summary.json"] = ens_dir / "summary.json"
            files.update({f"ens/run_{i:04d}.csv": ens_dir / f"run_{i:04d}.csv"
                          for i in range(self.ENS_RUNS)})
            golden = self._check_golden(k, files)
            if golden:
                res.add(golden)
        return res

    def _metrics_csv(self, path: Path, horizon: int) -> tuple[np.ndarray, list[str], list[str]]:
        """Parse a metrics CSV and check its shape and internal consistency."""
        table, lines = _read_csv(path, ["t", "d_V", "d_S", "d_Sbar"])
        problems = []
        if table.shape != (horizon + 1, 4) or \
                not np.array_equal(table[:, 0], np.arange(horizon + 1)):
            return table, lines, [f"{path.name}: expected rows t = 0..{horizon}"]
        d = table[:, 1:]
        if not (np.all(d >= 0.0) and np.all(d <= 1.0)):
            problems.append(f"{path.name}: a deviation lies outside [0, 1]")
        if not np.array_equal(d[:, 0], d[:, 1:].max(axis=1)):
            problems.append(f"{path.name}: d_V is not max(d_S, d_Sbar)")
        return table, lines, problems

    def _check_simulate(self, outdir: Path, seed: int, k: int, deep: bool) -> list[str]:
        p, h = self.SIM, self.SIM_HORIZON
        try:
            metrics, metric_lines, problems = self._metrics_csv(outdir / "metrics.csv", h)
            states, state_lines = _read_csv(outdir / "states.csv",
                                            ["t"] + [f"x_{i}" for i in range(p["n"])])
            manifest = json.loads((outdir / "manifest.json").read_text())
        except (OSError, ValueError, KeyError) as exc:
            return [f"simulate output unreadable: {exc}"]
        if states.shape != (h + 1, p["n"] + 1):
            return problems + ["states.csv: wrong shape"]
        x = states[:, 1:]
        if not (np.all(x >= 0.0) and np.all(x <= 1.0)):
            problems.append("states.csv: an opinion left [0, 1]")
        if np.max(np.abs(np.abs(x - p["truth"]).max(axis=1) - metrics[:, 1])) > CSV_TOL:
            problems.append("metrics.csv: d_V disagrees with states.csv")
        if manifest.get("command") != "simulate" or sorted(manifest.get("outputs", [])) != [
                "manifest.json", "metrics.csv", "states.csv"]:
            problems.append("manifest.json: wrong command or output list")
        if deep:
            rng = np.random.Generator(np.random.PCG64([self.seed, k, 3]))
            rec = self.hk.harness.run_trajectory(replace(self.sim_spec, seed=seed))
            problems += self._check_record(rec, seed, p, h, self.SIM_TAIL, 3, rng)
            want = [f"{t}," + ",".join(_fmt(v) for v in row) for t, row in enumerate(rec.states)]
            if want != state_lines:
                problems.append("states.csv: rows differ from the recomputed run")
            want = [f"{t},{_fmt(a)},{_fmt(b)},{_fmt(c)}"
                    for t, (a, b, c) in enumerate(zip(rec.d_v, rec.d_s, rec.d_sbar))]
            if want != metric_lines:
                problems.append("metrics.csv: rows differ from the recomputed run")
        return problems

    def _check_ensemble(self, outdir: Path, seed: int, k: int, deep: bool) -> list[str]:
        try:
            summary, problems = self._check_summary(outdir / "summary.json", self.ENS_RUNS,
                                                    seed, self.ENS_HORIZON, REF)
            tails = []
            for i in range(self.ENS_RUNS):
                table, lines, found = self._metrics_csv(outdir / f"run_{i:04d}.csv",
                                                        self.ENS_HORIZON)
                problems += found
                tails.append(float(table[-self.ENS_TAIL:, 1].max()))
                if deep and i == 0:
                    rec = self.hk.harness.run_trajectory(replace(self.ens_spec, seed=seed))
                    want = [f"{t},{_fmt(a)},{_fmt(b)},{_fmt(c)}"
                            for t, (a, b, c) in enumerate(zip(rec.d_v, rec.d_s, rec.d_sbar))]
                    if want != lines:
                        problems.append("run_0000.csv: rows differ from the recomputed run")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"ensemble output unreadable: {exc}"]
        ts = summary["tail_sup"]
        if abs(ts["min"] - min(tails)) > CSV_TOL or abs(ts["max"] - max(tails)) > CSV_TOL:
            problems.append("summary.json: tail_sup range disagrees with the per-run CSVs")
        return problems


WORKLOADS = {w.name: w for w in (EnsembleRef, TrajectoryLargeN, AbsorptionCampaign, CliArtifacts)}


def load_package(root: Path) -> SimpleNamespace:
    """Import hktruth from ``root/src`` (and nowhere else) with the modules the workloads use."""
    src = root / "src"
    if not (src / "hktruth" / "__init__.py").is_file():
        raise ImportError(f"no hktruth sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"hktruth.{name}")
               for name in ("dynamics", "bounds", "harness", "verify", "cli")}
    found = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise ImportError(f"hktruth was imported from {found}, not from {src}")
    return SimpleNamespace(**modules)
