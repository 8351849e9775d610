"""Acceptance suite: one test per promised criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion (the heavier Monte Carlo criteria take a
couple of minutes in total).
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from hktruth.bounds import block_length, bounds_for_config, compute_bounds
from hktruth.cli import main as cli_main
from hktruth.dynamics import ModelConfig, step
from hktruth.harness import (
    MODE_IID,
    MODE_NOISE_FREE,
    RunSpec,
    iter_ensemble,
)
from hktruth.verify import (
    absorption_margin,
    check_bound_consistency,
    check_quarter_bands,
    check_running_average_monotonicity,
    sample_admissible_config,
    steered_walk,
)

REF_CONFIG = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(10), delta=0.02)


def report(num: int, title: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {title}: {detail}")
    return ok


def ulps(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(max(abs(a), abs(b), 1e-300))


def test_criterion_01_bound_arithmetic():
    worst = 0.0
    for delta in (0.02, 0.01, 0.005, 0.0025, 0.003, 0.017, 0.025):
        nb = compute_bounds(n=20, m=10, alpha=0.5, epsilon=0.2, delta=delta)
        worst = max(worst, ulps(nb.delta_bar, 5 * delta), ulps(nb.delta_lower, 0.025))
        worst = max(worst, ulps(nb.delta_lower, 0.2 / 8))
    ok = worst <= 1.0
    assert report(1, "bound arithmetic (delta_bar = 5*delta, delta_lower = eps/8)",
                  ok, f"max deviation {worst:.1f} ulp over 7 delta values")


def test_criterion_02_bound_consistency():
    # lane 3 of suite seed 199 is the PCG64(202) stream
    res = check_bound_consistency(trials=10_000, seed=199)
    ok = res.status == "pass"
    assert report(2, "delta1 + delta2 <= epsilon at delta = delta_lower",
                  ok, f"worst slack {res.margin:.3e} over 10^4 random configs (tol 1e-12)")


def test_criterion_03_absorption():
    rng = np.random.Generator(np.random.PCG64(303))
    started = time.perf_counter()
    violations = 0
    worst = np.inf
    for _ in range(1000):
        config = sample_admissible_config(rng, n_max=25)
        nb = bounds_for_config(config)
        margin = absorption_margin(config, nb, steps=1000, rng=rng)
        worst = min(worst, margin)
        violations += margin < 0.0
    ok = violations == 0
    assert report(3, "absorbing-band persistence under adversarial bounded noise",
                  ok, f"{violations} violations in 10^3 configs x 10^3 steps, "
                      f"worst margin {worst:.3e}, {time.perf_counter() - started:.0f}s")


def test_criterion_04_steered_contraction():
    rng = np.random.Generator(np.random.PCG64(404))
    worst = np.inf
    missed = 0
    checked = 0
    while checked < 1000:
        config = sample_admissible_config(rng, n_max=20,
                                          delta_frac=(0.5, 0.99), min_delta=0.004)
        x0 = rng.random(config.n)
        if float(np.max(np.abs(x0 - config.truth))) <= config.delta:
            continue
        margin, entered, steps = steered_walk(config, x0)
        worst = min(worst, margin)
        missed += not entered
        assert steps <= block_length(config.delta)
        checked += 1
    ok = worst >= -1e-12 and missed == 0
    assert report(4, "steered steps gain >= delta/2 and finish within the block length",
                  ok, f"worst per-step margin {worst:.3e}, {missed} walks missed "
                      f"the budget over 10^3 configs")


def test_criterion_05_reference_monte_carlo():
    spec = RunSpec(config=REF_CONFIG, horizon=20_000, mode=MODE_IID, tail_window=2000)
    nb = bounds_for_config(REF_CONFIG)
    failing = [rec.spec.seed for rec in iter_ensemble(spec, range(50))
               if rec.tail_sup > nb.delta_bar]
    first_fraction = 1.0 - len(failing) / 50
    # the seeds that missed delta_bar are escalated together, as one batch
    escalated = iter_ensemble(dataclasses.replace(spec, horizon=100_000), failing) if failing else []
    defects = [rec.spec.seed for rec in escalated if rec.tail_sup > nb.delta_bar]
    ok = not defects
    detail = (f"converged 50 - {len(failing)} = {50 - len(failing)}/50 at horizon 20000 "
              f"(fraction {first_fraction:.2f}); seeds {failing} escalated to horizon 10^5; "
              f"defects: {defects if defects else 'none'}")
    assert report(5, "reference config, 50 seeds: tail_sup <= delta_bar = 0.10",
                  ok, detail)


def test_criterion_06_noise_free_failure_contrast():
    config = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(10), delta=0.0)
    spec = RunSpec(config=config, horizon=600, mode=MODE_NOISE_FREE, tail_window=1)
    stuck = sum(rec.d_sbar[-1] > config.epsilon for rec in iter_ensemble(spec, range(100)))
    ok = stuck >= 1
    assert report(6, "without noise some non-seeker ends > epsilon from the truth",
                  ok, f"{stuck}/100 seeds end with a stranded non-seeker cluster")


def test_criterion_07_noise_quarter_bands():
    # lane 0 of suite seed 707 is the PCG64(707) stream; tolerance 0.005 at 10^5 draws
    res = check_quarter_bands(draws=100_000, delta=0.02, seed=707)
    ok = res.status == "pass"
    assert report(7, "each noise quarter band has frequency 0.25 +- 0.005",
                  ok, f"margin {res.margin:.5f} to the worst band over 10^5 draws")


def test_criterion_08_running_average_monotonicity():
    res = check_running_average_monotonicity(trials=10_000, seed=808)
    ok = res.status == "pass"
    assert report(8, "running averages of monotone sequences stay monotone",
                  ok, f"worst directional slack {res.margin:.3e} over 10^4 sequences (tol 1e-12)")


def test_criterion_09_cli_determinism(tmp_path, capsys):
    sim_args = ["simulate", "--horizon", "300", "--tail-window", "30",
                "--seed", "13", "--full-states"]
    ens_args = ["ensemble", "--runs", "5", "--horizon", "200", "--tail-window", "20",
                "--seed", "13", "--per-run"]
    dirs = {name: tmp_path / name for name in ("s1", "s2", "e1", "e2", "e3")}
    assert cli_main([*sim_args, "--output", str(dirs["s1"])]) == 0
    assert cli_main([*sim_args, "--output", str(dirs["s2"])]) == 0
    assert cli_main([*ens_args, "--output", str(dirs["e1"])]) == 0
    assert cli_main([*ens_args, "--output", str(dirs["e2"])]) == 0
    assert cli_main([*ens_args, "--output", str(dirs["e3"])]) == 0
    capsys.readouterr()

    identical = []
    for a, b, names in (
        ("s1", "s2", ["metrics.csv", "states.csv"]),
        ("e1", "e2", ["summary.json"] + [f"run_{i:04d}.csv" for i in range(5)]),
        ("e1", "e3", ["summary.json"] + [f"run_{i:04d}.csv" for i in range(5)]),
    ):
        for name in names:
            identical.append((dirs[a] / name).read_bytes() == (dirs[b] / name).read_bytes())
    for a, b in (("s1", "s2"), ("e1", "e2")):
        ma = json.loads((dirs[a] / "manifest.json").read_text())
        mb = json.loads((dirs[b] / "manifest.json").read_text())
        ma.pop("duration_seconds")
        mb.pop("duration_seconds")
        identical.append(ma == mb)
    ok = all(identical)
    assert report(9, "repeat CLI invocations produce byte-identical artifacts",
                  ok, f"{sum(identical)}/{len(identical)} comparisons identical "
                      "(manifests compared minus wall-clock duration)")


def test_criterion_10_degenerate_reductions():
    # all agents full-attraction seekers, no noise: truth reached exactly at t = 1
    exact_ok = True
    rng = np.random.Generator(np.random.PCG64(1010))
    for _ in range(20):
        n = int(rng.integers(1, 12))
        config = ModelConfig(n, float(rng.uniform(0.05, 1)), float(rng.random()),
                             1.0, range(n), 0.0)
        out = step(rng.random(n), config)
        exact_ok &= bool(np.all(out == config.truth))

    # no seekers, no noise: classical bounded-confidence averaging, checked
    # against an independent plain-Python reference step
    def classical_step(x: list[float], eps: float) -> list[float]:
        out = []
        for xi in x:
            nbrs = [xj for xj in x if abs(xj - xi) <= eps]
            out.append(sum(nbrs) / len(nbrs))
        return out

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 15))
        eps = float(rng.uniform(0.05, 1.0))
        config = ModelConfig(n, eps, float(rng.random()), 0.5, [], 0.0)
        x = rng.random(n)
        ours = step(x, config)
        ref = classical_step(list(x), eps)
        worst = max(worst, float(np.max(np.abs(ours - np.asarray(ref)))))
    classical_ok = worst <= 1e-12
    ok = exact_ok and classical_ok
    assert report(10, "degenerate reductions (full attraction; classical averaging)",
                  ok, f"truth hit exactly: {exact_ok}; classical reference max "
                      f"difference {worst:.2e} over 100 states (tol 1e-12)")


def test_criterion_11_one_truth_seeker_is_enough():
    # n = 5 with a single seeker at the largest admissible noise
    delta = compute_bounds(n=5, m=1, alpha=0.5, epsilon=0.2, delta=0.0).delta_lower
    noisy = ModelConfig(n=5, epsilon=0.2, truth=0.8, alpha=0.5, seekers=[0], delta=delta)
    spec = RunSpec(config=noisy, horizon=20_000, mode=MODE_IID, tail_window=1)
    late = [rec.spec.seed for rec in iter_ensemble(spec, range(32)) if rec.entry_time is None]
    # the seeds still outside the band are escalated together, as one batch
    escalated = iter_ensemble(dataclasses.replace(spec, horizon=100_000), late) if late else []
    never = [rec.spec.seed for rec in escalated if rec.entry_time is None]

    free = dataclasses.replace(noisy, delta=0.0)
    spec = RunSpec(config=free, horizon=600, mode=MODE_NOISE_FREE, tail_window=1)
    stranded = sum(rec.d_sbar[-1] > free.epsilon for rec in iter_ensemble(spec, range(32)))
    ok = not never and stranded >= 1
    assert report(11, "one seeker (n=5, m=1): with noise every agent reaches the band",
                  ok, f"noisy: {32 - len(never)}/32 seeds entered the band by step 10^5 "
                      f"(seeds {late} escalated from 2*10^4); noise-free: {stranded}/32 "
                      f"seeds end with a non-seeker > epsilon from the truth")
