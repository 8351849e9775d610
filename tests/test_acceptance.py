"""Acceptance suite: one test per promised criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion (the heavier Monte Carlo criteria take a
couple of minutes in total).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from hktruth.bounds import band_slack, block_length, bounds_for_config, compute_bounds
from hktruth.cli import main as cli_main
from hktruth.dynamics import ModelConfig, _step, step, subset_deviations
from hktruth.harness import (
    MODE_IID,
    MODE_NOISE_FREE,
    RunSpec,
    iter_ensemble,
)
from hktruth.verify import (
    IN_BAND_RADIUS,
    ROUNDING_SLACK,
    absorption_margin,
    check_bound_consistency,
    check_quarter_bands,
    sample_admissible_config,
    steered_walk,
)
from oracle import classical_step, running_averages

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
        config = sample_admissible_config(rng, n_max=20)
        delta = float(rng.uniform(0.5, 0.99) * bounds_for_config(config).delta_lower)
        if delta <= 0.004:  # a walk takes about 2/delta steps
            continue
        config = dataclasses.replace(config, delta=delta)
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
    # the simulator never computes a running average, so the lemma of the
    # convergence argument is checked on the test helper; PCG64(809) is seed
    # 808 on lane 1, the stream that gave this criterion's printed slack
    rng = np.random.Generator(np.random.PCG64(809))
    worst = math.inf
    for _ in range(10_000):
        length = int(rng.integers(1, 101))
        seq = np.sort(rng.random(length))
        direction = 1.0 if rng.random() < 0.5 else -1.0
        seq = seq if direction > 0 else seq[::-1]
        out = running_averages(seq, int(rng.integers(0, length)))
        if out.size > 1:
            worst = min(worst, float(np.min(direction * np.diff(out))) + 1e-12)
    assert report(8, "running averages of monotone sequences stay monotone", worst >= 0.0,
                  f"worst directional slack {worst:.3e} over 10^4 sequences (tol 1e-12)")


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


def worst_noise(means, config):
    """+delta where an agent's mean is at or above the truth, else -delta: the mirror image of
    steered noise at full delta, which pushes every target away from the truth."""
    return np.where(means >= config.truth, config.delta, -config.delta)


def one_step_margins(delta_of) -> np.ndarray:
    """Least band slack after one worst-case step, for each of 1000 configs of criterion 03's
    distribution with its delta set to ``delta_of(config, delta_lower)``.

    Each config steps 20 uniform in-band states and 40 corners, every agent at the truth +- its
    bound; fl(truth +- bound) can round out of the band, so each such corner is nudged toward
    the truth an ulp at a time until it is inside.
    """
    rng = np.random.Generator(np.random.PCG64(1212))
    margins = np.empty(1000)
    for k in range(margins.size):
        config = sample_admissible_config(rng, n_max=25)
        config = dataclasses.replace(
            config, delta=delta_of(config, bounds_for_config(config).delta_lower))
        nb = bounds_for_config(config)
        bound = np.where(config.seeker_mask, nb.delta1, nb.delta2)
        u = rng.uniform(-IN_BAND_RADIUS, IN_BAND_RADIUS, (20, config.n))
        signs = rng.choice([-1.0, 1.0], (40, config.n))
        x = np.clip(config.truth + bound * np.concatenate([u, signs]), 0.0, 1.0)
        while (out := band_slack(*subset_deviations(x, config)[1:], nb) < 0.0).any():
            x[out] = np.nextafter(x[out], config.truth)
        x = _step(x, config, worst_noise)
        margins[k] = band_slack(*subset_deviations(x, config)[1:], nb).min()
    return margins


def test_criterion_12_one_step_band_lemma():
    # the paper's key lemma: with admissible delta no noise |xi| <= delta moves a profile out of
    # the absorbing band in one step; the worst noise is known, so one step checks it exactly
    started = time.perf_counter()
    margins = one_step_margins(lambda config, delta_lower: config.delta)
    ok = margins.min() >= -ROUNDING_SLACK
    assert report(12, "one worst-case step keeps an in-band profile in the band", ok,
                  f"worst margin {margins.min():.3e} (tol {ROUNDING_SLACK:.0e}), "
                  f"{np.count_nonzero(margins < -ROUNDING_SLACK)} of 10^3 configs x 60 states "
                  f"leave the band, {time.perf_counter() - started:.2f}s")


def test_criterion_12_control_fails_above_delta_lower():
    # negative control: just above delta_lower the same worst-case step leaves the band
    margins = one_step_margins(lambda config, delta_lower: 1.001 * delta_lower)
    assert margins.min() < -ROUNDING_SLACK


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: compute_bounds rounds to nearest, so "
                   "fl(delta_lower) can exceed the exact delta_lower and fl(delta1 + delta2) "
                   "pass epsilon")
def test_criterion_12_holds_at_delta_lower():
    # the paper's closed end, delta = delta_lower, as computed
    margins = one_step_margins(lambda config, delta_lower: delta_lower)
    assert margins.min() >= -ROUNDING_SLACK


def noise_free_ends(config: ModelConfig, pulled: int, seeds, horizon: int):
    """Distances to the truth at the horizon of noise-free runs: agents [0, pulled), then the rest."""
    spec = RunSpec(config=config, horizon=horizon, mode=MODE_NOISE_FREE, tail_window=1)
    ends = np.abs(np.array([rec.final_state for rec in iter_ensemble(spec, seeds)]) - config.truth)
    return ends[:, :pulled], ends[:, pulled:]


def test_criterion_13_noise_free_dichotomy():
    # without noise every seeker converges to the truth (the Hegselmann-Krause
    # conjecture, proved by Kurz & Rambau 2011), and every other agent ends at
    # the truth or more than epsilon from it
    started = time.perf_counter()
    tol, horizon, seeds = 1e-12, 2000, range(100)
    worst_seeker, between, captured, stranded = 0.0, 0, 0, 0
    for n, m in ((20, 10), (5, 1), (20, 1), (50, 5)):
        config = ModelConfig(n=n, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(m), delta=0.0)
        seekers, others = noise_free_ends(config, m, seeds, horizon)
        worst_seeker = max(worst_seeker, float(seekers.max()))
        between += int(np.count_nonzero((others > tol) & (others <= config.epsilon)))
        captured += int(np.count_nonzero(others <= tol))
        stranded += int(np.count_nonzero(others > config.epsilon))
    # negative control: the same agents without the seekers' pull do not all reach the truth
    control = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=[], delta=0.0)
    unpulled = float(noise_free_ends(control, 10, seeds, horizon)[0].max())
    ok = (worst_seeker <= tol and between == 0 and captured >= 1 and stranded >= 1
          and unpulled > tol)
    assert report(13, "noise-free dichotomy: seekers reach the truth, others reach it or stay "
                      "> epsilon away", ok,
                  f"worst seeker {worst_seeker:.1e} (tol 1e-12), {captured} non-seekers captured, "
                  f"{stranded} stranded, {between} in between, over 4 configs x 100 seeds at "
                  f"horizon {horizon}; control without the pull: worst {unpulled:.2f}, "
                  f"{time.perf_counter() - started:.1f}s")


def agreement_at_horizon(config: ModelConfig, mode: str, horizon: int):
    """Whether each of seeds 0-49 ends with diameter <= epsilon, and farther than epsilon from
    the truth."""
    spec = RunSpec(config=config, horizon=horizon, mode=mode, tail_window=1)
    ends = np.array([rec.final_state for rec in iter_ensemble(spec, range(50))])
    agreed = np.ptp(ends, axis=1) <= config.epsilon
    far = np.abs(ends - config.truth).max(axis=1) > config.epsilon
    return agreed, far


def test_criterion_14_noise_alone_agrees_away_from_the_truth():
    # noise alone drives Hegselmann-Krause dynamics to quasi-consensus (Su, Chen & Hong,
    # Automatica 2017), but with no seeker at no preferred point; without noise the
    # agents stay in clusters more than epsilon apart (Blondel, Hendrickx & Tsitsiklis 2009)
    started = time.perf_counter()
    noisy = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=[], delta=0.02)
    agreed, far = agreement_at_horizon(noisy, MODE_IID, 20_000)
    far_share = far[agreed].mean() if agreed.any() else 0.0
    fragmented = 1.0 - agreement_at_horizon(
        dataclasses.replace(noisy, delta=0.0), MODE_NOISE_FREE, 2000)[0].mean()
    # negative control: one seeker at the same horizon brings the agreement to the truth
    pulled, pulled_far = agreement_at_horizon(dataclasses.replace(noisy, seekers=[0]), MODE_IID,
                                              20_000)
    control_share = pulled_far[pulled].mean() if pulled.any() else 0.0
    ok = (agreed.mean() >= 0.8 and far_share >= 0.4 and fragmented >= 0.8
          and control_share < 0.4)
    assert report(14, "noise alone (m = 0) brings agreement, not the truth", ok,
                  f"with noise {agreed.mean():.0%} of 50 seeds end with diameter <= epsilon "
                  f"at horizon 20000 (>= 80%), {far_share:.0%} of them > epsilon from the "
                  f"truth (>= 40%); without noise {fragmented:.0%} stay fragmented at horizon "
                  f"2000 (>= 80%); control with one seeker: {control_share:.0%} of "
                  f"{pulled.mean():.0%} agreeing end far (< 40% fails the assertion), "
                  f"{time.perf_counter() - started:.1f}s")
