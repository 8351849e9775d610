from __future__ import annotations

import math

import numpy as np
import pytest

import hktruth.dynamics
import hktruth.verify
from hktruth.bounds import block_length, bounds_for_config, compute_bounds, steered_noise
from hktruth.dynamics import ModelConfig, neighbor_means, step
from hktruth.verify import (
    absorption_margin,
    check_absorption,
    check_bound_consistency,
    check_quarter_bands,
    check_range_preservation,
    check_steered_contraction,
    run_all,
    sample_admissible_config,
    steered_walk,
)

REF_CONFIG = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(10), delta=0.02)


def test_default_config_passes_every_suite():
    results = run_all(REF_CONFIG, trials=40, steps=60, draws=20_000, seed=0)
    assert [r.status for r in results] == ["pass"] * len(results)


def test_absorption_skipped_when_noise_too_strong():
    cfg = ModelConfig(20, 0.2, 0.8, 0.5, range(10), 0.03)  # above the 0.025 limit
    res = check_absorption(cfg, trials=5, steps=10)
    assert res.status == "skip"
    assert "admissible" in res.note


def test_absorption_tolerates_band_edge_rounding():
    # alpha = 1 makes delta1 = delta exactly; stored opinions fl(A + xi) may
    # sit one ulp outside the real band, which must not count as a violation
    cfg = ModelConfig(20, 0.2, 0.8, 1.0, range(20), 0.05)
    res = check_absorption(cfg, trials=20, steps=100, seed=0)
    assert res.status == "pass"
    assert res.margin >= -1e-14


def test_absorption_skipped_without_seekers():
    cfg = ModelConfig(5, 0.2, 0.8, 0.5, [], 0.01)
    res = check_absorption(cfg, trials=5, steps=10)
    assert res.status == "skip"


def test_quarter_bands_skipped_at_zero_delta():
    assert check_quarter_bands(draws=10, delta=0.0).status == "skip"


@pytest.mark.parametrize("delta", [float("nan"), -0.01])
def test_quarter_bands_refuse_a_bad_delta(delta):
    # a negative delta is no noise strength, not a zero one to skip
    with pytest.raises(ValueError, match="^noise strength delta must be finite and >= 0"):
        check_quarter_bands(draws=10, delta=delta)


def test_steered_skipped_at_zero_delta():
    cfg = ModelConfig(5, 0.2, 0.8, 0.5, [0], 0.0)
    assert check_steered_contraction(cfg, trials=5).status == "skip"


def test_range_preservation_fails_when_clamp_disabled(monkeypatch):
    # negative control: remove the clamp and the suite must notice
    monkeypatch.setattr(hktruth.dynamics, "clamp_vector", lambda values: values)
    cfg = ModelConfig(10, 0.2, 0.8, 0.5, range(5), 0.4)
    res = check_range_preservation(cfg, trials=50, seed=0)
    assert res.status == "fail"
    assert res.margin < 0


def test_steered_contraction_fails_without_the_steering(monkeypatch):
    # negative control: zero steering gains nothing per step, so every walk
    # runs out its block-length budget
    monkeypatch.setattr(hktruth.verify, "steered_noise", lambda means, _: np.zeros_like(means))
    res = check_steered_contraction(REF_CONFIG, trials=5)
    assert res.status == "fail"
    assert res.margin == pytest.approx(-0.01)
    assert res.note == "5 walks missed the block-length budget"


def test_absorption_fails_without_neighbour_averaging(monkeypatch):
    # negative control: zero neighbourhood means send every non-seeker to 0, out of the band
    monkeypatch.setattr(hktruth.dynamics, "neighbor_means", lambda x, epsilon: np.zeros_like(x))
    res = check_absorption(REF_CONFIG, trials=3, steps=20)
    assert res.status == "fail"
    assert res.margin == pytest.approx(-0.70, abs=0.01)


def test_absorption_margin_refuses_bounds_of_another_delta():
    # the bounds for delta = 0.001 would report a false violation (margin -0.027)
    own = absorption_margin(REF_CONFIG, bounds_for_config(REF_CONFIG), 50,
                            np.random.Generator(np.random.PCG64(0)))
    assert own == pytest.approx(0.0338, abs=1e-4)
    with pytest.raises(ValueError, match="not the config's own bounds"):
        absorption_margin(REF_CONFIG, compute_bounds(20, 10, 0.5, 0.2, 0.001), 50,
                          np.random.Generator(np.random.PCG64(0)))


def test_steered_walk_from_inside_delta_takes_no_step():
    x0 = np.full(REF_CONFIG.n, 0.8)
    x0[3] = 0.8 - 0.01
    assert steered_walk(REF_CONFIG, x0) == (math.inf, True, 0)


def plain_steered_walk(config, x):
    """steered_walk as a loop over the public step, neighbour means and steered noise."""
    d, worst, t = float(np.max(np.abs(x - config.truth))), math.inf, 0
    while d > config.delta and t < block_length(config.delta):
        x = step(x, config, steered_noise(neighbor_means(x, config.epsilon), config))
        d_next = float(np.max(np.abs(x - config.truth)))
        worst, d, t = min(worst, (d - d_next) - config.delta / 2.0), d_next, t + 1
    return worst, d <= config.delta, t


def test_steered_walk_matches_a_loop_over_the_public_step():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(5):
        x0 = rng.random(REF_CONFIG.n)
        expected = plain_steered_walk(REF_CONFIG, x0)
        assert expected[1] and expected[2] > 0
        assert steered_walk(REF_CONFIG, x0) == expected  # bit for bit


@pytest.mark.parametrize("x0", [np.full(19, 0.5), np.full((2, 20), 0.5),
                                np.r_[np.full(19, 0.5), np.nan]],
                         ids=["short", "batch", "nan"])
def test_steered_walk_refuses_a_bad_start(x0):
    with pytest.raises(ValueError):
        steered_walk(REF_CONFIG, x0)


def test_range_preservation_passes_with_clamp():
    cfg = ModelConfig(10, 0.2, 0.8, 0.5, range(5), 0.4)
    res = check_range_preservation(cfg, trials=50, seed=0)
    assert res.status == "pass"


def test_sampled_configs_are_admissible():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50):
        cfg = sample_admissible_config(rng)
        nb = bounds_for_config(cfg)
        assert nb.admissible
        assert cfg.delta < nb.delta_lower  # sampled strictly inside


def test_sampling_gives_up_when_no_config_is_admissible():
    # delta_lower <= m epsilon / (n + 2m) < 1/2, so no draw passes min_delta = 1
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(RuntimeError, match="could not sample an admissible config"):
        sample_admissible_config(rng, min_delta=1.0)


def test_suite_results_flag_failures():
    res = check_quarter_bands(draws=50, delta=0.02, seed=0)  # 50 draws: sampling error
    assert res.status in ("pass", "fail")
    assert res.failed == (res.status == "fail")


@pytest.mark.parametrize(
    "call, argument",
    [
        pytest.param(lambda: check_steered_contraction(REF_CONFIG, trials=0), "trials",
                     id="steered-contraction-trials-0"),
        pytest.param(lambda: check_range_preservation(REF_CONFIG, trials=0), "trials",
                     id="range-preservation-trials-0"),
        pytest.param(lambda: check_bound_consistency(trials=0), "trials",
                     id="bound-consistency-trials-0"),
        pytest.param(lambda: check_absorption(REF_CONFIG, trials=0), "trials",
                     id="absorption-trials-0"),
        pytest.param(lambda: check_absorption(REF_CONFIG, steps=0), "steps",
                     id="absorption-steps-0"),
        pytest.param(lambda: check_quarter_bands(draws=0), "draws", id="quarter-bands-draws-0"),
        pytest.param(lambda: check_quarter_bands(draws=-5), "draws",
                     id="quarter-bands-draws-negative"),
        pytest.param(lambda: run_all(REF_CONFIG, seed=-1), "seed", id="run-all-seed-negative"),
        pytest.param(lambda: run_all(REF_CONFIG, seed=1.5), "seed", id="run-all-seed-float"),
    ],
)
def test_suites_refuse_empty_counts_and_bad_seeds(call, argument):
    # a suite that checks nothing must not report a pass
    with pytest.raises(ValueError, match=f"^{argument} must be an integer"):
        call()
