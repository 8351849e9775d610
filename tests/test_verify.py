from __future__ import annotations

import numpy as np
import pytest

import hktruth.dynamics
import hktruth.verify
from hktruth.bounds import bounds_for_config, is_admissible
from hktruth.dynamics import ModelConfig
from hktruth.verify import (
    check_absorption,
    check_quarter_bands,
    check_range_preservation,
    check_steered_contraction,
    run_all,
    sample_admissible_config,
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


def test_range_preservation_passes_with_clamp():
    cfg = ModelConfig(10, 0.2, 0.8, 0.5, range(5), 0.4)
    res = check_range_preservation(cfg, trials=50, seed=0)
    assert res.status == "pass"


def test_sampled_configs_are_admissible():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50):
        cfg = sample_admissible_config(rng)
        nb = bounds_for_config(cfg)
        assert is_admissible(cfg.delta, nb)
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
