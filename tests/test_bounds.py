from __future__ import annotations

import numpy as np
import pytest

from hktruth.bounds import (
    block_length,
    bounds_for_config,
    compute_bounds,
    in_absorbing_band,
    steered_noise,
)
from hktruth.dynamics import ModelConfig, neighbor_means
from oracle import running_averages

REF = dict(n=20, m=10, alpha=0.5, epsilon=0.2)


def ulps(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(max(abs(a), abs(b), 1e-300))


class TestComputeBounds:
    def test_reference_parameters(self):
        nb = compute_bounds(**REF, delta=0.02)
        assert nb.delta1 == pytest.approx(0.06, abs=1e-15)
        assert nb.delta2 == pytest.approx(0.10, abs=1e-15)
        assert nb.delta_bar == nb.delta2
        assert nb.delta_lower == 0.025

    def test_all_seekers_full_attraction(self):
        nb = compute_bounds(n=8, m=8, alpha=1.0, epsilon=0.5, delta=0.01)
        assert nb.delta1 == 0.01  # (1 - alpha) kills the first term
        assert nb.delta2 == pytest.approx(0.02, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 10, 20, 50])
    def test_half_seekers_half_attraction_special_case(self, n):
        # m = ceil(n/2), alpha = 0.5, even n: overall precision 5*delta,
        # admissible range (0, epsilon/8]
        for eps, delta in [(0.2, 0.02), (0.4, 0.01), (1.0, 0.003)]:
            nb = compute_bounds(n=n, m=(n + 1) // 2, alpha=0.5, epsilon=eps, delta=delta)
            assert ulps(nb.delta_bar, 5 * delta) <= 2
            assert ulps(nb.delta_lower, eps / 8) <= 2

    def test_delta2_dominates_delta1(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(300):
            n = int(rng.integers(1, 50))
            m = int(rng.integers(1, n + 1))
            nb = compute_bounds(
                n, m, float(1 - rng.random()), float(1 - rng.random()), float(rng.random())
            )
            assert nb.delta2 >= nb.delta1
            assert nb.delta_bar == nb.delta2

    def test_admissible_range_uses_min_of_both_terms(self):
        n, m, alpha, eps = 12, 5, 0.7, 0.6
        first = m * alpha * eps / (2 * n + (2 * m - n) * alpha)
        second = m * eps / (n + 2 * m)
        nb = compute_bounds(n, m, alpha, eps, 0.0)
        assert nb.delta_lower == min(first, second)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=0, alpha=0.5, epsilon=0.2, delta=0.0),
            dict(n=5, m=0, alpha=0.5, epsilon=0.2, delta=0.0),
            dict(n=5, m=6, alpha=0.5, epsilon=0.2, delta=0.0),
            dict(n=5, m=2, alpha=0.0, epsilon=0.2, delta=0.0),
            dict(n=5, m=2, alpha=1.2, epsilon=0.2, delta=0.0),
            dict(n=5, m=2, alpha=0.5, epsilon=0.0, delta=0.0),
            dict(n=5, m=2, alpha=0.5, epsilon=1.1, delta=0.0),
            dict(n=5, m=2, alpha=0.5, epsilon=0.2, delta=-0.1),
            dict(n=5, m=2, alpha=0.5, epsilon=0.2, delta=float("nan")),
            dict(n=5, m=2, alpha=0.5, epsilon=0.2, delta=float("inf")),
            dict(n=2.5, m=1, alpha=0.5, epsilon=0.2, delta=0.01),
            dict(n=5, m=1.5, alpha=0.5, epsilon=0.2, delta=0.01),
            dict(n=5, m=True, alpha=0.5, epsilon=0.2, delta=0.01),
            dict(n=True, m=1, alpha=0.5, epsilon=0.2, delta=0.01),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(ValueError):
            compute_bounds(**kwargs)


class TestBoundsForConfig:
    def test_requires_homogeneous_alpha(self):
        cfg = ModelConfig(3, 0.2, 0.8, [0.5, 0.6, 0.5], [0, 1], 0.01)
        with pytest.raises(ValueError, match="homogeneous"):
            bounds_for_config(cfg)

    def test_requires_a_seeker(self):
        cfg = ModelConfig(3, 0.2, 0.8, 0.5, [], 0.01)
        with pytest.raises(ValueError, match=r"^m must be an integer in \[1, 3\], got 0"):
            bounds_for_config(cfg)

    def test_matches_compute_bounds(self):
        cfg = ModelConfig(20, 0.2, 0.8, 0.5, range(10), 0.02)
        assert bounds_for_config(cfg) == compute_bounds(**REF, delta=0.02)


class TestAdmissibility:
    def test_reference_delta_admissible(self):
        nb = compute_bounds(**REF, delta=0.02)
        assert nb.admissible

    def test_closed_upper_end(self):
        nb = compute_bounds(**REF, delta=0.025)
        assert nb.admissible

    def test_strict_exceedance(self):
        nb = compute_bounds(**REF, delta=0.03)
        assert not nb.admissible

    def test_zero_noise_not_admissible(self):
        nb = compute_bounds(**REF, delta=0.0)
        assert not nb.admissible


class TestAbsorbingBand:
    CFG = ModelConfig(4, 0.5, 0.6, 0.5, [0, 1], 0.01)

    def test_exact_truth_profile(self):
        x = [0.6] * 4
        assert in_absorbing_band(x, self.CFG)

    def test_boundary_is_inside(self):
        # binary-exact parameters so "exactly at the bound" is exact in floats:
        # delta = 1/64, alpha = 0.5, m = 2, n = 4 -> delta1 = 3/64, delta2 = 5/64
        cfg = ModelConfig(4, 0.5, 0.5, 0.5, [0, 1], 1.0 / 64)
        nb = bounds_for_config(cfg)
        assert (nb.delta1, nb.delta2) == (3.0 / 64, 5.0 / 64)
        x = [0.5 + nb.delta1, 0.5 - nb.delta1, 0.5 + nb.delta2, 0.5 - nb.delta2]
        assert np.max(np.abs(np.asarray(x[:2]) - 0.5)) == nb.delta1  # genuinely on the edge
        assert in_absorbing_band(x, cfg)

    def test_violating_non_seeker(self):
        nb = bounds_for_config(self.CFG)
        x = [0.6, 0.6, 0.6 + nb.delta2 + 0.01, 0.6]
        assert not in_absorbing_band(x, self.CFG)

    def test_violating_seeker(self):
        nb = bounds_for_config(self.CFG)
        x = [0.6 + nb.delta1 + 0.005, 0.6, 0.6, 0.6]
        assert not in_absorbing_band(x, self.CFG)

    def test_all_seekers_vacuous_complement(self):
        cfg = ModelConfig(3, 0.5, 0.5, 0.8, [0, 1, 2], 0.01)
        nb = bounds_for_config(cfg)
        x = [0.5 + nb.delta1] * 3
        assert in_absorbing_band(x, cfg)

    def test_refuses_empty_seeker_set(self):
        cfg = ModelConfig(3, 0.5, 0.5, 0.8, [], 0.01)
        with pytest.raises(ValueError, match=r"^m must be an integer in \[1, 3\], got 0"):
            in_absorbing_band([0.5] * 3, cfg)

    def test_refuses_heterogeneous_alpha(self):
        cfg = ModelConfig(4, 0.5, 0.6, [0.5, 0.4, 0.5, 0.5], [0, 1], 0.01)
        with pytest.raises(ValueError, match="homogeneous alpha"):
            in_absorbing_band([0.6] * 4, cfg)

    def test_checks_the_profile(self):
        for x in ([0.6] * 3, [0.6, 0.6, 0.6, 1.2], [0.6, 0.6, 0.6, float("nan")]):
            with pytest.raises(ValueError):
                in_absorbing_band(x, self.CFG)


class TestSteeredNoise:
    def test_all_below_truth_pushed_up(self):
        cfg = ModelConfig(3, 0.3, 0.9, 0.5, [0], 0.04)
        xi = steered_noise(neighbor_means(np.asarray([0.1, 0.2, 0.3]), cfg.epsilon), cfg)
        np.testing.assert_array_equal(xi, [0.02, 0.02, 0.02])

    def test_all_above_truth_pushed_down(self):
        cfg = ModelConfig(3, 0.3, 0.1, 0.5, [0], 0.04)
        xi = steered_noise(neighbor_means(np.asarray([0.7, 0.8, 0.9]), cfg.epsilon), cfg)
        np.testing.assert_array_equal(xi, [-0.02, -0.02, -0.02])

    def test_sign_follows_neighborhood_mean_not_own_opinion(self):
        # agent 0 sits above the truth but its neighborhood mean is below
        cfg = ModelConfig(2, 1.0, 0.5, 0.5, [0], 0.1)
        xi = steered_noise(neighbor_means(np.asarray([0.6, 0.1]), cfg.epsilon), cfg)
        assert xi[0] == 0.05  # mean 0.35 <= truth

    def test_magnitude_within_protocol_band(self):
        cfg = ModelConfig(5, 0.2, 0.4, 0.5, [0], 0.06)
        rng = np.random.Generator(np.random.PCG64(2))
        xi = steered_noise(neighbor_means(rng.random(5), cfg.epsilon), cfg)
        assert np.all((np.abs(xi) >= cfg.delta / 2) & (np.abs(xi) <= cfg.delta))

    def test_requires_positive_delta(self):
        cfg = ModelConfig(2, 0.2, 0.4, 0.5, [0], 0.0)
        with pytest.raises(ValueError):
            steered_noise(neighbor_means(np.asarray([0.1, 0.2]), cfg.epsilon), cfg)


class TestBlockLength:
    def test_reference_delta(self):
        assert block_length(0.02) == 98

    def test_exact_division(self):
        assert block_length(0.5) == 2

    def test_ceiling_applied(self):
        assert block_length(0.4) == 3  # (1 - 0.4) / 0.2 = 3 exactly

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, delta):
        with pytest.raises(ValueError):
            block_length(delta)


class TestRunningAverages:
    def test_increasing_sequence(self):
        np.testing.assert_allclose(running_averages([1, 2, 3]), [1.0, 1.5, 2.0], atol=1e-15)

    def test_decreasing_sequence(self):
        np.testing.assert_allclose(running_averages([3, 2, 1]), [3.0, 2.5, 2.0], atol=1e-15)

    def test_constant_sequence(self):
        np.testing.assert_allclose(running_averages([0.7] * 5), [0.7] * 5, atol=1e-15)

    def test_offset_drops_prefix(self):
        np.testing.assert_allclose(running_averages([9, 1, 2, 3], offset=1), [1.0, 1.5, 2.0])

    def test_matches_direct_means(self):
        rng = np.random.Generator(np.random.PCG64(4))
        seq = rng.random(37)
        offset = 5
        out = running_averages(seq, offset)
        for k in range(1, 37 - offset + 1):
            direct = sum(seq[offset : offset + k]) / k
            assert out[k - 1] == pytest.approx(direct, abs=1e-12)
