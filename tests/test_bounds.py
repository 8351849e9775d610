from __future__ import annotations

import math

import numpy as np
import pytest

from hktruth import dynamics as dyn
from hktruth.bounds import (
    band_slack,
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
        # compute_bounds keeps only the first term, which is the min iff alpha <= 1:
        # it must give the two-term min's bits, right up to alpha = 1
        rng = np.random.Generator(np.random.PCG64(41))
        near_one = [1.0, float(np.nextafter(1.0, 0.0))] + [1.0 - k * 2.0**-53 for k in range(2, 9)]
        cases = [(12, 5, 0.7, 0.6)]
        for trial in range(2000):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, n + 1))
            alpha = near_one[trial % len(near_one)] if trial % 2 else 1.0 - float(rng.random())
            cases.append((n, m, alpha, 1.0 - float(rng.random())))
        for n, m, alpha, eps in cases:
            first = m * alpha * eps / (2 * n + (2 * m - n) * alpha)
            second = m * eps / (n + 2 * m)
            nb = compute_bounds(n, m, alpha, eps, 0.0)
            assert nb.delta_lower == min(first, second), (n, m, alpha, eps)

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
            dict(n=5, m=2, alpha=1e-320, epsilon=0.2, delta=0.02),  # delta2 overflows
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

    def test_reads_only_the_seekers_alpha(self):
        # the non-seeker's 0.9 takes no effect, so the bounds are the scalar config's
        cfg = ModelConfig(3, 0.2, 0.8, [0.5, 0.5, 0.9], [0, 1], 0.01)
        assert bounds_for_config(cfg) == bounds_for_config(ModelConfig(3, 0.2, 0.8, 0.5, [0, 1], 0.01))

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

    @pytest.mark.parametrize("fraction", [1.0, 0.999])
    def test_the_band_lemma_needs_delta_below_delta_lower_in_floats(self, fraction):
        # at delta_lower, fl(delta1 + delta2) passes epsilon by an ulp: a seeker at
        # A + delta1 and a non-seeker at A - delta2 stop being neighbours, and one
        # worst-case step from a band corner leaves the band by a full delta
        n, alpha, eps, truth = 22, 0.06928255667714005, 0.15432559066118634, 0.15008025291603644
        delta_lower = compute_bounds(n, 4, alpha, eps, 0.0).delta_lower
        cfg = ModelConfig(n, eps, truth, alpha, range(4), fraction * delta_lower)
        nb = bounds_for_config(cfg)
        assert nb.admissible
        # corners: every agent at +-its bound, nudged toward the truth until inside
        bound = np.where(cfg.seeker_mask, nb.delta1, nb.delta2)
        signs = np.random.Generator(np.random.PCG64(29)).choice([-1.0, 1.0], (500, n))
        x = truth + signs * bound
        while np.any(outside := np.abs(x - truth) > bound):
            x = np.where(outside, np.nextafter(x, truth), x)

        def worst(means, config):
            # +delta where the target (as _step builds it) is >= the truth, -delta below
            targets = np.subtract(config.truth, means)
            targets *= config.effective_alpha
            targets += means
            return np.where(targets >= config.truth, config.delta, -config.delta)

        _, d_s, d_sbar = dyn.subset_deviations(dyn._step(x, cfg, worst), cfg)
        slack = np.min(band_slack(d_s, d_sbar, nb)) / cfg.delta
        if fraction == 1.0:
            assert slack <= -0.9
        else:
            assert slack >= 0.0


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


class TestBlockLength:
    def test_reference_delta(self):
        assert block_length(0.02) == 98

    def test_exact_division(self):
        assert block_length(0.5) == 2

    def test_ceiling_applied(self):
        assert block_length(0.4) == 3  # (1 - 0.4) / 0.2 = 3 exactly

    # below about 1.1e-308 the budget (1 - delta) / (delta / 2) is inf, or at 5e-324 a division by 0
    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5, 5e-324, 1e-310])
    def test_domain_errors(self, delta):
        with pytest.raises(ValueError, match="delta"):
            block_length(delta)

    def test_count_is_the_ceiling_of_the_budget(self):
        # log-uniform over every finite budget: ceil((1 - delta) / (delta / 2)), as an int
        rng = np.random.Generator(np.random.PCG64(29))
        for delta in np.exp2(rng.uniform(-1021.0, 0.0, 10_000)).tolist():
            count = block_length(delta)
            assert type(count) is int and count == math.ceil((1 - delta) / (delta / 2))


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
