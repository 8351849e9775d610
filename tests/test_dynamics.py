from __future__ import annotations

import numpy as np
import pytest

from hktruth.dynamics import (
    _DENSE_MAX_N,
    ModelConfig,
    _windows,
    neighbor_means,
    step,
    subset_deviations,
    validate_state,
)
from oracle import clamp_unit, deviation, local_mean, neighbor_set


def make_config(**overrides):
    base = dict(n=3, epsilon=0.2, truth=0.8, alpha=0.5, seekers=[0], delta=0.02)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_scalar_alpha_broadcasts(self):
        cfg = make_config(n=4, seekers=[0, 2])
        assert cfg.alpha == (0.5, 0.5, 0.5, 0.5)
        assert cfg.m == 2
        assert cfg.homogeneous_alpha() == 0.5

    def test_effective_alpha_zero_outside_seekers(self):
        cfg = make_config(n=3, alpha=[0.5, 0.9, 0.7], seekers=[1])
        np.testing.assert_array_equal(cfg.effective_alpha, [0.0, 0.9, 0.0])
        assert cfg.homogeneous_alpha() is None

    def test_empty_seeker_set_is_allowed(self):
        cfg = make_config(seekers=[])
        assert cfg.m == 0
        assert not cfg.seeker_mask.any()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=0),
            dict(epsilon=0.0),
            dict(epsilon=1.5),
            dict(truth=1.2),
            dict(truth=-0.1),
            dict(alpha=1.3),
            dict(alpha=-0.2),
            dict(delta=-0.01),
            dict(seekers=[5]),
            dict(seekers=[-1]),
            dict(alpha=[0.0, 0.5, 0.5], seekers=[0]),  # seeker needs alpha > 0
            dict(alpha=[0.5, 0.5]),  # wrong length
            dict(delta=float("nan")),
            dict(delta=float("inf")),
            dict(n=True),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)


class TestClamp:
    def test_upper_branch(self):
        assert clamp_unit(1.03) == 1.0

    def test_lower_branch(self):
        assert clamp_unit(-0.02) == 0.0

    def test_identity_branch(self):
        assert clamp_unit(0.37) == 0.37


class TestNeighborSet:
    def test_excludes_far_agent(self):
        x = [0.1, 0.2, 0.5]
        assert neighbor_set(x, 1, 0.2) == {0, 1}

    def test_all_equal_gives_full_set(self):
        x = [0.3] * 5
        assert neighbor_set(x, 2, 0.01) == {0, 1, 2, 3, 4}

    def test_boundary_distance_is_included(self):
        x = [0.0, 1.0]
        assert neighbor_set(x, 0, 1.0) == {0, 1}

    def test_self_membership(self):
        x = [0.05, 0.4, 0.41, 0.95]
        for i in range(4):
            assert i in neighbor_set(x, i, 0.1)

    def test_invalid_index_rejected(self):
        x = [0.1, 0.2]
        with pytest.raises(ValueError):
            neighbor_set(x, 2, 0.2)
        with pytest.raises(ValueError):
            neighbor_set(x, -1, 0.2)


class TestLocalMean:
    def test_mean_of_neighbors(self):
        x = [0.1, 0.2, 0.5]
        assert local_mean(x, 1, 0.2) == pytest.approx(0.15, abs=1e-12)

    def test_constant_profile(self):
        x = [0.42] * 4
        assert local_mean(x, 0, 0.3) == 0.42

    def test_two_agents_full_confidence(self):
        x = [0.0, 1.0]
        assert local_mean(x, 0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_stays_within_neighbor_hull(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(200):
            x = rng.random(int(rng.integers(1, 12)))
            eps = float(rng.uniform(0.01, 1.0))
            for i in range(x.size):
                nbrs = sorted(neighbor_set(x, i, eps))
                mean = local_mean(x, i, eps)
                assert x[nbrs].min() <= mean <= x[nbrs].max()


def dense_neighbor_means(x, epsilon):
    """The neighbour means with the hull taken as a masked min and max."""
    mask = np.abs(x[:, None] - x[None, :]) <= epsilon
    means = (mask @ x) / mask.sum(axis=1)
    lo = np.where(mask, x[None, :], np.inf).min(axis=1)
    hi = np.where(mask, x[None, :], -np.inf).max(axis=1)
    return np.clip(means, lo, hi)


def profile_of_kind(rng, n, kind):
    """n opinions of one of four kinds, and an epsilon to test them at.

    The kinds are plain uniform opinions, ties and opinions a multiple of
    epsilon apart, tight clusters at the ends of [0, 1], and opinions
    exactly epsilon from one another and from the ends.
    """
    eps = float(rng.choice([0.1, 0.2, 0.25, 1.0, 1e-12, rng.uniform(0.01, 1.0)]))
    kind %= 4
    if kind == 0:
        x = rng.random(n)
    elif kind == 1:
        x = np.minimum(rng.integers(0, int(1 / eps) + 1 if eps > 1e-3 else 4, n) * eps, 1.0)
    elif kind == 2:
        x = np.clip(rng.choice([0.0, 1.0], n) + rng.normal(0.0, 1e-15, n), 0.0, 1.0)
    else:
        x = rng.choice(np.array([0.0, 0.3, 0.3 + eps, 1.0 - eps, 1.0]).clip(0.0, 1.0), n)
    return x, eps


class TestNeighborMeans:
    def test_matches_dense_hull_alone_and_in_a_batch(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for trial in range(400):
            x, eps = profile_of_kind(rng, int(rng.integers(1, 30)), trial)
            n = x.size
            batch = np.stack([x, rng.permutation(x), rng.random(n)])
            together = neighbor_means(batch, eps)
            for row, got in zip(batch, together):
                expected = dense_neighbor_means(row, eps)
                np.testing.assert_array_equal(neighbor_means(row, eps), expected)
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [_DENSE_MAX_N + 1, 200, 2000])
    def test_sorted_windows_match_the_dense_mask(self, n):
        # above the dense threshold: the same neighbours and hull as the
        # closed mask, bit for bit, and sums that differ only by rounding
        rng = np.random.Generator(np.random.PCG64(n))
        for trial in range(40 if n < 1000 else 8):
            x, eps = profile_of_kind(rng, n, trial)
            mask = np.abs(x[None, :] - x[:, None]) <= eps
            order = np.argsort(x)
            s = x[order]
            lo, hi = _windows(s[None, :], eps)
            np.testing.assert_array_equal(hi - lo, mask[order].sum(axis=1))
            np.testing.assert_array_equal(s[lo], np.where(mask, x, np.inf).min(axis=1)[order])
            np.testing.assert_array_equal(s[hi - 1], np.where(mask, x, -np.inf).max(axis=1)[order])
            means = neighbor_means(x, eps)
            assert np.max(np.abs(means - dense_neighbor_means(x, eps))) <= 4 * n * 2.0**-52
            batch = np.stack([x, rng.permutation(x), profile_of_kind(rng, n, trial + 1)[0]])
            together = neighbor_means(batch, eps)
            np.testing.assert_array_equal(together[0], means)
            for row, got in zip(batch[1:], together[1:]):
                np.testing.assert_array_equal(got, neighbor_means(row, eps))

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), -float("inf")])
    def test_non_positive_or_nan_epsilon_rejected(self, n, eps):
        x = np.random.Generator(np.random.PCG64(n)).random(n)
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            neighbor_means(x, eps)

    @pytest.mark.parametrize("eps", [float("inf"), 1e308])
    def test_huge_epsilon_windows_match_the_dense_mask(self, eps):
        # every agent is a neighbour: the windows are whole rows, as in the mask
        n = 200
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.random(n)
        mask = np.abs(x[None, :] - x[:, None]) <= eps
        order = np.argsort(x)
        s = x[order]
        lo, hi = _windows(s[None, :], eps)
        np.testing.assert_array_equal(hi - lo, mask[order].sum(axis=1))
        np.testing.assert_array_equal(s[lo], np.where(mask, x, np.inf).min(axis=1)[order])
        np.testing.assert_array_equal(s[hi - 1], np.where(mask, x, -np.inf).max(axis=1)[order])
        means = neighbor_means(x, eps)
        assert np.max(np.abs(means - dense_neighbor_means(x, eps))) <= 4 * n * 2.0**-52
        assert np.max(np.abs(means - x.mean())) <= 4 * n * 2.0**-52
        together = neighbor_means(np.stack([x, rng.permutation(x)]), eps)
        np.testing.assert_array_equal(together[0], means)


class TestStepNoiseFree:
    def test_two_agent_hand_example(self):
        cfg = ModelConfig(n=2, epsilon=1.0, truth=1.0, alpha=0.5, seekers=[0], delta=0.0)
        out = step([0.0, 0.0], cfg)
        np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)

    def test_all_seekers_full_attraction_hits_truth_exactly(self):
        cfg = ModelConfig(n=4, epsilon=0.3, truth=0.8, alpha=1.0, seekers=range(4), delta=0.0)
        out = step([0.05, 0.3, 0.55, 0.9], cfg)
        assert np.all(out == 0.8)

    def test_constant_profile_is_fixed_point_without_seekers(self):
        cfg = ModelConfig(n=3, epsilon=0.2, truth=0.8, alpha=0.5, seekers=[], delta=0.0)
        out = step([0.4, 0.4, 0.4], cfg)
        np.testing.assert_array_equal(out, [0.4, 0.4, 0.4])

    def test_matches_per_agent_formula(self):
        # independent scalar route: seekers mix truth into their local mean
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            n = int(rng.integers(1, 10))
            cfg = ModelConfig(
                n=n,
                epsilon=float(rng.uniform(0.05, 1.0)),
                truth=float(rng.random()),
                alpha=float(rng.uniform(0.01, 1.0)),
                seekers=[int(i) for i in rng.permutation(n)[: int(rng.integers(0, n + 1))]],
                delta=0.0,
            )
            x = rng.random(n)
            out = step(x, cfg)
            for i in range(n):
                nbrs = [j for j in range(n) if abs(x[j] - x[i]) <= cfg.epsilon]
                mean = sum(x[j] for j in nbrs) / len(nbrs)
                a = cfg.alpha[i] if i in cfg.seekers else 0.0
                expected = a * cfg.truth + (1.0 - a) * mean
                assert out[i] == pytest.approx(expected, abs=1e-12)


class TestStepNoisy:
    def test_zero_noise_equals_noise_free(self):
        cfg = make_config(n=5, seekers=[0, 1], delta=0.05)
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.random(5)
        noisy = step(x, cfg, np.zeros(5))
        free = step(x, cfg)
        np.testing.assert_array_equal(noisy, free)

    def test_upper_clamp(self):
        cfg = ModelConfig(n=1, epsilon=0.5, truth=0.8, alpha=1.0, seekers=[0], delta=0.3)
        out = step([0.8], cfg, [0.3])
        assert out[0] == 1.0

    def test_lower_clamp(self):
        cfg = ModelConfig(n=1, epsilon=0.5, truth=0.1, alpha=1.0, seekers=[0], delta=0.2)
        out = step([0.1], cfg, [-0.2])
        assert out[0] == 0.0

    def test_noise_bound_enforced(self):
        cfg = make_config(delta=0.02)
        x = [0.1, 0.2, 0.3]
        with pytest.raises(ValueError, match="bound"):
            step(x, cfg, [0.0, 0.021, 0.0])
        with pytest.raises(ValueError, match="bound"):
            step(x, cfg, [0.0, float("nan"), 0.0])

    def test_noise_shape_enforced(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            step([0.1, 0.2, 0.3], cfg, [0.0, 0.0])

    def test_output_in_unit_interval(self):
        cfg = make_config(n=6, seekers=[0, 3], delta=0.5, epsilon=0.4)
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(100):
            x = rng.random(6)
            noise = cfg.delta * (2.0 * rng.random(6) - 1.0)
            out = step(x, cfg, noise)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestDeviation:
    def test_symmetric_pair(self):
        x = [0.7, 0.9]
        assert deviation(x, [0, 1], 0.8) == pytest.approx(0.1, abs=1e-15)

    def test_exact_truth_gives_zero(self):
        x = [0.8, 0.8, 0.8]
        assert deviation(x, [0, 1, 2], 0.8) == 0.0

    def test_subset_max(self):
        x = [0.1, 0.5, 0.95]
        assert deviation(x, [0, 1], 0.8) == pytest.approx(0.7, abs=1e-15)

    def test_empty_subset_rejected(self):
        x = [0.1]
        with pytest.raises(ValueError):
            deviation(x, [], 0.8)


class TestSubsetDeviations:
    def test_matches_the_oracle_on_a_batch_with_nan_for_empty_subsets(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for seekers in ([], [1, 3], range(5)):
            cfg = make_config(n=5, seekers=seekers)
            others = [i for i in range(5) if i not in cfg.seekers]
            xs = rng.random((2, 3, 5))
            d_v, d_s, d_sbar = subset_deviations(xs, cfg)
            assert d_v.shape == d_s.shape == d_sbar.shape == (2, 3)
            for r in range(2):
                for t in range(3):
                    x = xs[r, t]
                    expected = [deviation(x, subset, cfg.truth) if subset else np.nan
                                for subset in (range(5), sorted(cfg.seekers), others)]
                    np.testing.assert_array_equal([d_v[r, t], d_s[r, t], d_sbar[r, t]], expected)


class TestValidateState:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            validate_state([0.1, 0.2], make_config(n=3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            validate_state([0.1, 0.2, 1.2], make_config(n=3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            validate_state([0.1, float("nan"), 0.3], make_config(n=3))

    def test_not_a_vector_rejected(self):
        with pytest.raises(ValueError):
            validate_state([[0.1, 0.2, 0.3]], make_config(n=3))

    def test_returns_a_float64_vector(self):
        x = validate_state([0, 1, 0.5], make_config(n=3))
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x, [0.0, 1.0, 0.5])
