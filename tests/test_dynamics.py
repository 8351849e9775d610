from __future__ import annotations

import dataclasses
import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

import hktruth.dynamics as dyn
from hktruth.bounds import steered_noise
from hktruth.dynamics import (
    _DENSE_MAX_N,
    ModelConfig,
    _step,
    _windows,
    clamp_vector,
    neighbor_means,
    step,
    subset_deviations,
    validate_state,
)
from oracle import clamp_unit, deviation, local_mean, neighbor_set


# sha256 of the neighbor_means bytes in test_window_kernel_bits_are_pinned,
# taken with the two-search window kernel
WINDOW_KERNEL_DIGEST = "8516b08040062cbfb6d4362fa2067831197f3f3ac6b7cdc585ef864f2b73e163"


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

    @pytest.mark.parametrize(
        "alpha", [np.float64(0.5), np.float32(0.5), 1, np.array(0.5), np.array(0.5, np.float32)]
    )
    def test_every_scalar_kind_broadcasts(self, alpha):
        # a 0-d array is a scalar like a NumPy float
        cfg = make_config(n=4, alpha=alpha, seekers=[0, 2])
        assert cfg.alpha == (float(alpha),) * 4
        assert all(type(a) is float for a in cfg.alpha)
        assert cfg.homogeneous_alpha() == float(alpha)

    def test_effective_alpha_zero_outside_seekers(self):
        cfg = make_config(n=3, alpha=[0.5, 0.9, 0.7], seekers=[1])
        np.testing.assert_array_equal(cfg.effective_alpha, [0.0, 0.9, 0.0])
        assert cfg.homogeneous_alpha() is None
        assert cfg.seeker_alpha == 0.9

    @pytest.mark.parametrize("alpha, seekers, expected", [
        ([0.5, 0.5, 0.9], [0, 1], 0.5), ([0.5, 0.6, 0.5], [0, 1], None), (0.5, [], None),
    ])
    def test_seeker_alpha_is_the_seekers_common_alpha(self, alpha, seekers, expected):
        assert make_config(n=3, alpha=alpha, seekers=seekers).seeker_alpha == expected

    @pytest.mark.parametrize("n, alpha, seekers", [
        (4, 0.5, [0, 2]),  # one alpha for all
        (4, [0.5, 0.9, 0.7, 0.3], [1, 3]),  # one per agent, the seekers' differ
        (4, [1.0, 0.5, 1.0, 0.2], [3, 0, 2]),  # two seekers with alpha 1
        (3, 0.5, []),  # m = 0
        (3, [0.4, 1.0, 0.4], range(3)),  # m = n
    ], ids=["scalar", "per-agent", "alpha-1", "m=0", "m=n"])
    def test_derived_fields_are_decided_at_construction(self, n, alpha, seekers):
        def recomputed(cfg):
            eff = [cfg.alpha[i] if i in cfg.seekers else 0.0 for i in range(cfg.n)]
            common = {cfg.alpha[i] for i in cfg.seekers}
            return ([i in cfg.seekers for i in range(cfg.n)], eff,
                    [i for i in range(cfg.n) if eff[i] == 1.0],
                    common.pop() if len(common) == 1 else None)

        def derived(cfg):
            return (cfg.seeker_mask.tolist(), cfg.effective_alpha.tolist(),
                    cfg.full_attraction.tolist(), cfg.seeker_alpha)

        cfg = make_config(n=n, alpha=alpha, seekers=seekers)
        assert derived(cfg) == recomputed(cfg)
        for arr in (cfg.seeker_mask, cfg.effective_alpha, cfg.full_attraction):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        other = dataclasses.replace(cfg, alpha=1.0, seekers=[n - 1])
        assert derived(other) == recomputed(other) != derived(cfg)
        # a twin with other derived values is equal, hashes and prints alike
        twin = make_config(n=n, alpha=alpha, seekers=seekers)
        vars(twin).update(seeker_mask=None, effective_alpha=None, full_attraction=None,
                          seeker_alpha=-1.0)
        assert twin == cfg and hash(twin) == hash(cfg) and repr(twin) == repr(cfg)
        assert repr(cfg) == (f"ModelConfig(n={n}, epsilon=0.2, truth=0.8, alpha={cfg.alpha!r}, "
                             f"seekers={cfg.seekers!r}, delta=0.02)")

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
            dict(seekers=[0.7, 1.9]),  # non-integer indices must not become agents 0 and 1
            dict(seekers=[True]),
            dict(seekers=["1"]),
            dict(seekers=[0, 2, 0]),  # a repeated index must not shrink m to 2
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


def numpy_form_neighbor_means(x, epsilon):
    """The dense kernel in its plain numpy form: ``np.sort``, one flat gather and ``np.clip``.

    The sums and the hull are those of ``neighbor_means`` at n <= _DENSE_MAX_N;
    only the numpy calls differ, so the two must agree bit for bit, the
    sign of zero included.
    """
    n = x.shape[-1]
    diff = x[..., None, :] - x[..., :, None]
    far_above = diff > epsilon
    above, below = far_above.sum(axis=-1), far_above.sum(axis=-2)
    means = ((np.abs(diff) <= epsilon) @ x[..., None])[..., 0] / (n - below - above)
    ordered = np.sort(x, axis=-1).reshape(-1)
    start = np.arange(0, ordered.size, n).reshape(x.shape[:-1] + (1,))
    return np.clip(means, ordered[start + below], ordered[start + (n - 1) - above])


def numpy_form_step(x, config, noise=None):
    """``_step`` with the full-attraction rule as ``np.where`` and the clamp as ``np.clip``."""
    if x.shape[-1] <= _DENSE_MAX_N:
        means = numpy_form_neighbor_means(x, config.epsilon)
    else:
        means = neighbor_means(x, config.epsilon)
    eff = config.effective_alpha
    targets = np.where(eff == 1.0, config.truth, means + eff * (config.truth - means))
    if noise is None:
        return targets
    if callable(noise):
        noise = noise(means, config)
    return np.clip(targets + noise, 0.0, 1.0)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def signed_zero_profile(rng, n, kind):
    """``profile_of_kind`` with about half of its zeros written as -0.0."""
    x, eps = profile_of_kind(rng, n, kind)
    return np.where((x == 0.0) & (rng.random(n) < 0.5), -0.0, x), eps


def consensus_profiles(rng, n):
    """Rows of n opinions at the edge of one neighbourhood, each with an epsilon.

    Yields (x, epsilon, within), where ``within`` says whether the spread
    fl(max - min) is at most epsilon: a spread below epsilon, exactly
    epsilon and one ulp above it; equal opinions; -0.0 alone and beside
    0.0; and opinions with signed zeros at epsilon = inf and 1e308, which
    no spread exceeds.
    """
    x = rng.uniform(0.2, 0.6) + rng.uniform(0.01, 0.3) * rng.random(n)
    spread = np.ptp(x)
    yield x, float(spread) + 0.05, True
    if spread:
        yield x, spread, True
        yield x, np.nextafter(spread, 0.0), False
    yield np.full(n, x[0]), 5e-324, True
    yield np.full(n, -0.0), 0.2, True
    yield np.resize([-0.0, 0.0], n), 0.2, True
    yield rng.choice([-0.0, 0.0], n), 0.2, True
    signed = np.where(rng.random(n) < 0.3, -0.0, rng.random(n))
    yield signed, np.inf, True
    yield signed, 1e308, True


def consensus_batches(rng, x):
    """Two batches led by ``x``: with rows of spread 0 after it, then with a row of spread 1 too."""
    n = x.size
    within = np.stack([x, rng.permutation(x), np.full(n, 0.7), np.full(n, -0.0)])
    return within, np.vstack([within, np.resize([0.0, 1.0], n)])


def noise_of_kind(rng, kind, shape, delta):
    """None, ``steered_noise``, or iid noise in [-delta, delta], about 30% -0.0 and 30% delta."""
    if kind == "noise-free":
        return None
    if kind == "steered":
        return steered_noise
    noise = rng.uniform(-delta, delta, shape)
    noise[rng.random(shape) < 0.3] = -0.0
    noise[rng.random(shape) < 0.3] = delta
    return noise


def assert_steps_match_the_numpy_form(batch, cfg, noise):
    """``_step`` on the batch and on each row, and ``step`` on each row, bit for bit."""
    expected = numpy_form_step(batch, cfg, noise)
    assert_same_bits(_step(batch, cfg, noise), expected)
    for r, row in enumerate(batch):
        row_noise = noise[r] if isinstance(noise, np.ndarray) else noise
        assert_same_bits(_step(row, cfg, row_noise), expected[r])
        if not callable(row_noise):
            assert_same_bits(step(row, cfg, row_noise), expected[r])


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

    @pytest.mark.parametrize("eps", [0.2, 0.1, float("inf"), 1e308])
    def test_batch_windows_match_the_dense_mask_row_by_row(self, eps):
        # the window ends are counted over flat batch indices: every window
        # must stay in its own row, whatever the rows around it hold
        rng = np.random.Generator(np.random.PCG64(41))
        n = _DENSE_MAX_N + 7
        special = [
            np.full(n, 0.3),  # all equal: a width-0 row
            rng.choice([-0.0, 0.0, 0.1, 1.0], n),  # -0.0 beside 0.0
            np.minimum(rng.integers(0, 11, n) * 0.1, 1.0),  # multiples of epsilon
            np.minimum(rng.integers(0, 6, n) * 0.2, 1.0),
        ]
        for trial in range(30):
            rows = int(rng.integers(2, 7))
            picks = rng.integers(0, len(special) + 1, rows)
            x = np.stack([special[p] if p < len(special) else rng.random(n) for p in picks])
            s = np.sort(x, axis=-1)
            lo, hi = _windows(s, eps)
            flat, lo, hi = s.ravel(), lo.reshape(rows, n), hi.reshape(rows, n)
            for r, row in enumerate(s):
                assert np.all((r * n <= lo[r]) & (lo[r] < hi[r]) & (hi[r] <= (r + 1) * n))
                mask = np.abs(row[None, :] - row[:, None]) <= eps
                np.testing.assert_array_equal(hi[r] - lo[r], mask.sum(axis=1))
                np.testing.assert_array_equal(flat[lo[r]], np.where(mask, row, np.inf).min(axis=1))
                np.testing.assert_array_equal(
                    flat[hi[r] - 1], np.where(mask, row, -np.inf).max(axis=1))

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), -float("inf")])
    def test_non_positive_or_nan_epsilon_rejected(self, n, eps):
        x = np.random.Generator(np.random.PCG64(n)).random(n)
        message = f"epsilon must be a real number in (0, inf], got {eps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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

    def test_window_kernel_bits_are_pinned(self):
        # the golden digests cover n <= _DENSE_MAX_N only; this pins the
        # bytes of the sorted-window kernel, signed zeros included
        digest = hashlib.sha256()
        for n in (_DENSE_MAX_N + 1, 600, 2000):
            for rows in (1, 4):
                rng = np.random.Generator(np.random.PCG64(n * 10 + rows))
                for kind in range(5):
                    profiles = [signed_zero_profile(rng, n, kind + r) for r in range(rows)]
                    x = np.stack([p for p, _ in profiles]).reshape((n,) if rows == 1 else (rows, n))
                    eps = np.inf if kind == 4 else profiles[0][1]
                    digest.update(neighbor_means(x, eps).tobytes())
        assert digest.hexdigest() == WINDOW_KERNEL_DIGEST

    @pytest.mark.parametrize("n", [3, 20, _DENSE_MAX_N + 1])
    def test_a_list_or_float32_profile_is_read_as_float64(self, n):
        # both kernels sum in float64 whatever the input, so a float32 profile
        # gets the bits of its float64 copy, and a list is read as an array
        rng = np.random.Generator(np.random.PCG64(59 + n))
        for kind in range(5):
            x, eps = signed_zero_profile(rng, n, kind)
            x32 = x.astype(np.float32)
            for profile in (x32, np.stack([x32, x32[::-1]])):
                got = neighbor_means(profile, eps)
                assert got.dtype == np.float64
                assert_same_bits(got, neighbor_means(profile.astype(np.float64), eps))
            assert_same_bits(neighbor_means(x.tolist(), eps), neighbor_means(x, eps))
            assert_same_bits(neighbor_means([x.tolist()] * 2, eps),
                             neighbor_means(np.stack([x, x]), eps))

    @pytest.mark.parametrize("shape", [(64, 20), (16, _DENSE_MAX_N)], ids=str)
    def test_a_reused_call_holds_under_half_a_pairwise_array(self, shape):
        # a repeat reuses every row's mask: it holds row-sized arrays and the
        # per-row certificate, never a pairwise one (TestMaskReuse bounds a build)
        x = np.random.Generator(np.random.PCG64(53)).random(shape)
        pairwise = x.size * x.shape[-1] * 8
        neighbor_means(x, 0.2)
        tracemalloc.start()
        try:
            neighbor_means(x, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * pairwise

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("bad", [-0.1, -5e-324, np.nextafter(1.0, 2.0), 1e308,
                                     np.nan, np.inf, -np.inf],
                             ids=["-0.1", "-5e-324", "1+ulp", "1e308", "nan", "inf", "-inf"])
    def test_an_opinion_outside_the_unit_interval_is_refused(self, n, bad):
        # one opinion outside [0, 1], first, middle or last: alone and as the
        # middle row of three, neighbor_means, the validator and the step raise
        # one message, with no overflow warning (the suite turns warnings into
        # errors); the kernel _step trusts its input and checks nothing. The
        # nearest end of [0, 1] in its place, -0.0 or 1.0, is kept with its
        # bits, alone and in the batch
        message = r"must be in \[0, 1\]" if np.isfinite(bad) else "contains non-finite values"
        end = -0.0 if bad < 0.0 else 1.0
        rng = np.random.Generator(np.random.PCG64(61 + n))
        cfg = make_config(n=n)
        for at in (0, n // 2, n - 1):
            good = rng.random((3, n))
            good[1, at] = end
            batch = good.copy()
            batch[1, at] = bad
            for eps in (0.2, np.inf):
                for profile in (batch[1], batch):
                    with pytest.raises(ValueError, match=message):
                        neighbor_means(profile, eps)
            for call in (validate_state, step):
                with pytest.raises(ValueError, match=message):
                    call(batch[1], cfg)
            assert_same_bits(validate_state(good[1], cfg), good[1])
            for eps in (0.2, np.inf):
                together = neighbor_means(good, eps)
                for row, got in zip(good, together):
                    assert_same_bits(got, neighbor_means(row, eps))
                if n <= _DENSE_MAX_N:
                    assert_same_bits(together, numpy_form_neighbor_means(good, eps))
            assert_same_bits(step(good[1], cfg), _step(good, cfg)[1])


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


class TestSameBitsAsTheNumpyForm:
    # -0.0 is a legal opinion. np.maximum/np.minimum turn it into +0.0, and
    # so does an in-place clip of one element, where np.clip keeps the sign.
    # The sign of a clipped zero also depends on the shape of the bounds:
    # means [-0.0, -0.0] clipped to +0.0 give [0., 0.] with per-agent bounds
    # and [-0., -0.] with bounds of shape (1,).
    @pytest.mark.parametrize("x", [[-0.0], [-0.0, -0.0], [-0.0] * 5, [-0.0, 0.0, 0.2, 1.0]])
    def test_signed_zero_profiles(self, x):
        x = np.array(x)
        cfg = ModelConfig(x.size, 0.2, 0.0, 1.0, [0], 0.01)
        noise = np.full(x.size, -0.0)
        assert_same_bits(neighbor_means(x, 0.2), numpy_form_neighbor_means(x, 0.2))
        assert_same_bits(step(x, cfg), numpy_form_step(x, cfg))
        assert_same_bits(step(x, cfg, noise), numpy_form_step(x, cfg, noise))
        if not x.any():  # every mean is the hull's -0.0
            assert np.signbit(neighbor_means(x, 0.2)).all()

    def test_clamp_vector_keeps_the_sign_of_zero(self):
        values = np.array([-0.0, 0.0, -1e-300, -0.5, 0.5, 1.0, 1.0 + 2.0**-52, 2.0])
        for v in (values, values[:1], values.reshape(2, 4)):
            assert_same_bits(clamp_vector(v), np.clip(v, 0.0, 1.0))
        assert np.signbit(clamp_vector(np.array([-0.0]))[0])

    def test_neighbor_means_alone_and_in_a_batch(self):
        rng = np.random.Generator(np.random.PCG64(29))
        for trial in range(400):
            n = int(rng.integers(1, 30)) if trial % 4 else int(rng.integers(30, _DENSE_MAX_N + 1))
            x, eps = signed_zero_profile(rng, n, trial)
            batch = np.stack([x, rng.permutation(x), signed_zero_profile(rng, n, trial + 1)[0]])
            expected = numpy_form_neighbor_means(batch, eps)
            assert_same_bits(neighbor_means(batch, eps), expected)
            for row, want in zip(batch, expected):
                assert_same_bits(neighbor_means(row, eps), want)
                assert_same_bits(numpy_form_neighbor_means(row, eps), want)

    @pytest.mark.parametrize("rows,n", [(50, 20), (64, 20), (16, _DENSE_MAX_N), (10, 20), (2, 20),
                                        pytest.param((5, 4), 20, id="5x4-20")])
    def test_ensemble_batch_shapes_alone_and_in_a_batch(self, rows, n):
        # the batches an ensemble steps: 50 or 64 runs at n = 20, 10 (the CLI's),
        # 2, and 16 at the dense cap, and one with two leading axes. Rows of ties
        # exactly epsilon apart, of signed zeros, and one whose counts take every
        # value from 0 to n - 1 once epsilon is below its gap; the batch in
        # Fortran order must give the same bits too
        lead = rows if isinstance(rows, tuple) else (rows,)
        rows = int(np.prod(lead))
        rng = np.random.Generator(np.random.PCG64(47 + rows + n))
        spread = rng.permutation(np.linspace(0.0, 1.0, n))
        spread[spread == 0.0] = -0.0
        for eps in (0.2, 0.5 / (n - 1), float("inf"), 1e308, 5e-324):
            ties = np.array([0.0, 0.3, 0.3 + eps, 1.0 - eps, 1.0]).clip(0.0, 1.0)
            step = eps if 1e-3 < eps <= 1.0 else 0.25
            kinds = [
                lambda: rng.random(n),
                lambda: np.minimum(rng.integers(0, int(1 / step) + 1, n) * step, 1.0),
                lambda: rng.choice(ties, n),
                lambda: rng.choice([-0.0, 0.0, 0.5, 1.0], n),
                lambda: np.where(rng.random(n) < 0.3, -0.0, rng.random(n)),
            ]
            flat = np.stack([spread] + [kinds[r % len(kinds)]() for r in range(rows - 1)])
            batch = flat.reshape(lead + (n,))
            expected = numpy_form_neighbor_means(batch, eps)
            assert_same_bits(neighbor_means(batch, eps), expected)
            assert_same_bits(neighbor_means(np.asfortranarray(batch), eps), expected)
            for row, want in zip(flat, expected.reshape(rows, n)):
                assert_same_bits(neighbor_means(row, eps), want)
            if eps < 1 / (n - 1):
                far_above = spread[None, :] - spread[:, None] > eps
                assert sorted(far_above.sum(axis=-1)) == list(range(n))

    @pytest.mark.parametrize("n", [1, 2, 8, 20, 50, _DENSE_MAX_N, _DENSE_MAX_N + 1])
    def test_a_view_gets_the_bits_of_its_copy(self, n):
        # reversed and strided rows and batches, on the mask path, a group
        # within epsilon and the window kernel: the means of a view are those
        # of its contiguous copy
        rng = np.random.Generator(np.random.PCG64(61 + n))
        profiles = [signed_zero_profile(rng, n, kind) for kind in range(10)]
        profiles += [(x, eps) for x, eps, _ in consensus_profiles(rng, n)]
        for x, eps in profiles:
            batch = np.stack([x, rng.permutation(x), signed_zero_profile(rng, n, 3)[0], x[::-1]])
            within = consensus_batches(rng, x)[0]
            for view in (x[::-1], x[None, ::-1], batch[:, ::-1], batch[::-1], batch[::2],
                         batch.T[::-1].T, within[:, ::-1], within[::-1]):
                assert_same_bits(neighbor_means(view, eps), neighbor_means(view.copy(), eps))

    @pytest.mark.parametrize("noise_kind", ["noise-free", "iid", "steered"])
    def test_step_alone_and_in_a_batch(self, noise_kind):
        # ties exactly epsilon apart, alpha = 1 seekers, truths at the ends
        rng = np.random.Generator(np.random.PCG64(31))
        for trial in range(300):
            n = int(rng.choice([1, 2, 5, 20, 25, 50, _DENSE_MAX_N, _DENSE_MAX_N + 1]))
            x, eps = signed_zero_profile(rng, n, trial)
            if trial % 3:
                alpha = float(rng.choice([1.0, rng.uniform(0.01, 1.0)]))
            else:
                alpha = [float(a) for a in rng.choice([1.0, 0.5, rng.uniform(0.01, 1.0)], n)]
            seekers = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
            truth = float(rng.choice([0.0, 1.0, rng.random()]))
            cfg = ModelConfig(n, eps, truth, alpha, seekers, float(rng.choice([0.01, 0.3])))
            batch = np.stack([x, rng.permutation(x), signed_zero_profile(rng, n, trial + 1)[0]])
            noise = noise_of_kind(rng, noise_kind, batch.shape, cfg.delta)
            assert_steps_match_the_numpy_form(batch, cfg, noise)

    @pytest.mark.parametrize("n", [1, 2, 25, _DENSE_MAX_N])
    def test_consensus_means_alone_and_in_a_batch(self, n):
        # a batch skips the pairwise mask only when every row lies within
        # epsilon, so the second batch, with a row of spread 1, takes the mask
        # unless epsilon >= 1
        rng = np.random.Generator(np.random.PCG64(37 + n))
        for x, eps, _ in itertools.chain.from_iterable(
                consensus_profiles(rng, n) for _ in range(20)):
            assert_same_bits(neighbor_means(x, eps), numpy_form_neighbor_means(x, eps))
            for batch in consensus_batches(rng, x):
                expected = numpy_form_neighbor_means(batch, eps)
                assert_same_bits(neighbor_means(batch, eps), expected)
                for row, want in zip(batch, expected):
                    assert_same_bits(neighbor_means(row, eps), want)
        for shape in ((0, n), (0,), (3, 0), (2, 0, 5)):
            assert neighbor_means(np.empty(shape), 0.2).shape == shape

    @pytest.mark.parametrize("n", [1, 2, 25, _DENSE_MAX_N])
    @pytest.mark.parametrize("noise_kind", ["noise-free", "iid", "steered"])
    def test_consensus_steps_alone_and_in_a_batch(self, n, noise_kind):
        rng = np.random.Generator(np.random.PCG64(41 + n))
        for trial, (x, eps, _) in enumerate(itertools.chain.from_iterable(
                consensus_profiles(rng, n) for _ in range(5))):
            # a config's epsilon lies in (0, 1]; 1 takes in every profile
            eps = min(eps, 1.0)
            alpha = 1.0 if trial % 2 else [float(a) for a in rng.choice([1.0, 0.5, 0.25], n)]
            seekers = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
            cfg = ModelConfig(n, eps, float(rng.choice([0.0, 1.0, 0.5])), alpha, seekers, 0.01)
            for batch in consensus_batches(rng, x):
                noise = noise_of_kind(rng, noise_kind, batch.shape, cfg.delta)
                assert_steps_match_the_numpy_form(batch, cfg, noise)

    def test_a_group_within_epsilon_skips_the_pairwise_mask(self, monkeypatch):
        # the shortcut reads the cached ones matrix; the mask path reads only the ones vector
        calls = []
        ones = dyn._ones
        monkeypatch.setattr(dyn, "_ones", lambda *shape: calls.append(shape) or ones(*shape))
        rng = np.random.Generator(np.random.PCG64(43))
        for n in (1, 2, 25, _DENSE_MAX_N):
            for x, eps, within in consensus_profiles(rng, n):
                batch_in, batch_out = consensus_batches(rng, x)
                for profile, shortcut in ((x, within), (batch_in, within),
                                          (batch_out, within and (n == 1 or eps >= 1.0))):
                    calls.clear()
                    neighbor_means(profile, eps)
                    matrices = [shape for shape in calls if len(shape) == 2]
                    assert matrices == ([(n, n)] if shortcut else []), (n, eps, profile)


def certificate_edges(rng, n):
    """1-D rows of n at the edges of the one-row hull and clamp certificates.

    The hull certificate skips the clip of a row within epsilon whose spread
    exceeds n^2 * 2^-52 * high + 2^-1022; the clamp certificate skips the clamp when
    the row's ends and the truth, widened by delta, stay in [0, 1]. The rows:
    the least opinion on the hull threshold and one ulp either side of it; a
    spread of 0; n - 1 equal opinions and one (n + k) * 2^-52 * high above,
    1 <= k < n, whose unclipped mean at n = 128 often leaves the hull; ends
    exactly 0.25 from 0 or 1, the delta of ``certificate_configs``, or an
    ulp either side of that; -0.0 alone, beside 0.0 and beside subnormal or
    least normal opinions, whose means round to zero or stay off it; and two
    rows on the mask path.
    """
    high = 0.6
    low = high - n * n * 2.0**-52 * high
    rows = [np.full(n, 0.6), np.full(n, 1 / 3), np.full(n, -0.0), np.resize([-0.0, 0.0], n)]
    rows += [np.resize([-0.0, tiny], n) for tiny in (5e-324, 2.0**-1022, 2.0**-1021, 2.0**-1000)]
    for least in (np.nextafter(low, 0.0), low, np.nextafter(low, 1.0)):
        rows.append(rng.permutation(np.resize([least, high, 0.5 * (least + high)], n)))
    for _ in range(10):
        v = rng.uniform(0.5, 1.0)
        x = np.full(n, v)
        x[rng.integers(n)] = v + (n + int(rng.integers(1, max(n, 2)))) * 2.0**-52 * v
        rows.append(x)
    for least in (0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0)):
        rows.append(np.resize([least, 0.3, 0.35], n))
    for most in (0.75, np.nextafter(0.75, 1.0), np.nextafter(0.75, 0.0)):
        rows.append(np.resize([most, 0.7, 0.65], n))
    rows += [rng.random(n), 0.3 + 0.4 * rng.random(n)]
    return rows


def certificate_configs(n):
    """Configs with delta 0 and 0.25, truth 0, 1 and inside, and seekers of alpha 1."""
    for truth, alpha, delta in itertools.product((0.0, 1.0, 0.5), (0.5, 1.0), (0.0, 0.25)):
        for seekers in ((), range(0, n, 2)):
            yield ModelConfig(n, 0.2, truth, alpha, seekers, delta)


def count_clamps(monkeypatch):
    """A list that gets a 1 for each ``clamp_vector`` call."""
    calls = []
    clamp = dyn.clamp_vector
    monkeypatch.setattr(dyn, "clamp_vector", lambda values: calls.append(1) or clamp(values))
    return calls


class TestOneRowCertificates:
    # a single row, (n,) or (1, n), skips the clamp, and a dense one the hull clip, where
    # they provably change no bit
    @pytest.mark.parametrize("lead", [(), (1,)], ids=["(n,)", "(1, n)"])
    @pytest.mark.parametrize("n", [1, 2, 25, _DENSE_MAX_N, 200])
    @pytest.mark.parametrize("noise_kind", ["noise-free", "iid", "steered"])
    def test_one_row_steps_keep_the_bits_of_the_numpy_form(self, n, noise_kind, lead):
        rng = np.random.Generator(np.random.PCG64(53 + n))
        for x in certificate_edges(rng, n):
            x = x.reshape(lead + (n,))
            if n <= _DENSE_MAX_N:  # the window kernel sums in another order
                assert_same_bits(neighbor_means(x, 0.2), numpy_form_neighbor_means(x, 0.2))
            for cfg in certificate_configs(n):
                if noise_kind == "steered" and cfg.delta == 0.0:
                    continue  # steered noise needs delta > 0
                noises = [noise_of_kind(rng, noise_kind, x.shape, cfg.delta)]
                if noise_kind == "iid":  # the extremes, and -0.0 on every agent
                    noises += [np.full(x.shape, v) for v in (cfg.delta, -cfg.delta, -0.0)]
                for noise in noises:
                    expected = numpy_form_step(x, cfg, noise)
                    assert_same_bits(_step(x, cfg, noise), expected)
                    if not callable(noise) and not lead:
                        assert_same_bits(step(x, cfg, noise), expected)

    def test_the_kernel_returns_the_ends_of_a_single_row_only(self):
        rng = np.random.Generator(np.random.PCG64(59))
        # one group, the mask path, then the window kernel
        for x in (0.5 + 0.1 * rng.random(20), rng.random(20), rng.random(200)):
            n = x.size
            for row in (x, x[None], x.reshape(1, 1, n)):
                assert dyn._neighbor_means(row, 0.2)[1] == (x.min(), x.max())
            for batch in (np.stack([x, x]), np.stack([x, rng.random(n), x])):
                assert dyn._neighbor_means(batch, 0.2)[1] is None

    def test_the_clamp_runs_only_where_a_target_can_leave_the_unit_interval(self, monkeypatch):
        calls = count_clamps(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(61))
        cfg = ModelConfig(20, 0.2, 0.8, 0.5, range(10), 0.01)
        inside = 0.8 + 0.03 * rng.uniform(-1.0, 1.0, 20)
        noise = rng.uniform(-0.01, 0.01, 20)
        for x in (inside, 0.7 + 0.25 * rng.random(20)):  # one group, then the mask path
            step(x, cfg, noise)
            _step(x, cfg, steered_noise)
        assert calls == []
        edge = inside.copy()
        edge[3] = 0.995  # within delta of 1
        step(edge, cfg, noise)
        _step(np.stack([inside, inside]), cfg, np.stack([noise, noise]))  # a batch keeps its clamp
        assert calls == [1, 1]

    @pytest.mark.parametrize("noise_kind", ["noise-free", "iid", "steered"])
    def test_a_row_and_its_batch_of_one_take_the_same_path(self, noise_kind, monkeypatch):
        # the same ends, bits and clamp calls on consensus, mask and window rows, inside
        # the unit interval and at its edges; a batch of two gets no ends, so it keeps
        # the hull clip and the clamp
        calls = count_clamps(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(67))
        for n in (20, 200):
            cfg = ModelConfig(n, 0.2, 0.8, 0.5, range(n // 2), 0.01)
            near_zero = 0.1 * rng.random(n)
            near_zero[0] = -0.0
            rows = (0.8 + 0.03 * rng.uniform(-1.0, 1.0, n), 0.7 + 0.25 * rng.random(n),
                    near_zero, rng.random(n))
            for x in rows:
                noise = noise_of_kind(rng, noise_kind, (n,), cfg.delta)
                seen = []
                for copies in (None, 1, 2):  # the row, its batch of one, a batch of two
                    profile = x if copies is None else np.stack([x] * copies)
                    stacked = isinstance(noise, np.ndarray) and copies
                    row_noise = np.stack([noise] * copies) if stacked else noise
                    calls.clear()
                    out = _step(profile, cfg, row_noise).reshape(-1, n)[-1]
                    seen.append((dyn._neighbor_means(profile, cfg.epsilon)[1], out, calls[:]))
                (ends, out, clamped), (ends_1, out_1, clamped_1), (ends_2, out_2, clamped_2) = seen
                assert ends == ends_1 == (x.min(), x.max())
                assert_same_bits(out_1, out)
                assert clamped_1 == clamped
                assert ends_2 is None and clamped_2 == ([] if noise is None else [1])
                assert_same_bits(out_2, out)


def count_builds(monkeypatch):
    """A list that gets the number of rows of each dense mask build."""
    built = []
    rebuild = dyn._Masks.rebuild

    def counted(self, flat, stale, epsilon):
        built.append(len(flat) if stale is None else stale.size)
        return rebuild(self, flat, stale, epsilon)

    monkeypatch.setattr(dyn._Masks, "rebuild", counted)
    return built


class TestMaskReuse:
    # a dense row keeps the mask of an earlier call while a bound on its
    # movement proves that no pair has crossed epsilon
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (50,), (2, 3)], ids=str)
    def test_walks_keep_the_bits_of_the_numpy_form(self, lead, monkeypatch):
        # moves of 0, 1e-16, 1e-9, 1e-3 and 0.05 on some rows at a time, clipped
        # into [0, 1], from and back onto a 1/8 grid, where ties and pairs
        # exactly epsilon apart (0.125, 0.25) make a row's gap 0
        built = count_builds(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(71 + len(lead) + sum(lead)))
        calls = 0
        for n in (2, 5, 20, 50):
            for eps in (0.125, 0.25, 0.2, 0.05):
                x = rng.integers(0, 9, lead + (n,)) / 8.0
                for t in range(60):
                    assert_same_bits(neighbor_means(x, eps), numpy_form_neighbor_means(x, eps))
                    calls += x.size // n
                    move = float(rng.choice([0.0, 1e-16, 1e-9, 1e-3, 0.05]))
                    moving = rng.random(lead + (1,)) < 0.5
                    x = np.where(moving, x + move * rng.choice([-1.0, 0.0, 1.0], x.shape), x)
                    x = x.clip(0.0, 1.0)
                    if t % 15 == 14:
                        x = np.round(x * 8.0) / 8.0
        # both paths were taken
        assert 0 < sum(built) < calls

    def test_moves_of_half_a_gap_within_rounding_of_epsilon(self):
        # a pair a few ulps from epsilon whose difference is rounded: a move of
        # just under half the row's gap can take it across, so the slack must
        # keep such a row stale
        rng = np.random.Generator(np.random.PCG64(97))
        for _ in range(300):
            eps = float(rng.choice([0.2, 0.1, 0.3, 0.125]))
            near = float(rng.uniform(1e-9, 1e-2))
            far = near + eps
            x0 = np.array([near, far + int(rng.integers(-3, 4)) * np.spacing(far), 0.9])
            diff = x0[None, :] - x0[:, None]
            gap = np.min(np.abs(np.abs(diff) - eps))
            for fraction, sign in itertools.product((1.0, 0.75, 0.5), (1.0, -1.0)):
                step = np.nextafter(gap * fraction / 2.0, 0.0)
                x = x0 + sign * np.array([step, -step, 0.0])
                neighbor_means(x0, eps)
                assert_same_bits(neighbor_means(x, eps), numpy_form_neighbor_means(x, eps))

    def test_a_repeat_builds_nothing_and_a_new_epsilon_or_shape_reuses_nothing(self, monkeypatch):
        built = count_builds(monkeypatch)
        x = np.random.Generator(np.random.PCG64(73)).random((10, 20))
        calls = [
            (x, 0.2, None), (x, 0.2, []), (x + 1e-12, 0.2, []), (x, 0.21, [10]), (x, 0.21, []),
            (x[:5], 0.21, [5]), (x.reshape(2, 5, 20), 0.21, [10]), (x[0], 0.21, [1]),
            (x[0], 0.21, []), (x[0].reshape(1, 20), 0.21, [1]), (x, 0.21, [10]),
            (np.vstack([x[:3], 0.5 * x[3:4], x[4:]]), 0.21, [1]), (x, 0.21, [1]),
        ]
        for profile, eps, want in calls:
            built.clear()
            assert_same_bits(neighbor_means(profile, eps), numpy_form_neighbor_means(profile, eps))
            assert want is None or built == want, (profile.shape, eps, built)

    def test_a_memo_is_kept_only_up_to_the_batch_cap(self, monkeypatch):
        built = count_builds(monkeypatch)
        rng = np.random.Generator(np.random.PCG64(79))
        n = _DENSE_MAX_N
        for rows, kept in ((dyn._BATCH_CELLS // n**2, True), (dyn._BATCH_CELLS // n**2 + 1, False)):
            x = rng.random((rows, n))
            built.clear()
            neighbor_means(x, 0.2)
            neighbor_means(x, 0.2)
            assert built == ([rows] if kept else [rows, rows])

    def test_a_build_holds_two_float_pairwise_arrays(self):
        # a call that rebuilds every row peaks as a call without the memo did
        rng = np.random.Generator(np.random.PCG64(83))
        x, y = rng.random((2, 64, 20))
        pairwise = x.size * x.shape[-1] * 8
        neighbor_means(x, 0.2)
        tracemalloc.start()
        try:
            neighbor_means(y, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * pairwise

    @pytest.mark.parametrize("n", [1, 2, 20, _DENSE_MAX_N + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_opinions_are_refused(self, n, bad):
        # alone and in a batch, in the first and the last row and agent, on the
        # mask path, a group within epsilon and the window kernel, with and
        # without masks kept from a finite call of the same shape
        rng = np.random.Generator(np.random.PCG64(89 + n))
        for eps in (0.2, np.inf):
            for spread in (1.0, 0.01):
                x = 0.5 + spread * (rng.random((4, n)) - 0.5)
                for row, agent in itertools.product((0, -1), (0, -1)):
                    for profile, where in ((x, (row, agent)), (x[row], (agent,))):
                        neighbor_means(profile, eps)
                        bad_profile = profile.copy()
                        bad_profile[where] = bad
                        with pytest.raises(ValueError, match="contains non-finite values"):
                            neighbor_means(bad_profile, eps)
                        expected = neighbor_means(profile.copy(), eps)
                        assert_same_bits(neighbor_means(profile, eps), expected)
                        if n <= _DENSE_MAX_N:
                            assert_same_bits(expected, numpy_form_neighbor_means(profile, eps))


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
    # the last shape has at least n rows for n <= 140, which lays the buffer
    # out agents outermost up to n = 64 (n = 5, 20 and 64) and not above (129)
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (70, 2)],
                             ids=["(n,)", "(T, n)", "(R, T, n)", "(R > n/2, T, n)"])
    @pytest.mark.parametrize("n,seekers", [
        (5, []), (5, [1, 3]), (5, range(5)),
        # above _DENSE_MAX_N: none, all, a prefix and a scattered set
        (300, []), (300, range(300)), (300, range(40)), (300, [0, 7, 128, 129, 200, 299]),
        (_DENSE_MAX_N + 1, [0, 5, 64, 127, 128]),
        (20, []), (20, range(0, 20, 3)), (20, range(20)), (64, range(0, 64, 3)), (65, [0, 64]),
    ])
    def test_matches_the_oracle_on_a_batch_with_nan_for_empty_subsets(self, n, seekers, shape):
        rng = np.random.Generator(np.random.PCG64(23))
        cfg = make_config(n=n, seekers=seekers)
        others = [i for i in range(n) if i not in cfg.seekers]
        xs = rng.random((*shape, n))
        d_v, d_s, d_sbar = subset_deviations(xs, cfg)
        assert d_v.shape == d_s.shape == d_sbar.shape == shape
        for at in np.ndindex(shape):
            expected = [deviation(xs[at], subset, cfg.truth) if subset else np.nan
                        for subset in (range(n), sorted(cfg.seekers), others)]
            np.testing.assert_array_equal([d_v[at], d_s[at], d_sbar[at]], expected)

    @pytest.mark.parametrize("seekers", [[0], [2], [0, 2], [1, 3]])
    def test_a_zero_distance_is_plus_zero(self, seekers):
        # agents at the truth, of either subset, in either order: every zero is +0.0
        cfg = make_config(n=4, seekers=seekers)
        at_truth = [[cfg.truth] * 4, [cfg.truth, 0.5, cfg.truth, 0.9], [0.5, cfg.truth, 0.9, cfg.truth]]
        subsets = (range(4), sorted(cfg.seekers), sorted(set(range(4)) - cfg.seekers))
        for x in at_truth:
            for got, subset in zip(subset_deviations(np.array(x), cfg), subsets):
                assert got == deviation(x, subset, cfg.truth) and not np.signbit(got), (x, subset)
        # a block of at least n rows, which the metrics reduce across the rows
        block = np.array(at_truth * 3).reshape(3, 3, 4)
        for got, subset in zip(subset_deviations(block, cfg), subsets):
            for at in np.ndindex(got.shape):
                want = deviation(block[at], subset, cfg.truth)
                assert got[at] == want and not np.signbit(got[at]), (block[at], subset)

    @pytest.mark.parametrize("shape", [(1, 32, 20_000), (50, 32, 20)])
    def test_a_call_holds_no_gathered_copy(self, shape):
        # the one |xs - truth| buffer and a few row-sized results, no subset copied out
        n = shape[-1]
        cfg = make_config(n=n, seekers=range(0, n, 3))
        xs = np.random.Generator(np.random.PCG64(29)).random(shape)
        tracemalloc.start()
        try:
            subset_deviations(xs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * xs.nbytes


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
