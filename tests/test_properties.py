"""Invariant checks driven by hypothesis."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from hktruth.bounds import compute_bounds, running_averages, steered_noise
from hktruth.dynamics import ModelConfig, clamp_vector, neighbor_means, step
from oracle import clamp_unit, local_mean, neighbor_set

unit_floats = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def config_and_state(draw, n_max=8, min_seekers=0, min_delta=0.0):
    n = draw(st.integers(1, n_max))
    m = draw(st.integers(min_seekers, n))
    seekers = draw(st.permutations(list(range(n))))[:m]
    config = ModelConfig(
        n=n,
        epsilon=draw(st.floats(0.01, 1.0, allow_nan=False)),
        truth=draw(unit_floats),
        alpha=draw(st.floats(0.01, 1.0, allow_nan=False)),
        seekers=seekers,
        delta=draw(st.floats(min_delta, 0.3, allow_nan=False)),
    )
    x = np.asarray(draw(st.lists(unit_floats, min_size=n, max_size=n)))
    return config, x


@st.composite
def profile_and_epsilon(draw, n_max=12):
    """Opinions that mix ties, points on an epsilon-grid and clusters at 0 and 1."""
    eps = draw(st.sampled_from([0.1, 0.2, 0.25, 0.3, 1.0]) | st.floats(0.01, 1.0))
    grid = [min(k * eps, 1.0) for k in range(int(1.0 / eps) + 1)]
    ends = [0.0, 5e-324, 1e-15, 1.0 - 1e-15, 1.0 - 2.0**-53, 1.0]
    opinion = st.sampled_from(grid) | st.sampled_from(ends) | unit_floats
    return np.asarray(draw(st.lists(opinion, min_size=1, max_size=n_max))), eps


@given(config_and_state())
@settings(deadline=None)
def test_neighbor_self_membership_and_symmetry(cs):
    config, x = cs
    sets = [neighbor_set(x, i, config.epsilon) for i in range(config.n)]
    for i in range(config.n):
        assert i in sets[i]
        for j in sets[i]:
            assert i in sets[j]


@given(
    st.floats(-10.0, 10.0, allow_nan=False),
    unit_floats,
)
def test_clamp_never_moves_away_from_truth(v, truth):
    assert abs(clamp_unit(v) - truth) <= abs(v - truth)


@given(st.lists(st.floats(-1.5, 2.5, allow_nan=False), min_size=1, max_size=20), unit_floats)
def test_clamp_vector_never_moves_away_from_truth(values, truth):
    # each value against the drawn truth and the two ends of [0, 1]
    v = np.asarray(values)[:, None]
    truths = np.array([truth, 0.0, 1.0])
    assert np.all(np.abs(clamp_vector(v) - truths) <= np.abs(v - truths))


@given(profile_and_epsilon())
@settings(deadline=None)
def test_neighbor_means_stay_in_hull_and_match_the_oracle(xe):
    x, eps = xe
    means = neighbor_means(x, eps)
    for i in range(x.size):
        nbrs = sorted(neighbor_set(x, i, eps))
        assert x[nbrs].min() <= means[i] <= x[nbrs].max()
        assert abs(means[i] - local_mean(x, i, eps)) <= 1e-12


@given(config_and_state(), st.data())
@settings(deadline=None)
def test_noisy_step_stays_in_unit_interval(cs, data):
    config, x = cs
    raw = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                             min_size=config.n, max_size=config.n))
    noise = config.delta * np.asarray(raw)
    out = step(x, config, noise)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@given(config_and_state())
@settings(deadline=None)
def test_noise_free_step_needs_no_clamping(cs):
    config, x = cs
    out = step(x, config)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@given(config_and_state())
@settings(deadline=None)
def test_local_mean_stays_in_neighbor_hull(cs):
    config, x = cs
    for i in range(config.n):
        nbrs = sorted(neighbor_set(x, i, config.epsilon))
        mean = local_mean(x, i, config.epsilon)
        assert x[nbrs].min() <= mean <= x[nbrs].max()


@given(config_and_state(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_agent_relabeling_permutes_the_step(cs, pyrandom):
    config, x = cs
    perm = list(range(config.n))
    pyrandom.shuffle(perm)
    perm = np.asarray(perm)
    relabeled = ModelConfig(
        n=config.n,
        epsilon=config.epsilon,
        truth=config.truth,
        alpha=[config.alpha[i] for i in perm],
        seekers=[int(np.nonzero(perm == s)[0][0]) for s in config.seekers],
        delta=config.delta,
    )
    out = step(x, config)
    out_perm = step(x[perm], relabeled)
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100),
    st.booleans(),
    st.data(),
)
def test_running_averages_preserve_monotonicity(values, increasing, data):
    seq = sorted(values) if increasing else sorted(values, reverse=True)
    offset = data.draw(st.integers(0, len(seq) - 1))
    out = running_averages(seq, offset)
    diffs = np.diff(out)
    if diffs.size:
        if increasing:
            assert np.all(diffs >= -1e-9 * np.maximum(np.abs(out[:-1]), 1.0))
        else:
            assert np.all(diffs <= 1e-9 * np.maximum(np.abs(out[:-1]), 1.0))


@given(
    st.integers(1, 50),
    st.data(),
)
def test_precision_bounds_fit_inside_epsilon_at_admissible_noise(n, data):
    m = data.draw(st.integers(1, n))
    alpha = data.draw(st.floats(0.001, 1.0, allow_nan=False))
    epsilon = data.draw(st.floats(0.001, 1.0, allow_nan=False))
    base = compute_bounds(n, m, alpha, epsilon, delta=0.0)
    frac = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    nb = compute_bounds(n, m, alpha, epsilon, delta=frac * base.delta_lower)
    assert nb.delta1 <= nb.delta2
    assert nb.delta1 + nb.delta2 <= epsilon + 1e-12


@given(config_and_state(min_seekers=0, min_delta=0.001))
@settings(deadline=None)
def test_single_steered_step_contracts_above_delta(cs):
    config, x = cs
    d = float(np.max(np.abs(x - config.truth)))
    if d <= config.delta:
        return
    out = step(x, config, steered_noise(neighbor_means(x, config.epsilon), config))
    d_next = float(np.max(np.abs(out - config.truth)))
    assert d_next <= d - config.delta / 2 + 1e-12
