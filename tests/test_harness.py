from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hktruth.bounds import bounds_for_config, steered_noise
from hktruth.dynamics import ModelConfig, neighbor_means, step
from hktruth.harness import (
    _BATCH_RUNS,
    _NOISE_BLOCK,
    MODE_IID,
    MODE_NOISE_FREE,
    MODE_STEERED,
    MODES,
    RunSpec,
    TrajectoryRecord,
    draw_noise,
    iter_ensemble,
    run_trajectory,
    summarize,
)

REF_CONFIG = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(10), delta=0.02)


def empirical_limsup(record: TrajectoryRecord, window: int) -> float:
    """Max worst-deviation over the final ``window`` recorded steps."""
    length = record.d_v.shape[0]
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    if window > length:
        raise ValueError(f"window {window} exceeds the recorded series length {length}")
    return float(np.max(record.d_v[length - window :]))


def reference_record(spec: RunSpec) -> TrajectoryRecord:
    """One run stepped a vector at a time through the public step function."""
    cfg = spec.config
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x = rng.random(cfg.n)
    states = [x]
    for _ in range(spec.horizon):
        if spec.mode == MODE_NOISE_FREE:
            x = step(x, cfg)
        elif spec.mode == MODE_IID:
            x = step(x, cfg, draw_noise(rng, cfg.n, cfg.delta))
        else:
            x = step(x, cfg, steered_noise(neighbor_means(x, cfg.epsilon), cfg))
        states.append(x)
    xs = np.array(states)
    dev = np.abs(xs - cfg.truth)
    d_s = dev[:, cfg.seeker_mask].max(axis=1)
    d_sbar = dev[:, ~cfg.seeker_mask].max(axis=1)
    nb = bounds_for_config(cfg)
    entry = next((t for t in range(spec.horizon + 1)
                  if d_s[t] <= nb.delta1 and d_sbar[t] <= nb.delta2), None)
    d_v = dev.max(axis=1)
    return TrajectoryRecord(spec=spec, d_v=d_v, d_s=d_s, d_sbar=d_sbar, entry_time=entry,
                            tail_sup=float(d_v[-spec.tail_window:].max()), bounds=nb,
                            states=xs)


def make_spec(**overrides):
    base = dict(config=REF_CONFIG, horizon=100, seed=0, mode=MODE_IID, tail_window=10)
    base.update(overrides)
    return RunSpec(**base)


class TestDrawNoise:
    def test_zero_delta_gives_zero_vector(self):
        rng = np.random.Generator(np.random.PCG64(0))
        assert np.all(draw_noise(rng, 50, 0.0) == 0.0)

    def test_componentwise_bound(self):
        rng = np.random.Generator(np.random.PCG64(1))
        xi = draw_noise(rng, 10_000, 0.03)
        assert np.max(np.abs(xi)) <= 0.03

    def test_same_seed_same_stream(self):
        a = np.random.Generator(np.random.PCG64(42))
        b = np.random.Generator(np.random.PCG64(42))
        np.testing.assert_array_equal(draw_noise(a, 7, 0.1), draw_noise(b, 7, 0.1))
        np.testing.assert_array_equal(draw_noise(a, 7, 0.1), draw_noise(b, 7, 0.1))

    def test_negative_delta_rejected(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError):
            draw_noise(rng, 3, -0.1)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            draw_noise(rng, 3, delta)


class TestRunSpecValidation:
    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            make_spec(horizon=0)

    def test_tail_window_must_fit_horizon(self):
        with pytest.raises(ValueError):
            make_spec(horizon=10, tail_window=11)
        with pytest.raises(ValueError):
            make_spec(tail_window=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_spec(mode="gossip")

    @pytest.mark.parametrize("field,value", [
        ("horizon", 100.0), ("horizon", True),
        ("tail_window", 2.5), ("tail_window", True),
        ("seed", 1.5), ("seed", True), ("seed", -1),
    ])
    def test_counts_must_be_integers(self, field, value):
        # ModelConfig.n's rule: an int or NumPy integer, never a bool
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_spec(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        spec = make_spec(horizon=np.int64(40), tail_window=np.int32(4), seed=np.uint64(7))
        assert run_trajectory(spec).tail_sup == run_trajectory(
            make_spec(horizon=40, tail_window=4, seed=7)).tail_sup

    def test_steered_needs_positive_delta(self):
        cfg = dataclasses.replace(REF_CONFIG)
        cfg = ModelConfig(cfg.n, cfg.epsilon, cfg.truth, 0.5, range(10), 0.0)
        with pytest.raises(ValueError):
            make_spec(config=cfg, mode=MODE_STEERED)

    def test_explicit_initial_validated(self):
        with pytest.raises(ValueError):
            make_spec(initial=(0.5,) * 19)
        with pytest.raises(ValueError):
            make_spec(initial=(1.5,) + (0.5,) * 19)
        with pytest.raises(ValueError):
            make_spec(initial=(float("nan"),) + (0.5,) * 19)
        spec = make_spec(initial=[0.5] * 20)
        assert spec.initial == (0.5,) * 20

    def test_unknown_initial_tag_rejected(self):
        with pytest.raises(ValueError):
            make_spec(initial="gaussian")


class TestRunTrajectory:
    def test_bit_identical_reproduction(self):
        spec = make_spec(horizon=200, seed=77, record_states=True)
        a = run_trajectory(spec)
        b = run_trajectory(spec)
        np.testing.assert_array_equal(a.d_v, b.d_v)
        np.testing.assert_array_equal(a.d_s, b.d_s)
        np.testing.assert_array_equal(a.d_sbar, b.d_sbar)
        np.testing.assert_array_equal(a.states, b.states)
        assert a.entry_time == b.entry_time
        assert a.tail_sup == b.tail_sup

    def test_series_covers_every_step(self):
        rec = run_trajectory(make_spec(horizon=50))
        assert rec.d_v.shape == (51,)
        assert rec.states is None

    def test_tail_sup_consistent_with_series(self):
        spec = make_spec(horizon=120, tail_window=30, seed=5)
        rec = run_trajectory(spec)
        assert rec.tail_sup == np.max(rec.d_v[-30:])
        assert rec.tail_sup == empirical_limsup(rec, 30)

    def test_noise_free_mode_ignores_seed_for_dynamics(self):
        init = tuple(np.linspace(0.05, 0.95, 20))
        a = run_trajectory(make_spec(mode=MODE_NOISE_FREE, seed=1, initial=init, horizon=40))
        b = run_trajectory(make_spec(mode=MODE_NOISE_FREE, seed=2, initial=init, horizon=40))
        np.testing.assert_array_equal(a.d_v, b.d_v)

    def test_iid_from_truth_enters_band_at_zero_and_stays(self):
        spec = make_spec(initial=(0.8,) * 20, horizon=400, tail_window=40, seed=9)
        rec = run_trajectory(spec)
        nb = bounds_for_config(REF_CONFIG)
        assert rec.entry_time == 0
        assert np.all(rec.d_s <= nb.delta1)
        assert np.all(rec.d_sbar <= nb.delta2)

    def test_band_persists_after_mid_run_entry(self):
        # random init, admissible noise: once the band is entered it must
        # hold at every later recorded step
        spec = make_spec(horizon=2500, tail_window=250, seed=7)
        rec = run_trajectory(spec)
        nb = bounds_for_config(REF_CONFIG)
        assert rec.entry_time is not None and rec.entry_time > 0
        assert np.all(rec.d_s[rec.entry_time :] <= nb.delta1)
        assert np.all(rec.d_sbar[rec.entry_time :] <= nb.delta2)

    def test_steered_contracts_until_target(self):
        spec = make_spec(mode=MODE_STEERED, horizon=98, tail_window=1, seed=3)
        rec = run_trajectory(spec)
        delta = REF_CONFIG.delta
        hit = np.nonzero(rec.d_v <= delta)[0]
        assert hit.size > 0, "steered run never reached the delta target"
        first = hit[0]
        drops = rec.d_v[: first + 1][:-1] - rec.d_v[1 : first + 1]
        assert np.all(drops >= delta / 2 - 1e-12)

    def test_empty_seeker_set_gives_nan_seeker_series(self):
        cfg = ModelConfig(5, 0.3, 0.5, 0.5, [], 0.0)
        rec = run_trajectory(RunSpec(config=cfg, horizon=10, mode=MODE_NOISE_FREE, tail_window=2))
        assert np.all(np.isnan(rec.d_s))
        assert np.all(~np.isnan(rec.d_sbar))
        assert rec.entry_time is None and rec.bounds is None

    def test_large_n_run_holds_no_pairwise_arrays(self):
        # at n = 20000 a dense pairwise kernel would need GBs a step
        n = 20_000
        cfg = ModelConfig(n, 0.2, 0.8, 0.5, range(n // 2), 0.02)
        spec = make_spec(config=cfg, horizon=3, seed=5, tail_window=1, record_states=True)
        tracemalloc.start()
        try:
            rec = run_trajectory(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # 50 agents of the last step against the closed test, one block of rows,
        # with the noise rebuilt from the run's documented stream
        rng = np.random.Generator(np.random.PCG64(5))
        rng.random(n)  # x(0)
        noise = cfg.delta * (2.0 * rng.random((3, n)) - 1.0)
        x = rec.states[2]
        agents = np.random.Generator(np.random.PCG64(0)).choice(n, 50, replace=False)
        close = np.abs(x[None, :] - x[agents, None]) <= cfg.epsilon
        means = (close * x).sum(axis=1) / close.sum(axis=1)
        targets = means + cfg.effective_alpha[agents] * (cfg.truth - means)
        expected = np.clip(targets + noise[2, agents], 0.0, 1.0)
        assert np.max(np.abs(rec.states[3, agents] - expected)) <= 1e-12

    def test_all_seekers_gives_nan_complement_series(self):
        cfg = ModelConfig(5, 0.3, 0.5, 0.5, range(5), 0.01)
        rec = run_trajectory(RunSpec(config=cfg, horizon=10, tail_window=2))
        assert np.all(np.isnan(rec.d_sbar))
        assert np.all(~np.isnan(rec.d_s))


class TestDegenerateReductions:
    def test_classical_reference_step(self):
        # plain-Python bounded-confidence averaging, no seekers, no noise
        def classical_step(x, eps):
            out = []
            for xi in x:
                nbrs = [xj for xj in x if abs(xj - xi) <= eps]
                out.append(sum(nbrs) / len(nbrs))
            return out

        rng = np.random.Generator(np.random.PCG64(21))
        cfg = ModelConfig(12, 0.25, 0.5, 0.5, [], 0.0)
        x = rng.random(12)
        spec = RunSpec(config=cfg, horizon=20, mode=MODE_NOISE_FREE,
                       initial=tuple(x), tail_window=1)
        rec = run_trajectory(spec)  # smoke: runs to horizon
        assert rec.d_v.shape == (21,)

        expected = list(x)
        for _ in range(20):
            expected = classical_step(expected, cfg.epsilon)
            x = step(x, cfg)
            np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_full_attraction_everyone_reaches_truth_at_step_one(self):
        cfg = ModelConfig(6, 0.2, 0.8, 1.0, range(6), 0.0)
        spec = RunSpec(config=cfg, horizon=3, mode=MODE_NOISE_FREE, seed=4,
                       tail_window=1, record_states=True)
        rec = run_trajectory(spec)
        assert np.all(rec.states[1] == 0.8)
        assert np.all(rec.d_v[1:] == 0.0)


class TestEnsemble:
    def test_singleton_matches_single_trajectory(self):
        spec = make_spec(horizon=150, tail_window=15)
        summary = summarize(iter_ensemble(spec, [123]))
        rec = run_trajectory(dataclasses.replace(spec, seed=123))
        assert summary.runs == 1
        assert summary.tail_sup_min == rec.tail_sup
        assert summary.tail_sup_max == rec.tail_sup
        assert summary.entry_count == (1 if rec.entry_time is not None else 0)

    def test_seed_derivation_is_base_plus_index(self):
        spec = make_spec(horizon=20, tail_window=2)
        seeds = [rec.spec.seed for rec in iter_ensemble(spec, range(100, 104))]
        assert seeds == [100, 101, 102, 103]

    def test_noise_free_runs_with_shared_init_are_identical(self):
        cfg = ModelConfig(10, 0.2, 0.8, 0.5, range(5), 0.0)
        spec = RunSpec(config=cfg, horizon=60, mode=MODE_NOISE_FREE,
                       initial=tuple(np.linspace(0.1, 0.9, 10)), tail_window=6)
        records = list(iter_ensemble(spec, range(5)))
        for rec in records[1:]:
            np.testing.assert_array_equal(rec.d_v, records[0].d_v)

    def test_records_match_run_trajectory(self):
        # the wide config takes the sorted-window kernel, and all 7 runs share a batch
        wide = ModelConfig(600, 0.2, 0.8, 0.5, range(300), 0.02)
        for mode, config, horizon in ((MODE_IID, REF_CONFIG, 80), (MODE_STEERED, REF_CONFIG, 80),
                                      (MODE_IID, wide, 3)):
            spec = make_spec(config=config, horizon=horizon, tail_window=min(8, horizon), mode=mode)
            records = list(iter_ensemble(spec, range(11, 18)))
            assert len(records) == 7
            for i, rec in enumerate(records):
                alone = run_trajectory(dataclasses.replace(spec, seed=11 + i))
                np.testing.assert_array_equal(rec.d_v, alone.d_v)
                np.testing.assert_array_equal(rec.d_s, alone.d_s)
                np.testing.assert_array_equal(rec.d_sbar, alone.d_sbar)
                assert rec.entry_time == alone.entry_time
                assert rec.tail_sup == alone.tail_sup

    @pytest.mark.parametrize("mode", MODES)
    def test_every_batch_shape_matches_a_vector_loop(self, mode):
        # runs alone, in one partial batch, and across a batch boundary; the
        # horizon crosses a noise block
        spec = make_spec(horizon=_NOISE_BLOCK + 3, tail_window=20, mode=mode,
                         record_states=True)
        expected: dict[int, TrajectoryRecord] = {}
        for runs in (1, 7, 50, _BATCH_RUNS + 6):
            records = list(iter_ensemble(spec, range(40, 40 + runs)))
            assert len(records) == runs
            for i, rec in enumerate(records):
                if i not in expected:
                    expected[i] = reference_record(dataclasses.replace(spec, seed=40 + i))
                ref = expected[i]
                assert rec.spec == ref.spec
                np.testing.assert_array_equal(rec.states, ref.states)
                np.testing.assert_array_equal(rec.d_v, ref.d_v)
                np.testing.assert_array_equal(rec.d_s, ref.d_s)
                np.testing.assert_array_equal(rec.d_sbar, ref.d_sbar)
                assert rec.entry_time == ref.entry_time
                assert rec.tail_sup == ref.tail_sup
                assert rec.bounds == ref.bounds

    def test_summarize_rejects_no_records(self):
        with pytest.raises(ValueError, match="at least one record"):
            summarize([])
        with pytest.raises(ValueError, match="at least one record"):
            summarize(iter(()))

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            list(iter_ensemble(make_spec(), []))
        with pytest.raises(ValueError):
            list(iter_ensemble(make_spec(), range(0)))

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
            list(iter_ensemble(make_spec(), [3, -1]))

    @pytest.mark.parametrize("seed", [0.5, 2.0, True, np.float64(1.0)])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            list(iter_ensemble(make_spec(), [3, seed]))

    def test_numpy_integer_seeds_accepted(self):
        spec = make_spec(horizon=20, tail_window=2)
        records = list(iter_ensemble(spec, np.array([4, 9])))
        assert [rec.spec.seed for rec in records] == [4, 9]
        assert [rec.tail_sup for rec in records] == [
            rec.tail_sup for rec in iter_ensemble(spec, [4, 9])]

    def test_any_seed_list_matches_run_trajectory(self):
        # seeds out of order, repeated and far apart, across a batch boundary
        spec = make_spec(horizon=_NOISE_BLOCK + 3, tail_window=5)
        seeds = [9, 2, 9, 10**12, *range(_BATCH_RUNS)]
        records = list(iter_ensemble(spec, seeds))
        assert [rec.spec.seed for rec in records] == seeds
        for rec in records[:4] + records[-2:]:
            alone = run_trajectory(rec.spec)
            np.testing.assert_array_equal(rec.d_v, alone.d_v)
            np.testing.assert_array_equal(rec.d_s, alone.d_s)
            np.testing.assert_array_equal(rec.d_sbar, alone.d_sbar)
            assert rec.entry_time == alone.entry_time


class TestEmpiricalLimsup:
    def _record_with_series(self, series):
        spec = make_spec(horizon=len(series) - 1, tail_window=1)
        arr = np.asarray(series, dtype=float)
        return TrajectoryRecord(
            spec=spec, d_v=arr, d_s=arr.copy(), d_sbar=arr.copy(),
            entry_time=None, tail_sup=float(arr[-1:].max()), bounds=None,
        )

    def test_constant_series(self):
        rec = self._record_with_series([0.05] * 6)
        assert empirical_limsup(rec, 3) == 0.05

    def test_window_one_takes_final_value(self):
        rec = self._record_with_series([0.5, 0.4, 0.3, 0.2])
        assert empirical_limsup(rec, 1) == 0.2

    def test_max_over_last_window(self):
        rec = self._record_with_series([0.5, 0.2, 0.12, 0.08, 0.09])
        assert empirical_limsup(rec, 2) == 0.09

    def test_domain_errors(self):
        rec = self._record_with_series([0.5, 0.2])
        with pytest.raises(ValueError):
            empirical_limsup(rec, 0)
        with pytest.raises(ValueError):
            empirical_limsup(rec, 3)
