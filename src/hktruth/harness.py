"""Seeded trajectories and Monte Carlo ensembles of the noisy dynamics.

Reproducibility contract: every run owns one PCG64 stream seeded with the
run's 64-bit seed. When the initial profile is "uniform-random" the first
``n`` draws of that stream become x(0); in iid-noise mode each subsequent
step consumes ``n`` further draws, mapped to [-delta, delta] as
``delta * (2u - 1)``. Ensemble run ``i`` uses seed ``seed_base + i``.
Identical specs therefore reproduce bit-identical trajectories, and a
run's record is the same alone or inside an ensemble. A run is validated
once, when it starts; its loop steps a bare vector through the kernel.

Runs never exit early: the trailing-window supremum that stands in for
the infinite-horizon limit is only meaningful if the tail was actually
observed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import dynamics as dyn
from .bounds import NoiseBounds, bounds_for_config, steer_from_means
from .dynamics import ModelConfig

__all__ = [
    "MODE_NOISE_FREE",
    "MODE_IID",
    "MODE_STEERED",
    "MODES",
    "RunSpec",
    "TrajectoryRecord",
    "EnsembleSummary",
    "draw_noise",
    "run_trajectory",
    "iter_ensemble",
    "run_ensemble",
    "summarize",
    "empirical_limsup",
]

MODE_NOISE_FREE = "noise-free"
MODE_IID = "iid-noise"
MODE_STEERED = "steered"
MODES = (MODE_NOISE_FREE, MODE_IID, MODE_STEERED)


@dataclass(frozen=True)
class RunSpec:
    """Everything one trajectory depends on."""

    config: ModelConfig
    horizon: int
    seed: int = 0
    mode: str = MODE_IID
    initial: str | tuple[float, ...] = "uniform-random"
    tail_window: int = 1
    record_states: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        if not 1 <= self.tail_window <= self.horizon:
            raise ValueError(
                f"tail_window must lie in [1, horizon={self.horizon}], got {self.tail_window!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.mode == MODE_STEERED and self.config.delta <= 0.0:
            raise ValueError("steered mode requires delta > 0")
        if isinstance(self.initial, str):
            if self.initial != "uniform-random":
                raise ValueError(
                    f'initial must be "uniform-random" or an explicit vector, got {self.initial!r}'
                )
        else:
            vec = tuple(float(v) for v in self.initial)
            if len(vec) != self.config.n:
                raise ValueError(
                    f"explicit initial vector needs {self.config.n} entries, got {len(vec)}"
                )
            if any(not 0.0 <= v <= 1.0 for v in vec):
                raise ValueError("initial opinions must lie in [0, 1]")
            object.__setattr__(self, "initial", vec)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-step deviation metrics and convergence landmarks of one run.

    ``d_v``/``d_s``/``d_sbar`` have ``horizon + 1`` entries (step 0
    included); subset metrics are NaN when the subset is empty.
    ``entry_time`` is the first step at which the absorbing-band
    condition held, or None (also None when the config admits no bounds).
    """

    spec: RunSpec
    d_v: np.ndarray
    d_s: np.ndarray
    d_sbar: np.ndarray
    entry_time: int | None
    tail_sup: float
    bounds: NoiseBounds | None
    states: np.ndarray | None = None


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate convergence statistics across seeded runs."""

    runs: int
    seed_base: int
    converged_fraction: float | None
    tail_sup_min: float
    tail_sup_median: float
    tail_sup_max: float
    entry_count: int
    entry_time_min: int | None
    entry_time_median: float | None
    entry_time_max: int | None
    bounds: NoiseBounds | None


def draw_noise(rng: np.random.Generator, n: int, delta: float) -> np.ndarray:
    """n independent draws uniform on [-delta, delta], as delta*(2u - 1)."""
    if delta < 0.0:
        raise ValueError(f"noise strength delta must be >= 0, got {delta!r}")
    return delta * (2.0 * rng.random(n) - 1.0)


def _initial_state(spec: RunSpec, rng: np.random.Generator) -> np.ndarray:
    # RunSpec has checked an explicit vector; uniform draws lie in [0, 1)
    if spec.initial == "uniform-random":
        return rng.random(spec.config.n)
    return np.asarray(spec.initial, dtype=np.float64)


def run_trajectory(spec: RunSpec) -> TrajectoryRecord:
    """Run one seeded trajectory to its horizon, recording metrics every step."""
    cfg = spec.config
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x = _initial_state(spec, rng)

    try:
        nb: NoiseBounds | None = bounds_for_config(cfg)
    except ValueError:
        nb = None

    mask = cfg.seeker_mask
    has_seekers = cfg.m >= 1
    has_others = cfg.m < cfg.n
    horizon = spec.horizon

    d_v = np.empty(horizon + 1)
    d_s = np.empty(horizon + 1)
    d_sbar = np.empty(horizon + 1)
    states = np.empty((horizon + 1, cfg.n)) if spec.record_states else None
    entry: int | None = None
    # None in noise-free mode: the kernel then adds no noise and skips the clamp
    steer = steer_from_means if spec.mode == MODE_STEERED else None

    for t in range(horizon + 1):
        if t > 0:
            noise = draw_noise(rng, cfg.n, cfg.delta) if spec.mode == MODE_IID else steer
            x = dyn._step(x, cfg, noise)
        dev = np.abs(x - cfg.truth)
        d_v[t] = dev.max()
        d_s[t] = dev[mask].max() if has_seekers else np.nan
        d_sbar[t] = dev[~mask].max() if has_others else np.nan
        if states is not None:
            states[t] = x
        if nb is not None and entry is None:
            if d_s[t] <= nb.delta1 and (not has_others or d_sbar[t] <= nb.delta2):
                entry = t

    tail_sup = float(np.max(d_v[horizon + 1 - spec.tail_window :]))
    return TrajectoryRecord(
        spec=spec,
        d_v=d_v,
        d_s=d_s,
        d_sbar=d_sbar,
        entry_time=entry,
        tail_sup=tail_sup,
        bounds=nb,
        states=states,
    )


def iter_ensemble(spec: RunSpec, runs: int, seed_base: int) -> Iterator[TrajectoryRecord]:
    """Yield the records of runs seeded seed_base + 0..runs-1, in index order."""
    if runs < 1:
        raise ValueError(f"an ensemble needs at least one run, got {runs!r}")
    for i in range(runs):
        yield run_trajectory(replace(spec, seed=seed_base + i))


def summarize(
    records: Sequence[TrajectoryRecord] | Iterator[TrajectoryRecord],
    runs: int,
    seed_base: int,
) -> EnsembleSummary:
    """Reduce per-run records to ensemble statistics.

    The reduction is order-insensitive; entry statistics cover only runs
    whose entry time is defined.
    """
    tail_sups: list[float] = []
    entries: list[int] = []
    nb: NoiseBounds | None = None
    seen = 0
    for rec in records:
        seen += 1
        tail_sups.append(rec.tail_sup)
        if rec.entry_time is not None:
            entries.append(rec.entry_time)
        nb = rec.bounds
    if seen != runs:
        raise ValueError(f"expected {runs} records, got {seen}")
    converged = (
        float(np.mean([ts <= nb.delta_bar for ts in tail_sups])) if nb is not None else None
    )
    return EnsembleSummary(
        runs=runs,
        seed_base=seed_base,
        converged_fraction=converged,
        tail_sup_min=float(np.min(tail_sups)),
        tail_sup_median=float(np.median(tail_sups)),
        tail_sup_max=float(np.max(tail_sups)),
        entry_count=len(entries),
        entry_time_min=min(entries) if entries else None,
        entry_time_median=float(np.median(entries)) if entries else None,
        entry_time_max=max(entries) if entries else None,
        bounds=nb,
    )


def run_ensemble(spec: RunSpec, runs: int, seed_base: int) -> EnsembleSummary:
    """Run an ensemble and aggregate it; deterministic given seed_base."""
    return summarize(iter_ensemble(spec, runs, seed_base), runs, seed_base)


def empirical_limsup(record: TrajectoryRecord, window: int) -> float:
    """Max worst-deviation over the final ``window`` recorded steps."""
    length = record.d_v.shape[0]
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    if window > length:
        raise ValueError(f"window {window} exceeds the recorded series length {length}")
    return float(np.max(record.d_v[length - window :]))
