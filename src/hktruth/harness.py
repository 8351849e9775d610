"""Seeded trajectories and Monte Carlo ensembles of the noisy dynamics.

Reproducibility contract: every run owns one PCG64 stream seeded with the
run's 64-bit seed. When the initial profile is "uniform-random" the first
``n`` draws of that stream become x(0); in iid-noise mode each subsequent
step consumes ``n`` further draws, mapped to [-delta, delta] as
``delta * (2u - 1)``. An ensemble takes a list of non-negative seeds and
yields one record per seed, in the order given; the CLI's ensemble of
``runs`` runs uses seeds ``seed_base + 0..runs-1``. Identical specs
therefore reproduce bit-identical trajectories, and a run's record is the
same alone or in any batch, whatever seeds share it.

Runs are validated once, when they start, and then stepped in lockstep
batches of at most ``_BATCH_RUNS``: one kernel call per step advances the
whole batch, and each run draws its iid noise ``_NOISE_BLOCK`` steps at a
time. A batch holds O(runs * (horizon + _NOISE_BLOCK * n)) floats, so an
ensemble's memory is bounded by the batch cap, not by its run count.
``run_trajectory`` is the batch of one.

Runs never exit early: the trailing-window supremum that stands in for
the infinite-horizon limit is only meaningful if the tail was actually
observed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import dynamics as dyn
from .bounds import NoiseBounds, band_slack, bounds_for_config, steered_noise
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
    "summarize",
]

MODE_NOISE_FREE = "noise-free"
MODE_IID = "iid-noise"
MODE_STEERED = "steered"
MODES = (MODE_NOISE_FREE, MODE_IID, MODE_STEERED)

# An ensemble steps at most this many runs in lockstep, and fewer when the
# batch's largest arrays would pass _BATCH_CELLS floats: a run costs n^2
# opinion pairs in the dense neighbour kernel, and its noise block of
# _NOISE_BLOCK * n draws in the sorted-window kernel, which has no pairs.
_BATCH_RUNS = 64
_BATCH_CELLS = 1 << 18
# iid noise is drawn this many steps at a time from each run's stream
_NOISE_BLOCK = 32


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
        dyn._check_int("horizon", self.horizon, 1)
        dyn._check_int("tail_window", self.tail_window, 1, self.horizon)
        dyn._check_int("seed", self.seed, 0)
        if self.mode == MODE_STEERED and self.config.delta <= 0.0:
            raise ValueError("steered mode requires delta > 0")
        if isinstance(self.initial, str):
            if self.initial != "uniform-random":
                raise ValueError(
                    f'initial must be "uniform-random" or an explicit vector, got {self.initial!r}'
                )
        else:
            vec = dyn.validate_state(self.initial, self.config)
            object.__setattr__(self, "initial", tuple(vec.tolist()))


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
    converged_fraction: float | None
    tail_sup_min: float
    tail_sup_median: float
    tail_sup_max: float
    entry_count: int
    entry_time_min: int | None
    entry_time_median: float | None
    entry_time_max: int | None
    bounds: NoiseBounds | None


def draw_noise(
    rng: np.random.Generator, n: int | tuple[int, ...], delta: float, out: np.ndarray | None = None
) -> np.ndarray:
    """n independent draws uniform on [-delta, delta], as delta*(2u - 1).

    ``n`` may be a shape, and ``out`` an array of that shape to draw into.
    The rows of a ``(k, n)`` draw are the values of k successive draws of n.
    """
    dyn._check_delta(delta)
    u = rng.random(n, out=out)
    return np.multiply(delta, 2.0 * u - 1.0, out=u)


def _initial_state(spec: RunSpec, rng: np.random.Generator) -> np.ndarray:
    # RunSpec has checked an explicit vector; uniform draws lie in [0, 1)
    if spec.initial == "uniform-random":
        return rng.random(spec.config.n)
    return np.asarray(spec.initial, dtype=np.float64)


def _run_batch(spec: RunSpec, seeds: Sequence[int]) -> list[TrajectoryRecord]:
    """Run ``spec`` once per seed, stepping all the runs in lockstep."""
    cfg, horizon, runs = spec.config, spec.horizon, len(seeds)
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    x = np.stack([_initial_state(spec, rng) for rng in rngs])

    try:
        nb: NoiseBounds | None = bounds_for_config(cfg)
    except ValueError:
        nb = None

    # d_v, d_s, d_sbar of every run and step; NaN where the subset is empty
    dev = np.empty((3, runs, horizon + 1))
    dev[:, :, 0] = dyn.subset_deviations(x, cfg)
    states = np.empty((runs, horizon + 1, cfg.n)) if spec.record_states else None
    if states is not None:
        states[:, 0] = x
    iid = spec.mode == MODE_IID
    noise = np.empty((runs, min(_NOISE_BLOCK, horizon), cfg.n)) if iid else None
    # None in noise-free mode: the kernel then adds no noise and skips the clamp
    steer = steered_noise if spec.mode == MODE_STEERED else None

    for t in range(1, horizon + 1, _NOISE_BLOCK):
        k = min(_NOISE_BLOCK, horizon + 1 - t)
        xs = states[:, t : t + k] if states is not None else np.empty((runs, k, cfg.n))
        if iid:
            for rng, rows in zip(rngs, noise):
                draw_noise(rng, (k, cfg.n), cfg.delta, out=rows[:k])
        for j in range(k):
            x = dyn._step(x, cfg, noise[:, j] if iid else steer)
            xs[:, j] = x
        dev[:, :, t : t + k] = dyn.subset_deviations(xs, cfg)

    entries: list[int | None] = [None] * runs
    if nb is not None:
        inside = band_slack(dev[1], dev[2], nb) >= 0.0
        entries = [int(row.argmax()) if row.any() else None for row in inside]
    tail_sups = dev[0, :, horizon + 1 - spec.tail_window :].max(axis=1)
    return [
        TrajectoryRecord(
            spec=replace(spec, seed=seed),
            d_v=dev[0, i],
            d_s=dev[1, i],
            d_sbar=dev[2, i],
            entry_time=entries[i],
            tail_sup=float(tail_sups[i]),
            bounds=nb,
            states=None if states is None else states[i],
        )
        for i, seed in enumerate(seeds)
    ]


def run_trajectory(spec: RunSpec) -> TrajectoryRecord:
    """Run one seeded trajectory to its horizon, recording metrics every step."""
    return _run_batch(spec, [spec.seed])[0]


def iter_ensemble(spec: RunSpec, seeds: Sequence[int]) -> Iterator[TrajectoryRecord]:
    """Yield the record of ``spec`` run with each seed, in the order given."""
    if len(seeds) < 1:
        raise ValueError("an ensemble needs at least one seed")
    for seed in seeds:
        dyn._check_int("seed", seed, 0)
    n = spec.config.n
    cells = n**2 if n <= dyn._DENSE_MAX_N else _NOISE_BLOCK * n
    cap = max(1, min(_BATCH_RUNS, _BATCH_CELLS // cells))
    for first in range(0, len(seeds), cap):
        yield from _run_batch(spec, seeds[first : first + cap])


def summarize(records: Iterable[TrajectoryRecord]) -> EnsembleSummary:
    """Reduce per-run records, at least one, to ensemble statistics.

    The reduction is order-insensitive; entry statistics cover only runs
    whose entry time is defined.
    """
    tail_sups: list[float] = []
    entries: list[int] = []
    nb: NoiseBounds | None = None
    for rec in records:
        tail_sups.append(rec.tail_sup)
        if rec.entry_time is not None:
            entries.append(rec.entry_time)
        nb = rec.bounds
    if not tail_sups:
        raise ValueError("summarize needs at least one record")
    converged = (
        float(np.mean([ts <= nb.delta_bar for ts in tail_sups])) if nb is not None else None
    )
    return EnsembleSummary(
        runs=len(tail_sups),
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
