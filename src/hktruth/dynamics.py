"""Synchronous bounded-confidence opinion dynamics with truth seekers.

Opinions live on the unit interval. At every step each agent replaces its
opinion with the average over its epsilon-neighborhood (all agents whose
opinion lies within ``epsilon`` of its own, itself included). Truth
seekers additionally pull toward the truth value with their attraction
strength, so a seeker's update is a convex mix of the neighborhood
average and the truth. The noisy variant perturbs every target by a
bounded term and clamps the result back into [0, 1].

All step functions are pure: they read one state snapshot and return a
new one, so agents within a step can be evaluated in any order (or in
parallel) without changing the result. Randomness never enters here;
noise vectors are explicit inputs supplied by the caller. The public
``step_*`` functions validate their inputs; their kernel ``_step`` does
not, so a run loop that validated once up front calls it on every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ModelConfig",
    "OpinionState",
    "clamp_vector",
    "neighbor_means",
    "step_noise_free",
    "step_noisy",
    "subset_deviations",
    "validate_state",
]


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of one model instance.

    ``alpha`` may be given as a single float (applied to every agent) or
    as one value per agent; it is stored as a tuple. Only the attraction
    of agents in ``seekers`` takes effect, everyone else's is treated as
    zero. ``seekers`` may be empty, which yields plain bounded-confidence
    averaging with no truth pull.
    """

    n: int
    epsilon: float
    truth: float
    alpha: tuple[float, ...]
    seekers: frozenset[int]
    delta: float

    def __init__(
        self,
        n: int,
        epsilon: float,
        truth: float,
        alpha: float | Sequence[float],
        seekers: Iterable[int],
        delta: float,
    ) -> None:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"agent count n must be a positive integer, got {n!r}")
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"confidence threshold epsilon must lie in (0, 1], got {epsilon!r}")
        if not 0.0 <= truth <= 1.0:
            raise ValueError(f"truth value must lie in [0, 1], got {truth!r}")
        if not (np.isfinite(delta) and delta >= 0.0):
            raise ValueError(f"noise strength delta must be finite and >= 0, got {delta!r}")
        if isinstance(alpha, (int, float, np.floating, np.integer)):
            alpha_t = (float(alpha),) * int(n)
        else:
            alpha_t = tuple(float(a) for a in alpha)
        if len(alpha_t) != n:
            raise ValueError(f"alpha must have one entry per agent ({n}), got {len(alpha_t)}")
        if any(not 0.0 <= a <= 1.0 for a in alpha_t):
            raise ValueError("every attraction strength alpha must lie in [0, 1]")
        seekers_f = frozenset(int(i) for i in seekers)
        if any(i < 0 or i >= n for i in seekers_f):
            raise ValueError(f"seeker indices must lie in [0, {n}), got {sorted(seekers_f)}")
        if any(alpha_t[i] <= 0.0 for i in seekers_f):
            raise ValueError("every seeker must have attraction strength alpha > 0")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "truth", float(truth))
        object.__setattr__(self, "alpha", alpha_t)
        object.__setattr__(self, "seekers", seekers_f)
        object.__setattr__(self, "delta", float(delta))

    @property
    def m(self) -> int:
        """Number of truth seekers."""
        return len(self.seekers)

    @cached_property
    def seeker_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[sorted(self.seekers)] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def effective_alpha(self) -> np.ndarray:
        """Per-agent attraction actually applied: alpha[i] for seekers, else 0."""
        eff = np.zeros(self.n)
        for i in self.seekers:
            eff[i] = self.alpha[i]
        eff.flags.writeable = False
        return eff

    def homogeneous_alpha(self) -> float | None:
        """The common attraction strength, or None if entries differ."""
        first = self.alpha[0]
        if all(a == first for a in self.alpha):
            return first
        return None


@dataclass(frozen=True, eq=False)
class OpinionState:
    """Opinion profile at one time step: step index ``t`` and vector ``x``."""

    t: int
    x: np.ndarray

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"step index t must be >= 0, got {self.t!r}")
        arr = np.asarray(self.x, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"opinion vector must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "t", int(self.t))
        object.__setattr__(self, "x", arr)


def validate_state(state: OpinionState, config: ModelConfig) -> None:
    """Check that a state is a legal profile for the given config."""
    if state.x.shape != (config.n,):
        raise ValueError(f"state has {state.x.shape[0]} opinions, config expects {config.n}")
    if not np.all(np.isfinite(state.x)):
        raise ValueError("opinion vector contains non-finite values")
    if np.any(state.x < 0.0) or np.any(state.x > 1.0):
        raise ValueError("every opinion must lie in [0, 1]")


def clamp_vector(values: np.ndarray) -> np.ndarray:
    """Componentwise clamp into [0, 1]."""
    return np.clip(values, 0.0, 1.0)


def neighbor_means(x: np.ndarray, epsilon: float) -> np.ndarray:
    """Neighborhood average for every agent of a raw opinion vector.

    The comparison is the exact closed test |x_j - x_i| <= epsilon. Each
    mean is clipped into the min/max hull of the contributing opinions so
    float summation can never push it outside, which keeps the noise-free
    update in [0, 1] without clamping. Leading axes of ``x`` are batch
    axes: each row along the last axis is a separate group, and its means
    are the same as for that row alone.

    The hull is read off the sorted row. The rounded difference
    fl(x_j - x_i) is monotone in x_j, so the agents more than epsilon below
    x_i are exactly the ``below_i`` smallest and those more than epsilon
    above it the ``above_i`` largest.
    """
    n = x.shape[-1]
    diff = x[..., None, :] - x[..., :, None]  # diff[..., i, j] = fl(x_j - x_i)
    far_above = diff > epsilon
    above = far_above.sum(axis=-1)
    # fl(x_i - x_j) = -fl(x_j - x_i), so column i counts the agents far below x_i
    below = far_above.sum(axis=-2)
    mask = np.abs(diff) <= epsilon
    means = (mask @ x[..., None])[..., 0] / (n - below - above)
    # batch row r starts at r*n in the flattened sorted opinions
    ordered = np.sort(x, axis=-1).reshape(-1)
    start = np.arange(0, ordered.size, n).reshape(x.shape[:-1] + (1,))
    return np.clip(means, ordered[start + below], ordered[start + (n - 1) - above])


def _step(
    x: np.ndarray, config: ModelConfig, noise: np.ndarray | Callable | None = None
) -> np.ndarray:
    """One synchronous step on raw opinions, without validation.

    ``x`` is one opinion vector or a batch ``(..., n)`` of them, stepped
    row by row. ``noise`` is None for the noise-free update (no clamp), or
    the perturbation to add before clamping into [0, 1]: an array of the
    shape of ``x``, or a function of (neighborhood means, config), so that
    steered noise reuses the means the targets are built from.
    """
    means = neighbor_means(x, config.epsilon)
    eff = config.effective_alpha
    # means + a*(truth - means) cannot leave [min(means, truth), max(...)]
    # even under rounding, unlike the textbook a*truth + (1-a)*means form.
    combined = means + eff * (config.truth - means)
    # full attraction lands on the truth exactly, not within an ulp of it
    targets = np.where(eff == 1.0, config.truth, combined)
    if noise is None:
        return targets
    if callable(noise):
        noise = noise(means, config)
    return clamp_vector(targets + noise)


def step_noise_free(state: OpinionState, config: ModelConfig) -> OpinionState:
    """One synchronous step of the noise-free dynamics."""
    validate_state(state, config)
    return OpinionState(state.t + 1, _step(state.x, config))


def step_noisy(state: OpinionState, config: ModelConfig, noise: np.ndarray) -> OpinionState:
    """One synchronous step with an explicit bounded perturbation.

    ``noise`` must satisfy |noise[i]| <= config.delta for every agent;
    the perturbed targets are clamped back into [0, 1].
    """
    validate_state(state, config)
    xi = np.asarray(noise, dtype=np.float64)
    if xi.shape != (config.n,):
        raise ValueError(f"noise vector must have shape ({config.n},), got {xi.shape}")
    if not np.all(np.abs(xi) <= config.delta):
        raise ValueError(
            f"noise exceeds the configured bound: max |xi| = {np.max(np.abs(xi))!r} "
            f"> delta = {config.delta!r}"
        )
    return OpinionState(state.t + 1, _step(state.x, config, xi))


def subset_deviations(
    xs: np.ndarray, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worst distance to the truth over all agents, the seekers and the rest.

    Returns (d_v, d_s, d_sbar), each reduced over the last axis of ``xs``,
    whose leading axes (runs, steps) are kept. A subset with no agents
    gives NaN.
    """
    d = np.abs(xs - config.truth)
    mask = config.seeker_mask
    d_s = d[..., mask].max(axis=-1) if config.m >= 1 else np.full(d.shape[:-1], np.nan)
    d_sbar = d[..., ~mask].max(axis=-1) if config.m < config.n else np.full(d.shape[:-1], np.nan)
    return d.max(axis=-1), d_s, d_sbar
