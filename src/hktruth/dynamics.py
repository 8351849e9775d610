"""Synchronous bounded-confidence opinion dynamics with truth seekers.

Opinions live on the unit interval. At every step each agent replaces its
opinion with the average over its epsilon-neighborhood (all agents whose
opinion lies within ``epsilon`` of its own, itself included). Truth
seekers additionally pull toward the truth value with their attraction
strength, so a seeker's update is a convex mix of the neighborhood
average and the truth. The noisy variant perturbs every target by a
bounded term and clamps the result back into [0, 1].

An opinion profile is a plain float64 vector of ``n`` opinions. The step
is pure: it reads one profile and returns a new one, so agents within a
step can be evaluated in any order without changing the result.
Randomness never enters here; noise vectors are explicit inputs supplied
by the caller. The public ``step`` checks its profile with
``validate_state`` and its noise against ``delta``; its kernel ``_step``
checks nothing, so a run loop that validated once up front calls it on
every step.

The neighbourhood of an agent is a contiguous window of the sorted
profile, and ``neighbor_means`` picks its kernel by ``n``. Up to
``_DENSE_MAX_N`` agents it sums each window with a dense pairwise mask,
O(n^2) time and memory per row. Above that it finds the windows by
``searchsorted`` on the sorted row and sums them with prefix sums, in
O(n log n) time and O(n) memory. Both apply the same exact closed test,
so they find the same neighbours and the same hull; the two sums differ
by O(n * 2^-52). Either way a row's means are the same alone or in a
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ModelConfig",
    "clamp_vector",
    "neighbor_means",
    "step",
    "subset_deviations",
    "validate_state",
]

# rows of more agents than this use the sorted-window kernel
_DENSE_MAX_N = 128


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of one model instance.

    ``alpha`` may be given as a single float (applied to every agent) or
    as one value per agent; it is stored as a tuple. Only the attraction
    of agents in ``seekers`` takes effect, everyone else's is treated as
    zero. ``seekers`` holds distinct integer indices in [0, n), checked
    like ``n`` by ``_check_int``; it may be empty, which yields plain
    bounded-confidence averaging with no truth pull.
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
        _check_int("n", n, 1)
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"confidence threshold epsilon must lie in (0, 1], got {epsilon!r}")
        if not 0.0 <= truth <= 1.0:
            raise ValueError(f"truth value must lie in [0, 1], got {truth!r}")
        _check_delta(delta)
        if isinstance(alpha, (int, float, np.floating, np.integer)):
            alpha_t = (float(alpha),) * int(n)
        else:
            alpha_t = tuple(float(a) for a in alpha)
        if len(alpha_t) != n:
            raise ValueError(f"alpha must have one entry per agent ({n}), got {len(alpha_t)}")
        if any(not 0.0 <= a <= 1.0 for a in alpha_t):
            raise ValueError("every attraction strength alpha must lie in [0, 1]")
        seekers = tuple(seekers)
        for i in seekers:
            _check_int("seeker index", i, 0, n - 1)
        seekers_f = frozenset(int(i) for i in seekers)
        if len(seekers_f) < len(seekers):
            repeated = sorted(i for i in seekers_f if seekers.count(i) > 1)
            raise ValueError(f"seeker indices must be distinct, got {repeated} more than once")
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

    @cached_property
    def full_attraction(self) -> np.ndarray:
        """Indices of the agents with effective alpha 1, whose target is the truth itself."""
        return np.flatnonzero(self.effective_alpha == 1.0)

    def homogeneous_alpha(self) -> float | None:
        """The common attraction strength, or None if entries differ."""
        first = self.alpha[0]
        if all(a == first for a in self.alpha):
            return first
        return None


def _check_int(name: str, value: object, least: int, most: int | None = None) -> None:
    """Refuse a value that is not an int or NumPy integer (a bool is not) in [least, most]."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and least <= value and (most is None or value <= most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def validate_state(x: np.ndarray | Sequence[float], config: ModelConfig) -> np.ndarray:
    """Return ``x`` as a float64 vector after checking it is a legal profile for ``config``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (config.n,):
        raise ValueError(f"opinion vector must have shape ({config.n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("opinion vector contains non-finite values")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("every opinion must lie in [0, 1]")
    return arr


def _check_delta(delta: float) -> None:
    """Reject a noise strength ``delta`` that is not finite and >= 0 (NaN included)."""
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"noise strength delta must be finite and >= 0, got {delta!r}")


def _check_noise(
    noise: np.ndarray | Sequence[float], config: ModelConfig, shape: tuple[int, ...]
) -> np.ndarray:
    """Return ``noise`` as float64 after checking its shape and |noise| <= delta everywhere."""
    xi = np.asarray(noise, dtype=np.float64)
    if xi.shape != shape:
        raise ValueError(f"noise must have shape {shape}, got {xi.shape}")
    if not np.all(np.abs(xi) <= config.delta):
        raise ValueError(
            f"noise exceeds the configured bound: max |xi| = {np.max(np.abs(xi))!r} "
            f"> delta = {config.delta!r}"
        )
    return xi


def clamp_vector(values: np.ndarray) -> np.ndarray:
    """Componentwise clamp into [0, 1]; ``ndarray.clip`` keeps -0.0, ``np.maximum`` would not."""
    return values.clip(0.0, 1.0)


def _edge(keys: np.ndarray, offset: float, tol: float, pred: Callable) -> np.ndarray:
    """Per entry i of the sorted ``keys``, the first j at which ``pred(i, j)`` holds.

    ``pred`` must be false then true along j, and the keys must decide it
    everywhere but within ``tol`` of keys[i] + offset: false below, true
    above. Entries with a key in that bracket are settled by bisecting on
    ``pred`` itself; the others cost one ``searchsorted``.
    """
    first = np.searchsorted(keys, keys + (offset - tol))
    i = np.flatnonzero(np.append(keys, np.inf)[first] <= keys + (offset + tol))
    a, b = first[i], np.searchsorted(keys, keys[i] + (offset + tol), "right")
    while i.size:
        mid = (a + b) >> 1
        ok = pred(i, mid)
        a, b = np.where(ok, a, mid + 1), np.where(ok, mid, b)
        done = a == b
        first[i[done]] = a[done]
        i, a, b = i[~done], a[~done], b[~done]
    return first


def _windows(s: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-test neighbourhood windows of sorted rows.

    ``s`` is ``(R, n)`` with every row sorted. Returns flat indices into
    ``s.ravel()``: the neighbours of entry i are entries [lo[i], hi[i]), the
    j of its row with |fl(s_j - s_i)| <= epsilon, since fl(s_j - s_i) is
    monotone in s_j. The rows are laid end to end as keys, each shifted
    clear of its neighbours' windows, so one ``searchsorted`` serves every
    row. ``tol`` lies far above the rounding of the shifted keys; within it
    of s_i -/+ epsilon the closed test itself decides.
    """
    rows, n = s.shape
    low, width = s[:, 0].min(), s[:, -1].max() - s[:, 0].min()
    # no |fl(s_j - s_i)| exceeds the width, so this cap keeps every window,
    # and keeps 2*epsilon finite for an epsilon near the float maximum
    epsilon = min(epsilon, width)
    span = width + 2.0 * epsilon + 1.0
    keys = ((s - low) + span * np.arange(rows)[:, None]).ravel()
    tol = 2.0**-48 * span * rows
    flat = s.ravel()
    # first neighbour: first j with fl(s_i - s_j) <= epsilon
    lo = _edge(keys, -epsilon, tol, lambda i, j: flat[i] - flat[j] <= epsilon)
    # first agent past the window: first j with fl(s_j - s_i) > epsilon
    hi = _edge(keys, epsilon, tol, lambda i, j: flat[j] - flat[i] > epsilon)
    return lo, hi


def _window_means(x: np.ndarray, epsilon: float) -> np.ndarray:
    """``neighbor_means`` from the sorted windows, in O(n log n) per row."""
    n = x.shape[-1]
    rows = x.size // n
    # flat position of each row's k-th smallest opinion
    where = (np.argsort(x, axis=-1).reshape(rows, n) + n * np.arange(rows)[:, None]).ravel()
    s = x.ravel()[where].reshape(rows, n)
    lo, hi = _windows(s, epsilon)
    # prefix sums re-centred on each row's middle opinion, with a leading 0
    # per row, so the flat index r*n + k is r*n + k + r in ``prefix``
    centre = s[:, n // 2 : n // 2 + 1]
    prefix = np.zeros((rows, n + 1))
    np.cumsum(s - centre, axis=-1, out=prefix[:, 1:])
    prefix = prefix.ravel()
    row = np.repeat(np.arange(rows), n)
    sums = prefix[hi + row] - prefix[lo + row]
    flat = s.ravel()
    out = np.empty(x.size)
    out[where] = (centre.repeat(n) + sums / (hi - lo)).clip(flat[lo], flat[hi - 1])
    return out.reshape(x.shape)


def neighbor_means(x: np.ndarray, epsilon: float) -> np.ndarray:
    """Neighborhood average for every agent of a raw opinion vector.

    The comparison is the exact closed test |x_j - x_i| <= epsilon. Each
    mean is clipped into the min/max hull of the contributing opinions so
    float summation can never push it outside, which keeps the noise-free
    update in [0, 1] without clamping. Leading axes of ``x`` are batch
    axes: each row along the last axis is a separate group, and its means
    are the same, bit for bit, as for that row alone.

    The rounded difference fl(x_j - x_i) is monotone in x_j, so the agents
    more than epsilon below x_i are exactly the ``below_i`` smallest and
    those more than epsilon above it the ``above_i`` largest: the
    neighbourhood is a window of the sorted row, and the hull its ends.
    Up to ``_DENSE_MAX_N`` agents the sum over it is a dense masked
    product; above, it comes from prefix sums over the sorted row
    (``_window_means``), which needs no pairwise arrays. The two sums
    differ by O(n * 2^-52); the windows are the same. ``epsilon`` must be
    > 0; inf makes every agent a neighbour of every other.
    """
    if not epsilon > 0.0:
        raise ValueError(f"confidence threshold epsilon must be > 0, got {epsilon!r}")
    n = x.shape[-1]
    if n > _DENSE_MAX_N:
        return _window_means(x, epsilon)
    diff = x[..., None, :] - x[..., :, None]  # diff[..., i, j] = fl(x_j - x_i)
    far_above = diff > epsilon
    above = np.add.reduce(far_above, axis=-1)
    # fl(x_i - x_j) = -fl(x_j - x_i), so column i counts the agents far below x_i
    below = np.add.reduce(far_above, axis=-2)
    mask = np.abs(diff) <= epsilon
    means = (mask @ x[..., None])[..., 0] / (n - below - above)
    ordered = x.copy()
    ordered.sort()
    ordered = ordered.reshape(-1)
    if x.size > n:  # batch row r starts at r*n in the flattened sorted opinions
        start = np.arange(0, x.size, n).reshape(x.shape[:-1] + (1,))
        below, above = below + start, above - start
    # not in place: an in-place clip of one element turns -0.0 into +0.0
    return means.clip(ordered[below], ordered[(n - 1) - above])


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
    # means + a*(truth - means) cannot leave [min(means, truth), max(...)]
    # even under rounding, unlike the textbook a*truth + (1-a)*means form.
    targets = means + config.effective_alpha * (config.truth - means)
    # full attraction lands on the truth exactly, not within an ulp of it
    if config.full_attraction.size:
        targets[..., config.full_attraction] = config.truth
    if noise is None:
        return targets
    if callable(noise):
        noise = noise(means, config)
    return clamp_vector(targets + noise)


def step(
    x: np.ndarray | Sequence[float],
    config: ModelConfig,
    noise: np.ndarray | Sequence[float] | None = None,
) -> np.ndarray:
    """One synchronous step of a checked opinion vector.

    Without ``noise`` this is the noise-free update. Otherwise ``noise``
    must satisfy |noise[i]| <= config.delta for every agent, and the
    perturbed targets are clamped back into [0, 1].
    """
    x = validate_state(x, config)
    if noise is not None:
        noise = _check_noise(noise, config, x.shape)
    return _step(x, config, noise)


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
