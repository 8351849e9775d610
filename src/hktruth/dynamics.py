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
O(n^2) time and memory per row, unless every row lies within epsilon, as
a converged group does: then each row is one neighbourhood, its mask is
all ones, and a cached ones matrix stands in for it. Above that it finds
each window's start by ``searchsorted`` on the sorted row and sums the
windows with prefix sums, in O(n log n) time and O(n) memory. The window
ends need no second search: fl(s_j - s_i) <= epsilon holds exactly when
s_i lies at or past the start of s_j's window. Both kernels apply the
same exact closed test, so they find the same neighbours and the same
hull; the two sums differ by O(n * 2^-52). Either way a row's means are
the same alone or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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

    The real parameters follow one rule, checked by ``_check_real``: a
    number, never a bool or a string, with epsilon in (0, 1], truth in
    [0, 1] and delta in [0, inf). ``alpha`` is one number for every agent
    (a 0-d array included) or one per agent, each in [0, 1], and in (0, 1]
    for a seeker; it is stored as a tuple of floats. Only the attraction of
    agents in ``seekers`` takes effect. ``seekers`` holds distinct integer
    indices in [0, n), checked like ``n`` by ``_check_int``; it may be
    empty, which yields plain bounded-confidence averaging.
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
        epsilon = _check_real("epsilon", epsilon, "(0, 1]")
        truth = _check_real("truth", truth, "[0, 1]")
        delta = _check_real("delta", delta, "[0, inf)")
        seekers = tuple(seekers)
        for i in seekers:
            _check_int("seeker index", i, 0, n - 1)
        seekers_f = frozenset(int(i) for i in seekers)
        if len(seekers_f) < len(seekers):
            repeated = sorted(i for i in seekers_f if seekers.count(i) > 1)
            raise ValueError(f"seeker indices must be distinct, got {repeated} more than once")
        # one alpha per agent, or one for all: a string or a 0-d array is one
        if isinstance(alpha, Iterable) and not isinstance(alpha, str) and getattr(alpha, "ndim", 1):
            alpha_t = tuple(_check_real(f"alpha[{i}]", a, "(0, 1]" if i in seekers_f else "[0, 1]")
                            for i, a in enumerate(alpha))
            if len(alpha_t) != n:
                raise ValueError(f"alpha must have one entry per agent ({n}), got {len(alpha_t)}")
        else:
            alpha_t = (_check_real("alpha", alpha, "(0, 1]" if seekers_f else "[0, 1]"),) * int(n)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "alpha", alpha_t)
        object.__setattr__(self, "seekers", seekers_f)
        object.__setattr__(self, "delta", delta)

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
    def seeker_index(self) -> np.ndarray:
        """Indices of the seekers, ascending."""
        return np.flatnonzero(self.seeker_mask)

    @cached_property
    def other_index(self) -> np.ndarray:
        """Indices of the agents that are not seekers, ascending."""
        return np.flatnonzero(~self.seeker_mask)

    @cached_property
    def seeker_alpha(self) -> float | None:
        """The attraction strength every seeker shares: None if they differ or there is none."""
        alphas = {self.alpha[i] for i in self.seekers}
        return alphas.pop() if len(alphas) == 1 else None

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
        if self.alpha.count(first) == self.n:
            return first
        return None


def _check_int(name: str, value: object, least: int, most: int | None = None) -> None:
    """Refuse a value that is not an int or NumPy integer (a bool is not) in [least, most]."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and least <= value and (most is None or value <= most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_real(name: str, value: object, interval: str) -> float:
    """Return ``value`` as a float if it is a real number in ``interval``, else raise.

    A real number is an int, a float, a NumPy integer or floating scalar, or
    a 0-d array of one; never a bool, a string, a complex or a Fraction.
    ``interval`` is written as the message prints it, "(0, 1]" or "[0, inf)".
    Both the value and its float must lie in it, so an int or a long double
    beyond the float range is refused, and so is one that rounds to 0 at an
    open end.
    """
    x = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    low, high = (float(end) for end in interval[1:-1].split(", "))
    if isinstance(x, (float, int, np.floating, np.integer)) and not isinstance(x, bool):
        try:
            stored = float(x)
        except OverflowError:  # an int beyond the float range
            stored = np.nan
        if all((low <= v if interval[0] == "[" else low < v)
               and (v <= high if interval[-1] == "]" else v < high) for v in (x, stored)):
            return stored
    raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")


def validate_state(x: np.ndarray | Sequence[float], config: ModelConfig) -> np.ndarray:
    """Return ``x`` as a float64 vector after checking it is a legal profile for ``config``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (config.n,):
        raise ValueError(f"opinion vector must have shape ({config.n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("opinion vector contains non-finite values")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("every opinion must be in [0, 1]")
    return arr


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


def _windows(s: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-test neighbourhood windows of sorted rows.

    ``s`` is ``(R, n)`` with every row sorted. Returns flat indices into
    ``s.ravel()``: the neighbours of entry i are entries [lo[i], hi[i]), the
    j of its row with |fl(s_j - s_i)| <= epsilon, since fl(s_j - s_i) is
    monotone in s_j. The rows are laid end to end as keys, each shifted
    clear of its neighbours' windows, so one ``searchsorted`` finds every
    window start; a single row needs no shift. ``tol`` lies far above the
    rounding of the shifted keys; where a key lies within it of
    keys[i] - epsilon, the closed test itself settles the start of i by
    bisection. The window ends need no search: fl(s_j - s_i) <= epsilon
    holds exactly when lo[j] <= i, so hi[i] counts the j with lo[j] <= i.
    """
    rows, n = s.shape
    low = s[:, 0].min()
    width = s[:, -1].max() - low
    # no |fl(s_j - s_i)| exceeds the width, so this cap keeps every window,
    # and keeps 2*epsilon finite for an epsilon near the float maximum
    epsilon = min(epsilon, width)
    span = width + 2.0 * epsilon + 1.0
    keys = s - low
    if rows > 1:
        keys += span * np.arange(rows)[:, None]
    keys = keys.ravel()
    tol = 2.0**-48 * span * rows
    flat = s.ravel()
    # first neighbour: first j with fl(s_i - s_j) <= epsilon, which is <= i
    lo = np.searchsorted(keys, keys - (epsilon + tol))
    i = np.flatnonzero(keys[lo] <= keys - (epsilon - tol))
    if i.size:
        a, b = lo[i], np.searchsorted(keys, keys[i] - (epsilon - tol), "right")
        while i.size:
            mid = (a + b) >> 1
            ok = flat[i] - flat[mid] <= epsilon
            a, b = np.where(ok, a, mid + 1), np.where(ok, mid, b)
            done = a == b
            lo[i[done]] = a[done]
            i, a, b = i[~done], a[~done], b[~done]
    # every lo[j] lies in j's own row, so the count holds on flat indices
    return lo, np.bincount(lo, minlength=lo.size).cumsum()


def _window_means(x: np.ndarray, epsilon: float) -> np.ndarray:
    """``neighbor_means`` from the sorted windows, in O(n log n) per row."""
    n = x.shape[-1]
    rows = x.size // n
    # flat position of each row's k-th smallest opinion
    where = np.argsort(x, axis=-1).reshape(rows, n)
    if rows > 1:
        where += n * np.arange(rows)[:, None]
    where = where.ravel()
    s = x.ravel()[where].reshape(rows, n)
    lo, hi = _windows(s, epsilon)
    # prefix sums re-centred on each row's middle opinion, with a leading 0
    # per row, so the flat index r*n + k is r*n + k + r in ``prefix``
    centre = s[:, n // 2 : n // 2 + 1]
    prefix = np.zeros((rows, n + 1))
    np.cumsum(s - centre, axis=-1, out=prefix[:, 1:])
    prefix = prefix.ravel()
    if rows > 1:
        row = lo // n
        sums = prefix[hi + row] - prefix[lo + row]
    else:
        sums = prefix[hi] - prefix[lo]
    flat = s.ravel()
    out = np.empty(x.size)
    means = centre + (sums / (hi - lo)).reshape(rows, n)
    out[where] = means.ravel().clip(flat[lo], flat[hi - 1])
    return out.reshape(x.shape)


@lru_cache(maxsize=None)  # one per n <= _DENSE_MAX_N
def _ones(n: int) -> np.ndarray:
    """The mask of a row within epsilon, n x n, as float64: what matmul casts a bool mask to."""
    ones = np.ones((n, n))
    ones.flags.writeable = False
    return ones


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

    Dense rows whose spread fl(max - min) is within epsilon take a
    shortcut, when all rows of ``x`` do. By the same monotonicity no
    |fl(x_j - x_i)| exceeds the spread, so every pair passes the closed
    test: the mask is all ones, each count is n and the hull is the row's
    ends. The sum is then the same matmul against a float ones matrix,
    which is what the bool mask is cast to, so the means keep their bits.
    """
    if not epsilon > 0.0:
        raise ValueError(f"confidence threshold epsilon must be > 0, got {epsilon!r}")
    n = x.shape[-1]
    if n > _DENSE_MAX_N:
        return _window_means(x, epsilon)
    ordered = x.copy()
    ordered.sort()
    # row 0 first: a batch that is not one group mostly fails there, for one scalar compare
    if (x.size and ordered.item(n - 1) - ordered.item(0) <= epsilon and (
            x.size == n or np.maximum.reduce(ordered[..., -1] - ordered[..., 0], None) <= epsilon)):
        means = (_ones(n) @ x[..., None])[..., 0] / n
        # per-agent bounds: broadcast (..., 1) bounds can flip the sign of a zero mean
        return means.clip(ordered[..., :1].repeat(n, -1), ordered[..., -1:].repeat(n, -1))
    diff = x[..., None, :] - x[..., :, None]  # diff[..., i, j] = fl(x_j - x_i)
    far_above = diff > epsilon
    above = np.add.reduce(far_above, axis=-1)
    # fl(x_i - x_j) = -fl(x_j - x_i), so column i counts the agents far below x_i
    below = np.add.reduce(far_above, axis=-2)
    mask = np.abs(diff) <= epsilon
    means = (mask @ x[..., None])[..., 0] / (n - below - above)
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
    # even under rounding, unlike the textbook a*truth + (1-a)*means form;
    # built in one buffer, each operation as commutative as the form above
    targets = np.subtract(config.truth, means)
    targets *= config.effective_alpha
    targets += means
    # full attraction lands on the truth exactly, not within an ulp of it
    if config.full_attraction.size:
        targets[..., config.full_attraction] = config.truth
    if noise is None:
        return targets
    targets += noise(means, config) if callable(noise) else noise
    # not in place: an in-place clip of one element turns -0.0 into +0.0
    return clamp_vector(targets)


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
    whose leading axes (runs, steps) are kept; ``xs`` holds opinions, so
    it is finite. A subset with no agents gives NaN, and d_v is the larger
    of the two subset maxima. Above ``_DENSE_MAX_N`` agents the subsets
    are read through the config's cached indices (``np.take``): a
    boolean-mask gather costs about five times as much there, but it is
    the faster read of many short rows, so it stays below. Both reads give
    the same bits.
    """
    # one block-sized temporary, not two: each one of more than ~128 KB costs page faults
    d = np.subtract(xs, config.truth)
    np.abs(d, out=d)
    if config.n > _DENSE_MAX_N:
        seekers, others = d.take(config.seeker_index, axis=-1), d.take(config.other_index, axis=-1)
    else:
        seekers, others = d[..., config.seeker_mask], d[..., ~config.seeker_mask]
    nan = np.full(d.shape[:-1], np.nan)
    d_s = seekers.max(axis=-1) if config.m >= 1 else nan
    d_sbar = others.max(axis=-1) if config.m < config.n else nan
    return np.fmax(d_s, d_sbar), d_s, d_sbar
