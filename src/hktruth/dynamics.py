"""Synchronous bounded-confidence opinion dynamics with truth seekers.

Opinions live on the unit interval. At every step each agent replaces its
opinion with the average over its epsilon-neighborhood (all agents whose
opinion lies within ``epsilon`` of its own, itself included). Truth
seekers then mix in the truth with their attraction strength, and the
noisy variant adds a bounded term and clamps the result into [0, 1].

A profile is a float64 vector of ``n`` opinions, or a batch ``(..., n)`` of
them stepped row by row, each row bit for bit the same alone or in a
batch. A step is pure, and noise is an explicit input. The public ``step``
checks its profile and noise, and ``neighbor_means`` its epsilon and profile;
their kernels ``_step`` and ``_neighbor_means`` check nothing, for a run loop
that validated once up front and keeps every state in [0, 1]. README
describes how the kernels compute and what they cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
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
# dense rows keep their masks between calls, and an ensemble steps its runs
# together, only while rows * n^2 is at most this many floats (2 MiB)
_BATCH_CELLS = 1 << 18


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
    empty, which yields plain bounded-confidence averaging. Construction derives the
    read-only ``seeker_mask``, ``effective_alpha`` (alpha for a seeker, else 0) and
    ``full_attraction`` (where that is 1), and ``seeker_alpha`` (the seekers' one alpha, or None).
    """

    n: int
    epsilon: float
    truth: float
    alpha: tuple[float, ...]
    seekers: frozenset[int]
    delta: float
    seeker_mask: np.ndarray = field(init=False, repr=False, compare=False)
    effective_alpha: np.ndarray = field(init=False, repr=False, compare=False)
    full_attraction: np.ndarray = field(init=False, repr=False, compare=False)
    seeker_alpha: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, alpha = self.n, self.alpha
        _check_int("n", n, 1)
        epsilon = _check_real("epsilon", self.epsilon, "(0, 1]")
        truth = _check_real("truth", self.truth, "[0, 1]")
        delta = _check_real("delta", self.delta, "[0, inf)")
        seekers = tuple(self.seekers)
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
        mask = np.zeros(n, dtype=bool)
        mask[list(seekers_f)] = True
        eff = np.where(mask, alpha_t, 0.0)
        full = np.flatnonzero(eff == 1.0)
        mask.flags.writeable = eff.flags.writeable = full.flags.writeable = False
        alphas = {alpha_t[i] for i in seekers_f}
        # stored past the frozen dataclass's __setattr__
        vars(self).update(n=int(n), epsilon=epsilon, truth=truth, alpha=alpha_t, seekers=seekers_f,
                          delta=delta, seeker_mask=mask, effective_alpha=eff, full_attraction=full,
                          seeker_alpha=alphas.pop() if len(alphas) == 1 else None)

    @property
    def m(self) -> int:
        """Number of truth seekers."""
        return len(self.seekers)

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
    """Return ``x`` as a C-contiguous float64 vector, checked as a legal profile for ``config``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (config.n,):
        raise ValueError(f"opinion vector must have shape ({config.n},), got {arr.shape}")
    _check_opinions(arr)
    return np.ascontiguousarray(arr)


def _check_opinions(x: np.ndarray) -> None:
    """Refuse a non-empty profile or batch unless every opinion is finite and in [0, 1].

    ``min`` and ``max`` carry a NaN anywhere to one of the two ends tested.
    """
    least, greatest = x.min(), x.max()
    if not (0.0 <= least and greatest <= 1.0):
        if np.isfinite(least) and np.isfinite(greatest):
            raise ValueError("every opinion must be in [0, 1]")
        raise ValueError("opinion vector contains non-finite values")


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
    """Closed-test windows of sorted rows, whose opinions must be finite and in [0, 1].

    ``s`` is ``(R, n)`` with every row sorted. Returns flat indices into
    ``s.ravel()``: the neighbours of entry i are entries [lo[i], hi[i]), the
    j of its row with |fl(s_j - s_i)| <= epsilon. One ``searchsorted`` over
    the rows laid end to end, each shifted clear of the others, finds every
    start, bisection on the closed test settles a start within rounding of
    its edge, and hi[i] counts the j with lo[j] <= i.
    """
    rows, n = s.shape
    # no |fl(s_j - s_i)| exceeds 1, so this cap keeps every window, and the keys finite
    epsilon = min(float(epsilon), 1.0)
    # rows start span apart, a gap of 2 epsilon + 2 past the keys' rounding
    span = 2.0 * (1.0 + epsilon) + 1.0
    keys = (s + span * np.arange(rows)[:, None] if rows > 1 else s).ravel()
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


def _window_means(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, tuple | None]:
    """``_neighbor_means`` from the sorted windows, in O(n log n) per row."""
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
    return out.reshape(x.shape), (flat.item(0), flat.item(n - 1)) if rows == 1 else None


@lru_cache(maxsize=None)  # (n,) and (n, n) per n <= _DENSE_MAX_N
def _ones(*shape: int) -> np.ndarray:
    """Read-only float64 ones: (n,) sums the rows of a 0/1 mask, (n, n) is a group's mask."""
    ones = np.ones(shape)
    ones.flags.writeable = False
    return ones


class _Masks:
    """The dense masks of one epsilon and call shape, row by row, and what proves them current.

    Row r was built from ``x0[r]``. Its agents' 0/1 float mask rows, their
    sums ``count`` and their hull ends ``hull``, flat indices into the sorted
    opinions, lie agent after agent. They hold while 2m < ``room[r]``, for m
    the largest move from ``x0[r]`` (see ``rebuild``).
    """

    def __init__(self, key: tuple, flat: np.ndarray) -> None:
        rows, n = flat.shape
        self.key = key
        self.x0 = np.zeros_like(flat)
        self.room = np.full(rows, np.nan)  # so every row fails the certificate
        # flat index of the largest opinion of each agent's row
        self.last = np.arange(n - 1, rows * n, n).repeat(n)

    def rebuild(self, flat: np.ndarray, stale: np.ndarray | None, epsilon: float) -> None:
        """Build the rows ``stale`` (None: every row) of the opinions ``flat``, ``(rows, n)``.

        Row r's gap g is the least computed | |fl(x_j - x_i)| - epsilon |;
        the pair i = i makes g <= epsilon. If no opinion moves by more than
        m, x_j - x_i moves by at most 2m, and no pair crosses epsilon while 2m
        plus the rounding stays below g. With u = 2^-53 the rounding is that
        of the move fl(|x - x0|), 2u*2m; of the old difference, u(epsilon +
        g); of the gap, u*g; an ulp of epsilon, 2u*epsilon + 2^-1074, for a
        new difference to round to its side; and of the test m < fl(``room``
        / 2), ``room`` = fl(g - slack), u*g + 2^-1074. With 2m < g <= epsilon
        that is below 9.1u*epsilon + 2^-1073, so the slack 2^-49*epsilon +
        2^-1073 = 16u*epsilon + 2^-1073 covers it.
        """
        rows, n = flat.shape
        every = stale is None or stale.size == rows
        xb = flat if every else flat[stale]
        k = len(xb)
        # diff[r*n + i, j] = fl(x_j - x_i) of row r, rows end to end and C order, so the
        # mask in its buffer takes the BLAS matmul: one pass over two C-contiguous
        # repeats, where a broadcast runs an inner loop per row of n
        diff = xb.repeat(n, 0)
        diff -= xb.repeat(n).reshape(diff.shape)
        far = (diff > epsilon).astype(np.float64)
        ones = _ones(n)
        # the counts are sums of 0s and 1s below 2^53, exact in any order, so BLAS takes them
        above = (far @ ones).astype(np.intp)
        np.abs(diff, out=diff)
        np.abs(np.subtract(diff, epsilon, out=far), out=far)
        gap = np.minimum.reduce(far.reshape(k, -1), 1)
        del far  # the rest of the build holds one pairwise array
        # 0s and 1s in diff's buffer: what matmul casts a bool mask to, with no cast per call
        mask = np.less_equal(diff, epsilon, out=diff, casting="unsafe")
        count = mask @ ones
        agents = slice(None) if every else (stale[:, None] * n + np.arange(n)).ravel()
        # an agent's window in the sorted opinions of its row, which start at r*n,
        # is [r*n + below, r*n + n - above), and below = n - above - count
        hull = np.empty((2, k * n), np.intp)
        np.subtract(self.last[agents], above, out=hull[1])
        np.subtract(hull[1] + 1, count.astype(np.intp), out=hull[0])
        room = gap - (2.0**-49 * epsilon + 2.0**-1073)
        if every:
            self.x0, self.mask, self.count, self.hull, self.room = (
                xb.copy(), mask, count, hull, room)
        else:
            self.x0[stale], self.room[stale] = xb, room
            self.mask[agents], self.count[agents], self.hull[:, agents] = mask, count, hull


# the last dense call's masks, one slot per thread
_memo = threading.local()


def _mask_means(x: np.ndarray, ordered: np.ndarray, epsilon: float) -> np.ndarray:
    """``neighbor_means`` from each row's mask: the memo's where it is proved current, else built."""
    n = x.shape[-1]
    rows = x.size // n
    flat = x.reshape(rows, n)
    masks = getattr(_memo, "masks", None)
    if masks is None or masks.key != (epsilon, x.shape):
        masks = _Masks((epsilon, x.shape), flat)
    moved = np.abs(flat - masks.x0)
    # each test is written so that a new slot's NaN room fails it
    if rows == 1:  # one scalar test
        if not np.maximum.reduce(moved, None) < 0.5 * masks.room[0]:
            masks.rebuild(flat, None, epsilon)
        sums = masks.mask @ x.reshape(n)
    else:
        current = np.maximum.reduce(moved, 1) < 0.5 * masks.room
        if not current.all():
            masks.rebuild(flat, np.flatnonzero(~current), epsilon)
        sums = (masks.mask.reshape(rows, n, n) @ flat[..., None]).reshape(-1)
    if rows * n * n <= _BATCH_CELLS:
        _memo.masks = masks
    hull = ordered.take(masks.hull)
    # not in place: an in-place clip of one element turns -0.0 into +0.0
    return (sums / masks.count).clip(hull[0], hull[1]).reshape(x.shape)


def neighbor_means(x: np.ndarray, epsilon: float) -> np.ndarray:
    """Neighborhood average for every agent of a raw opinion vector.

    The neighbours of x_i are the x_j with |fl(x_j - x_i)| <= epsilon, for
    ``epsilon`` a real number in (0, inf] (inf takes in every agent), checked
    by ``_check_real``; no step calls this, only its kernel. Each mean
    is clipped into the min/max hull of its neighbours, so the noise-free
    update stays in [0, 1] without clamping. Leading axes of ``x`` are batch
    axes, and a row's means are bit for bit the same alone or in a batch. A
    list, a view or a float32 profile gets the bits of its C-contiguous
    float64 copy. Every opinion must be finite and in [0, 1], or the call
    raises ``validate_state``'s ``ValueError``; so a batch is refused
    exactly when one of its rows alone is. Up to ``_DENSE_MAX_N`` agents the
    sum is a matmul on a 0/1 float mask, which a row keeps between calls
    while its movement provably leaves it unchanged; above, prefix sums over
    the sorted row. The two sums differ by O(n * 2^-52); the neighbours and
    the hull are the same.
    """
    epsilon = _check_real("epsilon", epsilon, "(0, inf]")
    # a view's matmul leaves the BLAS path, and float32 would be summed in float32
    x = np.ascontiguousarray(x, dtype=np.float64)
    if not x.size:
        return x.copy()
    _check_opinions(x)
    return _neighbor_means(x, epsilon)[0]


def _neighbor_means(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, tuple | None]:
    """Unchecked ``neighbor_means``: ``x`` non-empty C-contiguous float64 in [0, 1], epsilon > 0.

    Also returns a single row's ends (least, greatest), else None. Summed in any order, a
    single dense row errs by at most gamma_(n-1) * n * greatest, under half a spread above
    n^2 * 2^-52 * greatest + 2^-1022; so fl(sum)/n is strictly inside the ends and off zero,
    monotone rounding keeps its mean there, and the row within epsilon skips the hull clip.
    """
    n = x.shape[-1]
    if n > _DENSE_MAX_N:
        return _window_means(x, epsilon)
    ordered = x.copy()
    ordered.sort()
    low, high = ordered.item(0), ordered.item(n - 1)  # row 0's ends
    ends = (low, high) if x.size == n else None
    # no |fl(x_j - x_i)| exceeds the spread fl(max - min), so a row within epsilon is one
    # neighbourhood. Row 0 first: a batch that is not one group mostly fails there
    if high - low <= epsilon and (ends or (
            np.maximum.reduce(ordered[..., -1] - ordered[..., 0], None) <= epsilon)):
        means = _ones(n, n).dot(x) if x.ndim == 1 else (_ones(n, n) @ x[..., None])[..., 0]
        means /= n
        if ends and high - low > n * n * 2.0**-52 * high + 2.0**-1022:
            return means, ends
        # per-agent bounds: broadcast (..., 1) bounds can flip the sign of a zero mean
        return means.clip(ordered[..., :1].repeat(n, -1), ordered[..., -1:].repeat(n, -1)), ends
    return _mask_means(x, ordered, epsilon), ends


def _step(
    x: np.ndarray, config: ModelConfig, noise: np.ndarray | Callable | None = None
) -> np.ndarray:
    """One synchronous step on raw opinions, without validation.

    ``x``, C-contiguous float64 in [0, 1], is one opinion vector or a batch
    ``(..., n)`` of them, stepped row by row. ``noise`` is None for the
    noise-free update (no clamp), or the perturbation to add before clamping
    into [0, 1]: an array of the shape of ``x``, or a function of (neighborhood
    means, config), so that steered noise reuses the means the targets are built from.
    Every |noise| must be <= config.delta, unchecked: ``step`` and ``verify.absorption_margin``
    check caller noise, iid draws are delta*(2u - 1) and steered noise +-delta/2. A single
    row's targets lie in [min(low, truth), max(high, truth)] for its ends, so it skips the
    clamp when that interval, widened by delta as computed, is in [0, 1]: rounding is monotone.
    """
    means, ends = _neighbor_means(x, config.epsilon)
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
    truth, delta = config.truth, config.delta
    if ends and min(ends[0], truth) >= delta and max(ends[1], truth) + delta <= 1.0:
        return targets
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
    of the two subset maxima. Both come from one buffer of |xs - truth|,
    signed + for the seekers and - for the rest, with no gathered copy.
    """
    # one block-sized temporary: each one of more than ~128 KB costs page faults.
    # Written agents outermost it takes a stream of writes per agent, which pays up to n = 64
    across = xs.size >= config.n**2 and config.n <= 64
    d = np.subtract(xs, config.truth, order="F" if across else "K")
    np.copysign(d, np.where(config.seeker_mask, 1.0, -1.0), out=d)
    nan = np.full(d.shape[:-1], np.nan)
    # a zero may come from either subset with either sign; + 0.0 and 0.0 - make it +0.0
    d_s = np.maximum.reduce(d, -1) + 0.0 if config.m >= 1 else nan
    d_sbar = 0.0 - np.minimum.reduce(d, -1) if config.m < config.n else nan
    return np.fmax(d_s, d_sbar), d_s, d_sbar
