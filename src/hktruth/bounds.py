"""Closed-form precision/noise bounds and verification oracles.

For a group of ``n`` agents with ``m`` truth seekers of common attraction
strength ``alpha``, confidence threshold ``epsilon`` and noise strength
``delta``, the model admits closed-form precision guarantees:

* ``delta1``: how far seekers can sit from the truth once captured,
* ``delta2``: the same for non-seekers,
* ``delta_bar``: the overall precision, max of the two,
* ``delta_lower``: the largest noise strength for which capture is
  guaranteed almost surely; ``admissible`` says whether delta lies in
  (0, delta_lower].

This module also provides the constructive machinery used to verify the
convergence argument: a deterministic steered-noise protocol that drags
every agent toward the truth, and the worst-case number of steered steps
needed from any start.

Everything here is stateless; operations that require a common seeker
attraction strength or at least one seeker refuse configs that lack them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelConfig, _check_int, _check_real, subset_deviations, validate_state

__all__ = [
    "NoiseBounds",
    "compute_bounds",
    "bounds_for_config",
    "band_slack",
    "in_absorbing_band",
    "steered_noise",
    "block_length",
]


@dataclass(frozen=True)
class NoiseBounds:
    """Derived precision bounds for one (n, m, alpha, epsilon, delta)."""

    delta1: float
    delta2: float
    delta_bar: float
    delta_lower: float
    admissible: bool


def compute_bounds(n: int, m: int, alpha: float, epsilon: float, delta: float) -> NoiseBounds:
    """Evaluate the four closed-form bounds and whether delta is admissible.

    delta1 = n(1-alpha)delta/(m alpha) + delta
    delta2 = n delta/(m alpha) + delta
    delta_bar = max(delta1, delta2)
    delta_lower = m alpha epsilon / (2n + (2m-n)alpha)
    admissible = 0 < delta <= delta_lower

    The paper's delta_lower is the min of that term and m epsilon/(n + 2m);
    the first is the smaller iff alpha(n + 2m) <= 2n + (2m-n)alpha, i.e. iff
    alpha <= 1, so only it is computed. ``admissible`` keeps the closed end,
    but in floating point the one-step band lemma needs delta < delta_lower:
    fl(delta1 + delta2) can pass epsilon by an ulp, so one worst-case step can
    leave the band by a full delta, as at n = 22, seekers 0-3, alpha =
    0.06928255667714005, epsilon = 0.15432559066118634, truth = 0.15008025291603644.
    An alpha so small against delta that delta2 overflows raises ValueError.
    """
    _check_int("n", n, 1)
    _check_int("m", m, 1, n)
    alpha = _check_real("alpha", alpha, "(0, 1]")
    epsilon = _check_real("epsilon", epsilon, "(0, 1]")
    delta = _check_real("delta", delta, "[0, inf)")
    delta1 = n * (1.0 - alpha) * delta / (m * alpha) + delta
    delta2 = n * delta / (m * alpha) + delta
    if not math.isfinite(delta2):  # delta1 <= delta2, and delta_lower is at most m / n
        raise ValueError(f"delta2 = {delta2!r} is not finite for alpha = {alpha!r} "
                         f"and delta = {delta!r}")
    delta_lower = m * alpha * epsilon / (2.0 * n + (2.0 * m - n) * alpha)
    admissible = bool(0.0 < delta <= delta_lower)
    return NoiseBounds(delta1, delta2, max(delta1, delta2), delta_lower, admissible)


def bounds_for_config(config: ModelConfig) -> NoiseBounds:
    """Bounds for a full config; requires >= 1 seeker, every seeker with the same alpha.

    Only the seekers' attraction takes effect, so the other agents' alpha
    entries do not enter the bounds.
    """
    alpha = config.seeker_alpha
    # with no seeker, compute_bounds refuses m = 0 before it reads alpha
    if alpha is None and config.m >= 1:
        raise ValueError("bound formulas require a homogeneous alpha (all seekers equal)")
    return compute_bounds(config.n, config.m, alpha, config.epsilon, config.delta)


def band_slack(d_s: np.ndarray, d_sbar: np.ndarray, bounds: NoiseBounds) -> np.ndarray:
    """Room left inside the absorbing band: min(delta1 - d_s, delta2 - d_sbar).

    Negative means the band is violated. A NaN deviation (empty subset)
    constrains nothing, so only the other term counts.
    """
    return np.fmin(bounds.delta1 - d_s, bounds.delta2 - d_sbar)


def in_absorbing_band(x: np.ndarray, config: ModelConfig) -> bool:
    """True iff every seeker is within delta1 and every non-seeker within delta2 of the truth.

    The bounds are the config's own (``bounds_for_config``), so a config
    without a seeker or with seekers whose alphas differ raises. Once a profile
    satisfies this and delta is admissible, no sequence of bounded noise
    vectors can break it (closed comparisons throughout). An empty
    non-seeker set is vacuously within delta2.
    """
    bounds = bounds_for_config(config)
    _, d_s, d_sbar = subset_deviations(validate_state(x, config), config)
    return bool(band_slack(d_s, d_sbar, bounds) >= 0.0)


def steered_noise(means: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Deterministic noise that drags every agent toward the truth.

    ``means`` are the agents' neighborhood means (``neighbor_means``) of
    one profile or of a batch. Each component is +delta/2 where the mean
    does not exceed the truth and -delta/2 otherwise: a fixed
    representative of the admissible bands [delta/2, delta] and
    [-delta, -delta/2]. One noisy step under this choice shrinks the worst
    deviation to at most max(d - delta/2, delta/2), so from any profile
    with deviation above delta each step gains at least delta/2. The step
    kernel takes this function as its noise and passes it the means it
    builds the targets from. It checks no delta: ``RunSpec`` and ``block_length`` do.
    """
    half = config.delta / 2.0
    return np.where(means <= config.truth, half, -half)


def block_length(delta: float) -> int:
    """Steered steps guaranteed to reach deviation <= delta from any start.

    ceil((1 - delta) / (delta / 2)); a delta outside (0, 1) or below ~1.1e-308 raises ValueError.
    """
    delta = _check_real("delta", delta, "(0, 1)")
    try:
        return math.ceil((1.0 - delta) / (delta / 2.0))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"delta = {delta!r} has no finite block length") from None

