"""Property suites that check the model's guarantees empirically.

Each suite draws its own deterministic PCG64 stream, runs a configurable
number of trials, and reports a pass/fail/skip status together with the
worst margin it observed (how much slack was left before the property
would have been violated; negative means violated). Suites whose
hypothesis the supplied config does not meet are skipped with a note,
never failed; a seed below 0 or a count below 1 raises ValueError.

Every suite checks code the model runs. The suites and their primitives
back the package's acceptance tests, which run them at the trial counts
and tolerances the project promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from .bounds import (
    NoiseBounds,
    band_slack,
    block_length,
    bounds_for_config,
    compute_bounds,
    in_absorbing_band,
    steered_noise,
)
from .dynamics import ModelConfig
from .harness import draw_noise

__all__ = [
    "SuiteResult",
    "sample_admissible_config",
    "absorption_margin",
    "steered_walk",
    "check_quarter_bands",
    "check_range_preservation",
    "check_bound_consistency",
    "check_absorption",
    "check_steered_contraction",
    "run_all",
]

DECREASE_TOL = 1e-12
QUARTER_TOL = 0.005
# Band membership is checked on computed states; when a precision bound is
# hit exactly (alpha = 1 makes delta1 = delta) the stored opinion fl(A + xi)
# can sit one ulp outside the real-arithmetic band. Anything beyond this
# envelope is a genuine model violation (those scale with delta, not eps).
ROUNDING_SLACK = 1e-14
# absorption start states lie within this fraction of each precision bound
IN_BAND_RADIUS = 0.999
# draws sample_admissible_config makes before it gives up
SAMPLE_TRIES = 200


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    trials: int
    margin: float | None
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _rng(seed: int, lane: int, **counts: int) -> np.random.Generator:
    """Check a suite's seed (an integer >= 0) and counts (integers >= 1); return its stream."""
    dyn._check_int("seed", seed, 0)
    for name, count in counts.items():
        dyn._check_int(name, count, 1)
    return np.random.Generator(np.random.PCG64(seed + lane))


def _judged(name: str, ok: bool, trials: int, margin: float, note: str = "") -> SuiteResult:
    return SuiteResult(name, "pass" if ok else "fail", trials, margin, note)


def sample_admissible_config(
    rng: np.random.Generator,
    n_max: int = 30,
    delta_frac: tuple[float, float] = (0.3, 0.99),
    min_delta: float = 0.0,
) -> ModelConfig:
    """Random homogeneous-alpha config whose delta is strictly admissible.

    ``delta_frac`` scales delta into (0, delta_lower); ``min_delta``
    rejects configs whose admissible range is too small to iterate in
    reasonable time (the steered walk needs about 2/delta steps). The
    agent count is drawn from [2, n_max], so ``n_max`` must be >= 2.
    """
    dyn._check_int("n_max", n_max, 2)
    for _ in range(SAMPLE_TRIES):
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(0.05, 1.0))
        epsilon = float(rng.uniform(0.1, 1.0))
        truth = float(rng.random())
        nb = compute_bounds(n, m, alpha, epsilon, delta=0.0)
        delta = float(nb.delta_lower * rng.uniform(*delta_frac))
        if delta <= min_delta:
            continue
        seekers = [int(i) for i in rng.permutation(n)[:m]]
        return ModelConfig(n, epsilon, truth, alpha, seekers, delta)
    raise RuntimeError("could not sample an admissible config; widen the parameter ranges")


def absorption_margin(
    config: ModelConfig,
    bounds: NoiseBounds,
    steps: int,
    rng: np.random.Generator,
) -> float:
    """Worst in-band slack over ``steps`` adversarially noised steps.

    The start is a random profile inside the band, at most IN_BAND_RADIUS
    of each bound. Noise components mix the exact extremes +delta and
    -delta with ``draw_noise`` draws. Returns min over steps of the
    distance left inside the band; negative means the band was violated.
    ``bounds`` must be the config's own (``bounds_for_config``), and
    ``steps`` an integer >= 1, since zero steps would check nothing.
    """
    dyn._check_int("steps", steps, 1)
    if bounds != bounds_for_config(config):
        raise ValueError(f"{bounds} are not the config's own bounds (bounds_for_config)")
    per_agent = np.where(config.seeker_mask, bounds.delta1, bounds.delta2)
    u = rng.uniform(-IN_BAND_RADIUS, IN_BAND_RADIUS, config.n)
    x = np.clip(config.truth + per_agent * u, 0.0, 1.0)
    if not in_absorbing_band(x, config):
        raise AssertionError("sampled start state must satisfy the band condition")
    delta = config.delta
    kinds = rng.integers(0, 3, size=(steps, config.n))
    uniform = draw_noise(rng, (steps, config.n), delta)
    xi = np.where(kinds == 0, delta, np.where(kinds == 1, -delta, uniform))
    # the noise block is checked once here, so the loop steps a bare vector
    xi = dyn._check_noise(xi, config, (steps, config.n))
    xs = np.empty((steps, config.n))
    for t in range(steps):
        x = dyn._step(x, config, xi[t])
        xs[t] = x
    _, d_s, d_sbar = dyn.subset_deviations(xs, config)
    return float(np.min(band_slack(d_s, d_sbar, bounds)))


def steered_walk(
    config: ModelConfig, x0: np.ndarray
) -> tuple[float, bool, int]:
    """Iterate steered steps from x0 until the worst deviation is <= delta.

    Returns (worst per-step decrease minus delta/2, entered within the
    block length, steps taken). The first value below -1e-12 or a False
    second value refutes the contraction guarantee.
    """
    delta = config.delta
    L = block_length(delta)
    x = dyn.validate_state(x0, config)
    d = float(np.abs(x - config.truth).max())
    worst = math.inf
    for t in range(L):
        if d <= delta:
            return worst, True, t
        x = dyn._step(x, config, steered_noise)
        d_next = float(np.abs(x - config.truth).max())
        worst = min(worst, (d - d_next) - delta / 2.0)
        d = d_next
    return worst, d <= delta, L


def check_quarter_bands(
    draws: int = 100_000, delta: float = 0.02, seed: int = 0
) -> SuiteResult:
    """Each quarter band [delta/2, delta] and [-delta, -delta/2] hits 1/4 +- 0.005.

    The 0.005 tolerance is stated for 10^5 draws; other draw counts scale
    it by sqrt(10^5 / draws) to keep the same confidence level. A delta
    of 0 is skipped; a negative or NaN delta raises ValueError.
    """
    rng = _rng(seed, 0, draws=draws)
    dyn._check_delta(delta)
    if delta == 0.0:
        return SuiteResult(
            "noise-quarter-bands", "skip", 0, None, "delta = 0 has no quarter bands"
        )
    tol = QUARTER_TOL * math.sqrt(100_000 / draws)
    xi = draw_noise(rng, draws, delta)
    upper = float(np.mean((xi >= delta / 2.0) & (xi <= delta)))
    lower = float(np.mean((xi <= -delta / 2.0) & (xi >= -delta)))
    margin = tol - max(abs(upper - 0.25), abs(lower - 0.25))
    return _judged("noise-quarter-bands", margin >= 0.0, draws, margin)


def check_range_preservation(
    config: ModelConfig, trials: int = 500, seed: int = 0
) -> SuiteResult:
    """Both step kinds must keep every opinion inside [0, 1] exactly."""
    rng = _rng(seed, 2, trials=trials)
    worst = math.inf
    for _ in range(trials):
        x = rng.random(config.n)
        noisy = dyn.step(x, config, draw_noise(rng, config.n, config.delta))
        for out in (noisy, dyn.step(x, config)):
            worst = min(worst, float(np.min(out)), float(np.min(1.0 - out)))
    return _judged("range-preservation", worst >= 0.0, trials, worst)


def check_bound_consistency(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """At delta = delta_lower the two precision bounds must fit inside epsilon (1e-12 slack)."""
    rng = _rng(seed, 3, trials=trials)
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, n + 1))
        alpha = float(1.0 - rng.random())  # (0, 1]
        epsilon = float(1.0 - rng.random())  # (0, 1]
        nb0 = compute_bounds(n, m, alpha, epsilon, delta=0.0)
        nb = compute_bounds(n, m, alpha, epsilon, delta=nb0.delta_lower)
        worst = min(worst, epsilon + 1e-12 - (nb.delta1 + nb.delta2))
    return _judged("bound-consistency", worst >= 0.0, trials, worst)


def check_absorption(
    config: ModelConfig, trials: int = 100, steps: int = 200, seed: int = 0
) -> SuiteResult:
    """Once inside the absorbing band, bounded noise must never eject the group."""
    name = "absorbing-band-persistence"
    rng = _rng(seed, 4, trials=trials, steps=steps)
    try:
        nb = bounds_for_config(config)
    except ValueError as exc:
        return SuiteResult(name, "skip", 0, None, str(exc))
    if not nb.admissible:
        return SuiteResult(
            name,
            "skip",
            0,
            None,
            f"delta={config.delta!r} outside the admissible range "
            f"(0, {nb.delta_lower!r}]; hypothesis unmet",
        )
    worst = math.inf
    for _ in range(trials):
        worst = min(worst, absorption_margin(config, nb, steps, rng))
    return _judged(name, worst >= -ROUNDING_SLACK, trials, worst)


def check_steered_contraction(
    config: ModelConfig, trials: int = 100, seed: int = 0
) -> SuiteResult:
    """Steered steps must gain delta/2 per step and finish within the block length."""
    name = "steered-contraction"
    rng = _rng(seed, 5, trials=trials)
    if not 0.0 < config.delta < 1.0:
        return SuiteResult(
            name, "skip", 0, None, f"delta={config.delta!r} outside (0, 1); hypothesis unmet"
        )
    worst = math.inf
    failures = 0
    for _ in range(trials):
        margin, entered, _ = steered_walk(config, rng.random(config.n))
        worst = min(worst, margin + DECREASE_TOL)
        if not entered:
            failures += 1
    note = f"{failures} walks missed the block-length budget" if failures else ""
    return _judged(name, worst >= 0.0 and failures == 0, trials, worst, note)


def run_all(
    config: ModelConfig,
    trials: int = 200,
    steps: int = 200,
    draws: int = 100_000,
    seed: int = 0,
) -> list[SuiteResult]:
    """Run every suite against one config; used by the `verify` command."""
    return [
        check_quarter_bands(draws=draws, delta=config.delta, seed=seed),
        check_range_preservation(config, trials=trials, seed=seed),
        check_bound_consistency(trials=max(trials, 1000), seed=seed),
        check_absorption(config, trials=max(trials // 4, 10), steps=steps, seed=seed),
        check_steered_contraction(config, trials=max(trials // 4, 10), seed=seed),
    ]
