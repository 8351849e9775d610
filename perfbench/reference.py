"""Reference computations the benchmark checks the package's outputs against.

They follow the model and the reproducibility contract as the README
states them, not the package's code: a dense closed-test neighbourhood
mean computed a block of rows at a time (so it needs O(rows * n) memory,
never an n x n matrix), the closed-form bounds, and the PCG64 stream
layout of a run (x(0) first, then n uniforms per iid step).
"""

from __future__ import annotations

import math

import numpy as np

STEP_TOL = 1e-12  # largest |reference - program| accepted for one recomputed step
ROWS_PER_BLOCK = 256


def reference_step(x: np.ndarray, epsilon: float, truth: float, eff_alpha: np.ndarray,
                   noise: np.ndarray | None) -> np.ndarray:
    """One synchronous update: neighbourhood mean, truth pull, noise, clamp."""
    n = x.shape[0]
    means = np.empty(n)
    for lo in range(0, n, ROWS_PER_BLOCK):
        rows = x[lo:lo + ROWS_PER_BLOCK]
        close = np.abs(x[None, :] - rows[:, None]) <= epsilon
        members = np.where(close, x[None, :], 0.0)
        mean = members.sum(axis=1) / close.sum(axis=1)
        low = np.where(close, x[None, :], np.inf).min(axis=1)
        high = np.where(close, x[None, :], -np.inf).max(axis=1)
        means[lo:lo + ROWS_PER_BLOCK] = np.clip(mean, low, high)
    target = means + eff_alpha * (truth - means)
    if noise is not None:
        target = target + noise
    return np.clip(target, 0.0, 1.0)


def effective_alpha(n: int, alpha: float, seekers) -> np.ndarray:
    eff = np.zeros(n)
    eff[list(seekers)] = alpha
    return eff


def iid_stream(seed: int, n: int, horizon: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """x(0) and the (horizon, n) noise of an iid run with a uniform-random start."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.random(n)
    noise = delta * (2.0 * rng.random((horizon, n)) - 1.0)
    return x0, noise


def check_steps(states: np.ndarray, noise: np.ndarray | None, steps, epsilon: float,
                truth: float, eff_alpha: np.ndarray) -> list[str]:
    """Recompute states[t] from states[t-1] for each t in ``steps``; return the problems."""
    problems = []
    for t in steps:
        ref = reference_step(states[t - 1], epsilon, truth, eff_alpha,
                             None if noise is None else noise[t - 1])
        got = states[t]
        err = float(np.max(np.abs(ref - got)))
        if not err <= STEP_TOL:
            problems.append(f"step {t}: differs from the reference by {err:.3e}")
        if not (np.all(got >= 0.0) and np.all(got <= 1.0)):
            problems.append(f"step {t}: an opinion left [0, 1]")
    return problems


def bounds(n: int, m: int, alpha: float, epsilon: float, delta: float) -> dict[str, float]:
    """The closed-form delta1, delta2, delta_bar and delta_lower of the README."""
    delta1 = n * (1.0 - alpha) * delta / (m * alpha) + delta
    delta2 = n * delta / (m * alpha) + delta
    delta_lower = min(m * alpha * epsilon / (2.0 * n + (2.0 * m - n) * alpha),
                      m * epsilon / (n + 2.0 * m))
    return {"delta1": delta1, "delta2": delta2, "delta_bar": max(delta1, delta2),
            "delta_lower": delta_lower}


def block_length(delta: float) -> int:
    """Steered steps that suffice from any start: ceil((1 - delta) / (delta / 2))."""
    return int(math.ceil((1.0 - delta) / (delta / 2.0)))
