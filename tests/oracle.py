"""Per-agent reference versions of quantities the package computes on whole vectors.

Tests check these scalar routes on their own and use them as an
independent oracle; the package itself never calls them.
``running_averages`` has no package counterpart: the convergence
argument leans on its monotonicity, which criterion 08 checks, but the
simulator never computes a running average.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def clamp_unit(v: float) -> float:
    """Clamp a scalar into [0, 1]."""
    if v > 1.0:
        return 1.0
    if v < 0.0:
        return 0.0
    return float(v)


def _check_agent(i: int, n: int) -> int:
    if not 0 <= int(i) < n:
        raise ValueError(f"agent index {i!r} out of range [0, {n})")
    return int(i)


def neighbor_set(x: Sequence[float], i: int, epsilon: float) -> set[int]:
    """Agents within ``epsilon`` of agent ``i`` (closed comparison, includes i)."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    x = np.asarray(x, dtype=np.float64)
    i = _check_agent(i, x.shape[0])
    close = np.abs(x - x[i]) <= epsilon
    return set(int(j) for j in np.nonzero(close)[0])


def local_mean(x: Sequence[float], i: int, epsilon: float) -> float:
    """Average opinion over agent i's neighborhood."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    x = np.asarray(x, dtype=np.float64)
    i = _check_agent(i, x.shape[0])
    close = np.abs(x - x[i]) <= epsilon
    members = x[close]
    mean = members.sum() / members.size
    return float(min(max(mean, members.min()), members.max()))


def classical_step(x: Sequence[float], epsilon: float) -> list[float]:
    """One noise-free step without seekers, in plain Python: each agent's neighbourhood mean."""
    out = []
    for xi in x:
        nbrs = [xj for xj in x if abs(xj - xi) <= epsilon]
        out.append(sum(nbrs) / len(nbrs))
    return out


def deviation(x: Sequence[float], subset: Iterable[int], truth: float) -> float:
    """Largest distance to the truth over a nonempty set of agents."""
    x = np.asarray(x, dtype=np.float64)
    idx = sorted(_check_agent(i, x.shape[0]) for i in subset)
    if not idx:
        raise ValueError("deviation requires a nonempty agent subset")
    return float(np.max(np.abs(x[idx] - truth)))


def running_averages(seq: Sequence[float], offset: int = 0) -> np.ndarray:
    """Running means of ``seq[offset:]``: the k-th entry averages its first k values.

    A nondecreasing input yields a nondecreasing output (and dually), the
    property the steered-step argument leans on.
    """
    tail = np.asarray(seq, dtype=np.float64)[offset:]
    return np.cumsum(tail) / np.arange(1, tail.size + 1)
