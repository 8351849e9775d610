"""Noisy bounded-confidence truth-seeking dynamics: simulator and verification suite."""

from .bounds import (
    NoiseBounds,
    block_length,
    bounds_for_config,
    compute_bounds,
    in_absorbing_band,
    steered_noise,
)
from .dynamics import ModelConfig, neighbor_means, step
from .harness import (
    MODE_IID,
    MODE_NOISE_FREE,
    MODE_STEERED,
    EnsembleSummary,
    RunSpec,
    TrajectoryRecord,
    draw_noise,
    iter_ensemble,
    run_trajectory,
    summarize,
)

__version__ = "0.15.0"

__all__ = [
    "__version__",
    "ModelConfig",
    "neighbor_means",
    "step",
    "NoiseBounds",
    "compute_bounds",
    "bounds_for_config",
    "in_absorbing_band",
    "steered_noise",
    "block_length",
    "MODE_NOISE_FREE",
    "MODE_IID",
    "MODE_STEERED",
    "RunSpec",
    "TrajectoryRecord",
    "EnsembleSummary",
    "draw_noise",
    "run_trajectory",
    "iter_ensemble",
    "summarize",
]
