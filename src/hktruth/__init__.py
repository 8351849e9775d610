"""Noisy bounded-confidence truth-seeking dynamics: simulator and verification suite."""

from .bounds import (
    NoiseBounds,
    block_length,
    bounds_for_config,
    compute_bounds,
    in_absorbing_band,
    is_admissible,
    running_averages,
    steered_noise,
    success_log_prob_lower_bound,
)
from .dynamics import (
    ModelConfig,
    OpinionState,
    neighbor_means,
    step_noise_free,
    step_noisy,
)
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

__version__ = "0.3.0"

__all__ = [
    "__version__",
    "ModelConfig",
    "OpinionState",
    "neighbor_means",
    "step_noise_free",
    "step_noisy",
    "NoiseBounds",
    "compute_bounds",
    "bounds_for_config",
    "is_admissible",
    "in_absorbing_band",
    "steered_noise",
    "block_length",
    "success_log_prob_lower_bound",
    "running_averages",
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
