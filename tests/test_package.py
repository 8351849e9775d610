from __future__ import annotations

import hktruth

PUBLIC = {
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
}


def test_public_names_are_pinned():
    assert sorted(hktruth.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(hktruth, name), name
