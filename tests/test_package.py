from __future__ import annotations

import re
from pathlib import Path

import hktruth

PUBLIC = {
    "__version__",
    "ModelConfig",
    "neighbor_means",
    "step",
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


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == hktruth.__version__
