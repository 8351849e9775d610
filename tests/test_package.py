from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import hktruth
from hktruth import bounds, cli, harness, verify
from hktruth.dynamics import ModelConfig

PUBLIC = {
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
}


def test_public_names_are_pinned():
    assert sorted(hktruth.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(hktruth, name), name


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == hktruth.__version__


@pytest.mark.parametrize("module", ["dynamics", "bounds", "harness", "verify"])
def test_module_exports_resolve(module):
    mod = getattr(hktruth, module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"hktruth.{module}.{name}"


def parameters(func) -> list[str]:
    return list(inspect.signature(func).parameters)


def test_benchmark_calls_keep_their_parameter_names():
    # perfbench calls these by position or keyword; its own tests run outside Tier-1
    assert parameters(verify.absorption_margin) == ["config", "bounds", "steps", "rng"]
    assert parameters(verify.steered_walk) == ["config", "x0"]
    assert parameters(verify.sample_admissible_config)[:2] == ["rng", "n_max"]
    assert parameters(harness.run_trajectory) == ["spec"]
    assert parameters(bounds.bounds_for_config) == ["config"]
    assert parameters(cli.main) == ["argv"]
    assert {"n", "epsilon", "truth", "alpha", "seekers", "delta"} <= set(parameters(ModelConfig))
    assert {"config", "horizon", "seed", "mode", "tail_window", "record_states"} <= set(
        parameters(harness.RunSpec))


def test_benchmark_reads_keep_their_fields():
    record = {f.name for f in dataclasses.fields(harness.TrajectoryRecord)}
    assert {"d_v", "d_s", "d_sbar", "entry_time", "tail_sup", "states"} <= record
    nb = {f.name for f in dataclasses.fields(bounds.NoiseBounds)}
    assert {"delta1", "delta2", "delta_bar", "delta_lower", "admissible"} <= nb
