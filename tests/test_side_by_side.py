"""Smoke test of tools/side_by_side.py: a tree timed against itself."""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hktruth.bounds import in_absorbing_band, steered_noise
from hktruth.dynamics import ModelConfig

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("side_by_side", ROOT / "tools" / "side_by_side.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_on_one_tiny_case(tool, capsys):
    start = time.perf_counter()
    argv = [str(ROOT), str(ROOT), "--blocks", "2", "--cases", "reuse-1x8"]
    assert tool.main(argv) == 0
    assert time.perf_counter() - start < 2.0
    out = json.loads(capsys.readouterr().out)
    assert out["kernels"] == {"base": "_neighbor_means", "head": "_neighbor_means"}
    assert list(out["cases"]) == ["reuse-1x8"]
    case = out["cases"]["reuse-1x8"]
    assert case["shape"] == [1, 8]
    assert case["calls"] == "_neighbor_means"
    for side in ("base", "head"):
        assert 0.0 < case[side]["best_us"] <= case[side]["median_us"]
    # one module per side, each with its own memo
    base, head = (sys.modules[f"side_by_side_{side}_dynamics"] for side in ("base", "head"))
    assert base is not head and base._memo is not head._memo


def test_the_step_cases_time_the_step(tool, capsys):
    cases = ["step-consensus-20", "step-steered-20", "step-50x20"]
    assert tool.main([str(ROOT), str(ROOT), "--blocks", "2", "--cases", ",".join(cases)]) == 0
    out = json.loads(capsys.readouterr().out)["cases"]
    assert list(out) == cases
    assert [out[name]["shape"] for name in cases] == [[20], [20], [50, 20]]
    for case in out.values():
        assert case["calls"] == "_step"
        for side in ("base", "head"):
            assert 0.0 < case[side]["best_us"] <= case[side]["median_us"]


def test_the_step_cases_select_what_they_say(tool):
    cases = tool._cases()
    _, [x], eps, (fields, noise) = cases["step-consensus-20"]
    cfg = ModelConfig(epsilon=eps, **fields)
    # one group inside the band, whose ends stay in [0, 1] under any noise of the config
    assert np.ptp(x) <= eps and in_absorbing_band(x, cfg)
    assert x.min() - cfg.delta >= 0.0 and x.max() + cfg.delta <= 1.0
    assert noise.shape == x.shape and np.all(np.abs(noise) <= cfg.delta)
    _, [x], eps, (fields, steer) = cases["step-steered-20"]
    assert x.ndim == 1 and np.ptp(x) > eps and steer is steered_noise
    _, [x], eps, (fields, noise) = cases["step-50x20"]
    assert x.shape == noise.shape == (50, 20) and np.all(np.abs(noise) <= cfg.delta)
    _, [x], eps, step = cases["consensus-20"]
    assert x.ndim == 1 and np.ptp(x) <= eps and step is None
    _, [x], eps, (fields, noise) = cases["step-window-2000"]
    cfg = ModelConfig(epsilon=eps, **fields)
    # one 1-D row on the window kernel, inside the band and clear of the unit interval's ends
    assert x.shape == noise.shape == (2000,) and in_absorbing_band(x, cfg)
    assert x.min() - cfg.delta >= 0.0 and x.max() + cfg.delta <= 1.0
    assert np.all(np.abs(noise) <= cfg.delta)


def test_a_tree_without_the_step_kernel_is_timed_on_neighbor_means(tool):
    public, kernel = object(), object()
    assert tool._kernel(SimpleNamespace(neighbor_means=public)) is public
    assert tool._kernel(SimpleNamespace(neighbor_means=public, _neighbor_means=kernel)) is kernel


def test_an_unknown_case_is_refused(tool):
    with pytest.raises(SystemExit) as exit_:
        tool.main([str(ROOT), "--cases", "reuse-1x8,nope"])
    assert exit_.value.code == 2
