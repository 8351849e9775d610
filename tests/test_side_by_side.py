"""Smoke tests of tools/side_by_side.py: a tree timed against itself, and its guards."""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hktruth._csvrows import encode_table
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
    base, head = (sys.modules[f"side_by_side_{side}.dynamics"] for side in ("base", "head"))
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
    cases = {name: args for name, (_, _, args) in tool._cases().items()}
    [x], eps, (fields, noise) = cases["step-consensus-20"]
    cfg = ModelConfig(epsilon=eps, **fields)
    # one group inside the band, whose ends stay in [0, 1] under any noise of the config
    assert np.ptp(x) <= eps and in_absorbing_band(x, cfg)
    assert x.min() - cfg.delta >= 0.0 and x.max() + cfg.delta <= 1.0
    assert noise.shape == x.shape and np.all(np.abs(noise) <= cfg.delta)
    [x], eps, (fields, steer) = cases["step-steered-20"]
    assert x.ndim == 1 and np.ptp(x) > eps and steer is steered_noise
    [x], eps, (fields, noise) = cases["step-50x20"]
    assert x.shape == noise.shape == (50, 20) and np.all(np.abs(noise) <= cfg.delta)
    [x], eps, step = cases["consensus-20"]
    assert x.ndim == 1 and np.ptp(x) <= eps and step is None
    [x], eps, (fields, noise) = cases["step-window-2000"]
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


def test_one_case_of_each_kind(tool, capsys):
    units = {"reuse-1x20": "us", "step-50x20": "us", "table-run-201x4": "ms",
             "rep-cli-artifacts": "steps_per_s"}
    start = time.perf_counter()
    assert tool.main([str(ROOT), str(ROOT), "--blocks", "2", "--cases", ",".join(units)]) == 0
    assert time.perf_counter() - start < 3.0
    out = json.loads(capsys.readouterr().out)["cases"]
    assert list(out) == list(units)
    for name, unit in units.items():
        case = out[name]
        for side in ("base", "head"):
            best, median = case[side][f"best_{unit}"], case[side][f"median_{unit}"]
            assert 0.0 < min(best, median)
            assert (median <= best) if unit == "steps_per_s" else (best <= median)
        ratio = case["base_over_head"]
        assert 0.0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    table = out["table-run-201x4"]
    assert table["shape"] == [201, 3]
    assert table["encode_only"]["encoders"] == {"base": "encode_table", "head": "encode_table"}
    assert all(table["encode_only"][side]["best_ms"] > 0.0 for side in ("base", "head"))
    assert all(peak > 0.0 for peak in table["tracemalloc_peak_mib"].values())
    shares = out["rep-cli-artifacts"]["steps_share_median"]
    assert all(0.0 < share < 1.0 for share in shares.values())


def test_the_percent_reference_writes_the_encoders_bytes(tool):
    # the "%" rows a tree without _csvrows is timed on: nan, a value below 1e-4, 0 and 1 included
    table = np.random.Generator(np.random.PCG64(5)).random((30, 4))
    table[::7, 1], table[3, 2], table[4, 0], table[5, 3] = np.nan, 3e-5, 0.0, 1.0
    assert tool._percent_rows(table) == b"".join(encode_table(table))


def test_a_table_written_with_one_other_glyph_stops_the_tool(tool, tmp_path):
    shutil.copytree(ROOT / "src" / "hktruth", tmp_path / "src" / "hktruth",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rows = tmp_path / "src" / "hktruth" / "_csvrows.py"
    text = rows.read_text()
    assert text.count('ord("0") | ord(".") << 8') == 1  # "0." opens every fast cell
    rows.write_text(text.replace('ord("0") | ord(".") << 8', 'ord("0") | ord(":") << 8'))
    with pytest.raises(SystemExit) as exit_:
        tool.main([str(ROOT), str(tmp_path), "--blocks", "1", "--cases", "table-run-201x4"])
    assert exit_.value.code == "table-run-201x4: the two trees wrote different bytes"


def test_a_rep_that_fails_its_check_stops_the_tool(tool, monkeypatch):
    failed = tool.workloads.Checked(1, 1, ["a planted problem"])
    monkeypatch.setattr(tool.workloads.EnsembleRef, "check", lambda self, k, out, deep: failed)
    with pytest.raises(SystemExit) as exit_:
        tool.main([str(ROOT), str(ROOT), "--blocks", "1", "--cases", "rep-ensemble-ref"])
    assert exit_.value.code == "rep-ensemble-ref: base rep 0: a planted problem"


def test_blocks_below_one_are_refused_before_a_tree_is_loaded(tool, monkeypatch, capsys):
    def no_tree(*args):
        raise AssertionError("a tree was loaded")

    monkeypatch.setattr(tool, "source_tree", no_tree)
    for blocks in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_:
            tool.main([str(ROOT), str(ROOT), "--blocks", blocks, "--cases", "reuse-1x8"])
        assert exit_.value.code == 2
        assert f"--blocks must be at least 1, got {blocks}" in capsys.readouterr().err
