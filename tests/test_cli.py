from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hktruth.dynamics
from hktruth.cli import main
from hktruth.dynamics import ModelConfig
from hktruth.harness import RunSpec, run_trajectory

REF_ARGS = ["--n", "20", "--epsilon", "0.2", "--truth", "0.8", "--alpha", "0.5", "--m", "10"]


def read_manifest(path, drop_duration=True):
    data = json.loads(path.read_text())
    if drop_duration:
        data.pop("duration_seconds")
    return data


# sha256 of metrics.csv from `simulate --mode MODE --seed SEED --horizon 2000`
# at the default (reference) config; any change to the dynamics, the noise
# stream or the CSV format changes them
METRICS_DIGESTS = [
    ("noise-free", 0, "7d57943284739590f7f7ed8881eb47a3060253f0ab17ed766951f15e2fb06c4e"),
    ("noise-free", 1, "c49b179ce9f3fa25354c4ec4855acea6eb5d45fc7967a0c19dcbb75f24be0861"),
    ("noise-free", 2, "9bf5225dba828f868b6cd8b40a08bb3c9bd22e9ffbf14d2baf1686399344e522"),
    ("iid", 0, "63905d653a7e25731f58dfbc1385134bd58c9e5c0a4ff83cec037d3f212bd54a"),
    ("iid", 1, "8bdd4ef8ebe220f2daf7199856ca1cd753b64aec8538f6edfa17122e69312690"),
    ("iid", 2, "a8669a8739764791316e9099c891fb9f22fa8722dab494ef849f231f9a9c6faf"),
    ("steered", 0, "1beb5219276371a88423e65978c220b2f409c868ddfb2ecaab7ae8f28ad08e5d"),
    ("steered", 1, "c9b1c89f1352de7c9d7e3b5a953daf753a11399be5f95407bb4a05821b94150a"),
    ("steered", 2, "6078e4e7756ed010806c3816c58eed41bb0528b7e0e256e07f1e2c928a0612de"),
]


class TestGoldenDigests:
    @pytest.mark.parametrize("mode,seed,digest", METRICS_DIGESTS)
    def test_metrics_csv_digest(self, tmp_path, capsys, mode, seed, digest):
        out = tmp_path / "golden"
        assert main(["simulate", "--mode", mode, "--seed", str(seed),
                     "--horizon", "2000", "--output", str(out)]) == 0
        assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == digest


class TestBoundsCommand:
    def test_reference_json(self, capsys):
        assert main(["bounds", *REF_ARGS, "--delta", "0.02"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta1"] == pytest.approx(0.06, abs=1e-15)
        assert payload["delta2"] == pytest.approx(0.10, abs=1e-15)
        assert payload["delta_bar"] == pytest.approx(0.10, abs=1e-15)
        assert payload["delta_lower"] == 0.025
        assert payload["admissible"] is True

    def test_inadmissible_delta_is_informational(self, capsys):
        assert main(["bounds", *REF_ARGS, "--delta", "0.03"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is False

    def test_zero_seekers_is_a_config_error(self, capsys):
        assert main(["bounds", "--m", "0"]) == 1
        assert "1 <= m" in capsys.readouterr().err

    def test_heterogeneous_alpha_rejected(self, capsys):
        assert main(["bounds", "--n", "3", "--m", "2", "--alpha", "0.5,0.6,0.5"]) == 1
        assert "homogeneous" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_metrics_states_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "simulate", *REF_ARGS, "--delta", "0.02", "--horizon", "50",
            "--tail-window", "10", "--seed", "3", "--full-states",
            "--output", str(out),
        ])
        assert code == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "t,d_V,d_S,d_Sbar"
        assert len(metrics) == 52  # header + horizon + 1 rows
        states = (out / "states.csv").read_text().splitlines()
        assert states[0] == "t," + ",".join(f"x_{i}" for i in range(20))
        assert len(states) == 52
        manifest = read_manifest(out / "manifest.json")
        assert manifest["command"] == "simulate"
        assert manifest["config"]["n"] == 20
        assert manifest["bounds"]["admissible"] is True
        assert sorted(manifest["outputs"]) == ["manifest.json", "metrics.csv", "states.csv"]

    def test_byte_identical_outputs_for_same_seed(self, tmp_path, capsys):
        args = ["simulate", "--horizon", "80", "--tail-window", "8", "--seed", "11",
                "--full-states"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "states.csv").read_bytes() == (b / "states.csv").read_bytes()
        assert read_manifest(a / "manifest.json") == read_manifest(b / "manifest.json")

    def test_steered_csv_contracts_per_step(self, tmp_path, capsys):
        out = tmp_path / "steered"
        assert main([
            "simulate", *REF_ARGS, "--delta", "0.02", "--mode", "steered",
            "--horizon", "98", "--tail-window", "1", "--seed", "5",
            "--output", str(out),
        ]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        d_v = [float(line.split(",")[1]) for line in rows]
        delta = 0.02
        first_hit = next(t for t, d in enumerate(d_v) if d <= delta)
        for t in range(first_hit):
            assert d_v[t] - d_v[t + 1] >= delta / 2 - 1e-12

    def test_explicit_initial_vector(self, tmp_path, capsys):
        out = tmp_path / "init"
        init = ",".join(["0.8"] * 20)
        assert main([
            "simulate", *REF_ARGS, "--delta", "0.02", "--init", init,
            "--horizon", "20", "--tail-window", "2", "--output", str(out),
        ]) == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["run"]["initial"] == [0.8] * 20
        assert manifest["run"]["entry_time"] == 0

    def test_noise_free_failure_seed_shows_stranded_cluster(self, tmp_path, capsys):
        from hktruth.dynamics import ModelConfig
        from hktruth.harness import MODE_NOISE_FREE, RunSpec, run_trajectory

        cfg = ModelConfig(20, 0.2, 0.8, 0.5, range(10), 0.0)
        seed = next(
            s for s in range(20)
            if run_trajectory(RunSpec(config=cfg, horizon=300, seed=s,
                                      mode=MODE_NOISE_FREE, tail_window=1)).d_sbar[-1] > 0.2
        )
        out = tmp_path / "nf"
        assert main([
            "simulate", *REF_ARGS, "--delta", "0", "--mode", "noise-free",
            "--horizon", "300", "--tail-window", "1", "--seed", str(seed),
            "--full-states", "--output", str(out),
        ]) == 0
        final = (out / "states.csv").read_text().splitlines()[-1].split(",")
        non_seekers = [float(v) for v in final[11:21]]  # columns x_10..x_19
        assert any(abs(v - 0.8) > 0.2 for v in non_seekers)

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        code = main(["simulate", "--horizon", "5", "--tail-window", "1",
                     "--output", str(blocker)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_horizon_zero_rejected(self, capsys):
        assert main(["simulate", "--horizon", "0"]) == 1

    def test_non_finite_delta_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--delta", "nan", "--horizon", "5",
                     "--output", str(tmp_path / "nan")]) == 1
        err = capsys.readouterr().err
        assert "hktruth: error:" in err and "delta" in err
        assert not (tmp_path / "nan").exists()


class TestEnsembleCommand:
    def test_summary_and_per_run_files(self, tmp_path, capsys):
        out = tmp_path / "ens"
        code = main([
            "ensemble", *REF_ARGS, "--delta", "0.02", "--runs", "4",
            "--horizon", "60", "--tail-window", "6", "--seed", "2",
            "--per-run", "--output", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 4
        assert summary["seed_base"] == 2
        assert 0.0 <= summary["converged_fraction"] <= 1.0
        assert summary["bounds"]["delta_bar"] == pytest.approx(0.10, abs=1e-15)
        for i in range(4):
            lines = (out / f"run_{i:04d}.csv").read_text().splitlines()
            assert lines[0] == "t,d_V,d_S,d_Sbar"
            assert len(lines) == 62

    def test_singleton_matches_simulate(self, tmp_path, capsys):
        sim_out = tmp_path / "sim"
        ens_out = tmp_path / "ens"
        common = [*REF_ARGS, "--delta", "0.02", "--horizon", "40",
                  "--tail-window", "4", "--seed", "9"]
        assert main(["simulate", *common, "--output", str(sim_out)]) == 0
        assert main(["ensemble", *common, "--runs", "1", "--per-run",
                     "--output", str(ens_out)]) == 0
        assert (sim_out / "metrics.csv").read_bytes() == (ens_out / "run_0000.csv").read_bytes()
        summary = json.loads((ens_out / "summary.json").read_text())
        final_rows = (sim_out / "metrics.csv").read_text().splitlines()[-4:]
        tail = max(float(r.split(",")[1]) for r in final_rows)
        assert summary["tail_sup"]["max"] == pytest.approx(tail, abs=1e-12)

    def test_byte_identical_summaries(self, tmp_path, capsys):
        args = ["ensemble", "--runs", "3", "--horizon", "50", "--tail-window", "5",
                "--seed", "4", "--per-run"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        for i in range(3):
            name = f"run_{i:04d}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_runs_rejected(self, capsys):
        assert main(["ensemble", "--runs", "0"]) == 1

    def test_infinite_delta_rejected(self, tmp_path, capsys):
        assert main(["ensemble", "--delta", "inf", "--runs", "2", "--horizon", "5",
                     "--output", str(tmp_path / "inf")]) == 1
        err = capsys.readouterr().err
        assert "hktruth: error:" in err and "delta" in err
        assert not (tmp_path / "inf").exists()


class TestVerifyCommand:
    def test_default_config_passes(self, capsys):
        code = main(["verify", "--trials", "30", "--steps", "40", "--draws", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out

    def test_inadmissible_delta_skips_absorption(self, capsys):
        code = main(["verify", *REF_ARGS, "--delta", "0.03",
                     "--trials", "20", "--steps", "20", "--draws", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[SKIP] absorbing-band-persistence" in out

    @pytest.mark.parametrize("flag,value", [
        ("--draws", "0"), ("--draws", "-5"), ("--trials", "0"), ("--steps", "0"),
        ("--seed", "-2"),
    ])
    def test_non_positive_counts_rejected(self, capsys, flag, value):
        floor = 0 if flag == "--seed" else 1
        assert main(["verify", flag, value]) == 1
        assert f"hktruth: error: {flag} must be >= {floor}" in capsys.readouterr().err

    def test_library_value_error_is_a_usage_error(self, capsys):
        # ModelConfig raises ValueError inside the library; main maps it to exit 1
        assert main(["verify", "--epsilon", "1.5", "--trials", "10", "--draws", "100"]) == 1
        assert "hktruth: error: confidence threshold epsilon" in capsys.readouterr().err

    def test_clamp_fault_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(hktruth.dynamics, "clamp_vector", lambda values: values)
        code = main(["verify", *REF_ARGS, "--delta", "0.3",
                     "--trials", "20", "--steps", "20", "--draws", "20000"])
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAIL] range-preservation" in out


class TestSweepCommand:
    def test_grid_rows_and_monotone_delta_lower(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--n", "20", "--epsilon", "0.2", "--truth", "0.8",
            "--alpha", "0.5", "--delta", "0.005", "--ms", "1,5,10",
            "--runs", "2", "--horizon", "30", "--tail-window", "3",
            "--output", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("delta,alpha,m,epsilon,delta1")
        assert len(lines) == 4
        lower = [float(line.split(",")[7]) for line in lines[1:]]
        assert lower == sorted(lower) and lower[0] < lower[-1]

    def test_grid_is_cartesian_product_in_order(self, tmp_path, capsys):
        out = tmp_path / "sweep2"
        assert main([
            "sweep", "--deltas", "0.01,0.02", "--ms", "5,10",
            "--runs", "1", "--horizon", "20", "--tail-window", "2",
            "--output", str(out),
        ]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        keys = [(row.split(",")[0], row.split(",")[2]) for row in rows]
        assert keys == [("0.01", "5"), ("0.01", "10"), ("0.02", "5"), ("0.02", "10")]

    def test_zero_runs_rejected(self, capsys):
        assert main(["sweep", "--runs", "0"]) == 1
        assert "hktruth: error:" in capsys.readouterr().err

    def test_empty_grid_rejected(self, capsys):
        assert main(["sweep", "--deltas", ""]) == 1
        assert "empty" in capsys.readouterr().err

    def test_explicit_seekers_are_kept_at_every_grid_point(self, tmp_path, capsys):
        out = tmp_path / "seekers"
        assert main(["sweep", "--n", "4", "--seekers", "2,3", "--deltas", "0.01,0.02",
                     "--runs", "2", "--horizon", "20", "--tail-window", "2",
                     "--output", str(out)]) == 0
        rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        for row, delta in zip(rows, (0.01, 0.02)):
            spec = RunSpec(config=ModelConfig(4, 0.2, 0.8, 0.5, [2, 3], delta), horizon=20,
                           tail_window=2)
            tails = [run_trajectory(dataclasses.replace(spec, seed=s)).tail_sup for s in (0, 1)]
            assert row[2] == "2"
            assert row[-1] == format(float(np.median(tails)), ".12g")
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"]["seekers"] == [2, 3]

    def test_ms_with_explicit_seekers_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "seekers.cfg"
        cfg.write_text("seekers = 2,3\n")
        small = ["--n", "4", "--ms", "1,2", "--runs", "1", "--horizon", "5", "--tail-window", "1"]
        for source in (["--seekers", "2,3"], ["--config", str(cfg)]):
            out = tmp_path / source[0][2:]
            assert main(["sweep", *source, *small, "--output", str(out)]) == 1
            assert "--ms" in capsys.readouterr().err
            assert not out.exists()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(
            "# reference setup\n"
            "n = 20\n"
            "epsilon = 0.2\n"
            "truth = 0.8\n"
            "alpha = 0.5\n"
            "m = 10\n"
            "delta = 0.03  # overridden below\n"
        )
        assert main(["bounds", "--config", str(cfg), "--delta", "0.02"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] == 0.02
        assert payload["admissible"] is True

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 3\n")
        assert main(["bounds", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["bounds", "--config", str(cfg)]) == 1

    def test_m_and_seekers_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "conflict.cfg"
        cfg.write_text("m = 3\nseekers = 0,1\n")
        assert main(["bounds", "--config", str(cfg)]) == 1
        assert main(["bounds", "--m", "3", "--seekers", "0,1"]) == 1

    def test_seekers_list_flag(self, capsys):
        assert main(["bounds", "--n", "4", "--seekers", "1,3", "--delta", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 2

    def test_missing_config_file(self, capsys):
        assert main(["bounds", "--config", "/nonexistent/x.cfg"]) == 1

    @pytest.mark.parametrize("command", ["bounds", "verify"])
    @pytest.mark.parametrize("line,message", [
        ("mode = bogus", "mode must be one of"),
        ("runs = -3", "--runs must be >= 1"),
        ("runs = 0", "--runs must be >= 1"),
        ("seed = -1", "--seed must be >= 0"),
    ])
    def test_bad_value_fails_every_command(self, tmp_path, capsys, command, line, message):
        # a command that does not use a key still rejects a bad value for it
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert f"hktruth: error: {message}" in capsys.readouterr().err


class TestCliMisc:
    def test_module_entry_point(self):
        # the child imports the same hktruth as this process, installed or not
        src = str(Path(hktruth.dynamics.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hktruth", "bounds", "--delta", "0.02"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_lower"] == 0.025

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bounds", "--frobnicate"]) == 1

    def test_mode_alias_iid_maps_to_iid_noise(self, tmp_path, capsys):
        # both spellings are accepted, as a flag and as a config-file value
        for mode in ("iid", "iid-noise"):
            cfg = tmp_path / f"{mode}.cfg"
            cfg.write_text(f"mode = {mode}\n")
            for source in (["--mode", mode], ["--config", str(cfg)]):
                out = tmp_path / f"alias-{mode}-{source[0][2:]}"
                assert main(["simulate", *source, "--horizon", "10",
                             "--tail-window", "1", "--output", str(out)]) == 0
                manifest = read_manifest(out / "manifest.json")
                assert manifest["run"]["mode"] == "iid-noise"
