from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hktruth.cli
import hktruth.dynamics
from hktruth.cli import SETTINGS, _fmt, _Output, build_parser, main
from hktruth.dynamics import ModelConfig
from hktruth.harness import RunSpec, run_trajectory

MODEL_KEYS = ("n", "epsilon", "truth", "alpha", "delta", "m", "seekers")
RUN_KEYS = (*MODEL_KEYS, "mode", "horizon", "tail_window", "seed", "init", "output")
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


# the config file that ARTIFACT_DIGESTS' "--config model.cfg" command reads
GOLDEN_CONFIG = "n = 4\nseekers = 0,2\nalpha = 0.4\ninit = 0.2,0.4,0.6,0.8\nmode = iid\n"

# sha256 of every file a command writes to the default output directory
# "out", and of its stdout, keyed by file name and "stdout"; a manifest is
# hashed without its duration_seconds and version lines, and its version is
# checked on its own. They pin each artifact's bytes, the parsing of every
# list value and the text of every report.
ARTIFACT_DIGESTS = [
    (["simulate", "--seed", "3", "--horizon", "200", "--full-states"], {
        "manifest.json": "5ae986c704927785bc2d9cfe436b0d03e90de6496d266ca15e12a669de579392",
        "metrics.csv": "ceaf3e6dd248690e8203d52f48970752d3ddae4e89bcb27129027c55cf7f3436",
        "states.csv": "9ce04b1c64e3bc8d9d7c2a9f3ff7c3706bcfd66ca4e77f5a4e14aa6e76e20535",
        "stdout": "d37aff333dace1a75626a26b62f84977c7510762b6a7824c748030d159d800f7",
    }),
    (["simulate", "--mode", "noise-free", "--delta", "0", "--n", "5", "--m", "2",
      "--alpha", "0.5,0.6,0.5,0.4,0.3", "--init", "0.1,0.3,0.5,0.7,0.9", "--horizon", "40"], {
        "manifest.json": "dc6e81b0bac109a75992a36b22a7672573ca1d4e0a80f1881794a70ae1bc1a79",
        "metrics.csv": "704c9a99b9db507ef79bbed55623b79acb91280b0e2a190dd4cea845b66c3922",
        "stdout": "415e5181d73e4a2a6be0b8ff2598def5db2ff7204bcc247c533760c6798b2f10",
    }),
    (["simulate", "--config", "model.cfg", "--horizon", "30"], {
        "manifest.json": "b2468c808f5c9f9ec434077d2f6660589e71baafd907decb21fbcc1c2cd805ff",
        "metrics.csv": "d02ccccf6613863719284f6001c7bdaaab454ddfda88fc6d0ee9fee6fb8289c4",
        "stdout": "125e4d1ef7f77378271be630148a08e368c1c976cab181c49d058bb76e2642b8",
    }),
    (["ensemble", "--runs", "3", "--horizon", "300", "--seed", "2", "--per-run"], {
        "manifest.json": "ef1627b36af784fe6865e741d0ed8805718e30799912d29c6a1682e50cc41116",
        "run_0000.csv": "0d364c9aa67b6c3d600c6e6bc444f18ccbf2685805ddd2b3b3bb2ba052958f75",
        "run_0001.csv": "730fa8d73eac3aab8d67eb8c9f7ce3d017ecbc81f3d56390e36f7043b091e517",
        "run_0002.csv": "1c3e82050200172a62e38b7b1d68c651d29871ca2452778451af156abb1a57d6",
        "summary.json": "c8bae3559fb6e88421517f8687f73665b02a964770f9ad255d6b349b593ee3e2",
        "stdout": "2a97e81ff419fb6c12d169800d3dc9801334fbed104f21b95505e38a8a169bd0",
    }),
    (["sweep", "--deltas", "0.01,0.02", "--ms", "5,10", "--epsilons", "0.2,0.3",
      "--runs", "2", "--horizon", "100"], {
        "manifest.json": "573d706d215794a3db30bcde3efc16fed5080a18b385b6bfd6161048db1ab9b4",
        "sweep.csv": "90e94944b7fcc7590d2d6d839cf08b212f17d9252d02bd9dc4e7b9d93cbd1245",
        "stdout": "46b6cbca490edc7a1ad0ade0a930d6e137d628df94eecc0e33a5673c3020f54f",
    }),
    (["sweep", "--n", "4", "--seekers", "2,3", "--alphas", "0.3,0.6", "--runs", "2",
      "--horizon", "100"], {
        "manifest.json": "f848b3eaa57e9186a7b216c4a962a0071271d7a7c64ced0648abc304b0767ce8",
        "sweep.csv": "97733f1ea1136f83c304e30499b06fc5d1173424a06f4923203426daf67d1f54",
        "stdout": "f8cc7beb1515342b323fbe33d2bce6f5439f30191a5f0a8a609c6fa427fa1860",
    }),
    # n = 300 runs the sorted-window kernel (n > _DENSE_MAX_N) and its metrics
    (["simulate", "--n", "300", "--m", "150", "--seed", "5", "--horizon", "60",
      "--full-states"], {
        "manifest.json": "416468db0486995e901fdc865e76509a061e861861519da4658f85d6c6f4302a",
        "metrics.csv": "03c9442bef42f06d28ef9db1ecc365aac73448912f0e6b183ac758fef4b37890",
        "states.csv": "9e0909f7a2610e405c28cc2b6d0272a186746b2cd0958281874725623b032442",
        "stdout": "3bfcd853b4a41ad9be224ea6f5644f0f8ee057a7b3c0835fbb5466222ce57b09",
    }),
    (["ensemble", "--n", "300", "--seekers", "3,17,42,100,101,250,299", "--runs", "3",
      "--seed", "7", "--horizon", "80", "--per-run"], {
        "manifest.json": "7741e48dccc556980b5b67e8f1f1f6db663212aabbc0e3bf3c368d3aeb5b26c1",
        "run_0000.csv": "847a690a43afd08144fb533c5c644a3b7b524b6e065bb47cbe01bb0ef12fd282",
        "run_0001.csv": "0fa33501f6cda2b4f61304193522e809e411a3b12b37e486747163a7c644d200",
        "run_0002.csv": "d51d8275f1cbb737aec5a85f48a18013ebc390548c3e692c7e37e5eeb99d4aaa",
        "summary.json": "8a02dc5a34897e49488eb855ed35d0cb323760f5a385170c84ed6d4794569a25",
        "stdout": "377b6e2855a150db5d8b067772de17e3ac40cb711e155b09765f7d715136e45d",
    }),
    (["bounds", "--delta", "0.02"], {
        "stdout": "3193de7666955f099269006957dbaee6051ea75cb084b2a98515a5636a086aeb",
    }),
    (["bounds", "--n", "4", "--seekers", "1,3", "--delta", "0.01"], {
        "stdout": "f16f957d1f3c7f711443b87eae1d0bab9aa14c7f4c62dea939257b10db9d82d0",
    }),
    (["verify", "--trials", "20", "--steps", "20", "--draws", "2000"], {
        "stdout": "d97f559bd3055066871910fd67ffbed51eef0bd4c1e827242f2b6ff576c9c6d4",
    }),
    (["verify", "--delta", "0.03", "--trials", "20", "--steps", "20", "--draws", "2000"], {
        "stdout": "e80480e4c858d97ec28f77c60705d10f649b9f58a1a991e4054f7eb1865b75db",
    }),
]


def artifact_digest(name, data):
    if name == "manifest.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if b'"duration_seconds"' not in line and b'"version"' not in line)
    return hashlib.sha256(data).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("mode,seed,digest", METRICS_DIGESTS)
    def test_metrics_csv_digest(self, tmp_path, capsys, mode, seed, digest):
        out = tmp_path / "golden"
        assert main(["simulate", "--mode", mode, "--seed", str(seed),
                     "--horizon", "2000", "--output", str(out)]) == 0
        assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digests", ARTIFACT_DIGESTS,
                             ids=[" ".join(argv[:3]) for argv, _ in ARTIFACT_DIGESTS])
    def test_artifact_digests(self, tmp_path, capsys, monkeypatch, argv, digests):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.cfg").write_text(GOLDEN_CONFIG)
        assert main(argv) == 0
        out = tmp_path / "out"
        files = sorted(out.iterdir()) if out.exists() else []
        actual = {path.name: artifact_digest(path.name, path.read_bytes()) for path in files}
        actual["stdout"] = artifact_digest("stdout", capsys.readouterr().out.encode())
        assert actual == digests
        if out.exists():
            assert read_manifest(out / "manifest.json")["version"] == hktruth.__version__

    def test_large_n_bytes_do_not_depend_on_the_blas_kernel(self):
        # the sorted-window kernel and the metrics call no BLAS, so their bytes
        # hold under another CPU's OpenBLAS kernel; the dense kernel's matmul
        # does not, and the n <= 20 digests differ under Sandybridge
        tests = ["tests/test_dynamics.py::TestNeighborMeans::test_window_kernel_bits_are_pinned",
                 *(f"tests/test_cli.py::TestGoldenDigests::test_artifact_digests[{' '.join(argv[:3])}]"
                   for argv, _ in ARTIFACT_DIGESTS if argv[1:3] == ["--n", "300"])]
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *tests],
                              cwd=Path(__file__).parents[1], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"})
        assert f"{len(tests)} passed" in proc.stdout, proc.stdout + proc.stderr

    def test_one_neighbourhood_shortcut_keeps_the_mask_bits_under_another_blas_kernel(self):
        # a group within epsilon sums against a float ones matrix in place of
        # the cast bool mask; both must give the same matmul bits under
        # another CPU's OpenBLAS kernel too
        tests = [f"tests/test_dynamics.py::TestSameBitsAsTheNumpyForm::{name}" for name in (
            "test_consensus_means_alone_and_in_a_batch",
            "test_consensus_steps_alone_and_in_a_batch",
            "test_a_group_within_epsilon_skips_the_pairwise_mask")]
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *tests],
                              cwd=Path(__file__).parents[1], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"})
        assert proc.returncode == 0, proc.stdout + proc.stderr


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
        assert "hktruth: error: m must be an integer in [1, 20], got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-3", "--m", "0"]])
    def test_bad_n_is_named_before_m(self, capsys, argv):
        # m's range [0, n] is checked only against a valid n
        assert main(["bounds", *argv]) == 1
        assert capsys.readouterr().err == f"hktruth: error: n must be an integer >= 1, got {argv[1]}\n"

    def test_heterogeneous_alpha_rejected(self, capsys):
        assert main(["bounds", "--n", "3", "--m", "2", "--alpha", "0.5,0.6,0.5"]) == 1
        assert "homogeneous" in capsys.readouterr().err

    def test_a_non_seekers_alpha_takes_no_part(self, capsys):
        assert main(["bounds", "--n", "3", "--m", "2", "--alpha", "0.5,0.5,0.9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["bounds", "--n", "3", "--m", "2", "--alpha", "0.5"]) == 0
        assert payload == json.loads(capsys.readouterr().out)


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
        assert out.count("[PASS]") == 5
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
        assert f"hktruth: error: {flag} must be an integer >= {floor}" in capsys.readouterr().err

    def test_library_value_error_is_a_usage_error(self, capsys):
        # ModelConfig raises ValueError inside the library; main maps it to exit 1
        assert main(["verify", "--epsilon", "1.5", "--trials", "10", "--draws", "100"]) == 1
        assert ("hktruth: error: epsilon must be a real number in (0, 1], got 1.5"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("argv,message", [
        (["--alpha", "0.5,0.6"], "sweep requires a scalar alpha"),
        (["--ms", "0,5"], "grid point (delta=0.02, alpha=0.5, m=0, epsilon=0.2) is invalid"),
        pytest.param(["--n", "4", "--seekers", "0,0"],
                     "grid point (delta=0.02, alpha=0.5, m=2, epsilon=0.2) is invalid: "
                     "seeker indices must be distinct, got [0] more than once",
                     id="argv2-seeker indices must be distinct, got [0] more than once"),
    ])
    def test_invalid_grid_fails_before_writing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(["sweep", *argv, "--runs", "1", "--horizon", "5", "--tail-window", "1",
                     "--output", str(out)]) == 1
        assert f"hktruth: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_grid_is_checked_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        calls, original = [], hktruth.cli.iter_ensemble

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hktruth.cli, "iter_ensemble", counted)
        out = tmp_path / "out"
        assert main(["sweep", "--epsilons", "0.2,0.3,1.5", "--runs", "20", "--horizon", "5000",
                     "--output", str(out)]) == 1
        assert ("hktruth: error: grid point (delta=0.02, alpha=0.5, m=10, epsilon=1.5) is invalid: "
                "epsilon must be a real number in (0, 1], got 1.5"
                ) in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

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

    def test_axis_overrides_an_invalid_base_value(self, tmp_path, capsys):
        # every grid point takes epsilon from --epsilons, so the base 1.5 is never used
        out = tmp_path / "eps"
        assert main(["sweep", "--epsilon", "1.5", "--epsilons", "0.2,0.3", "--runs", "1",
                     "--horizon", "5", "--tail-window", "1", "--output", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0.2", "0.3"]

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
        pytest.param("mode = bogus", "config key mode expects one of noise-free, iid-noise, steered, iid",
                     id="mode = bogus"),
        pytest.param("runs = -3", "--runs must be an integer >= 1, got -3",
                     id="runs = -3---runs must be >= 1"),
        pytest.param("runs = 0", "--runs must be an integer >= 1, got 0",
                     id="runs = 0---runs must be >= 1"),
        pytest.param("seed = -1", "--seed must be an integer >= 0, got -1",
                     id="seed = -1---seed must be >= 0"),
        ("init = 0.1,zz", "config key init expects comma-separated numbers"),
        ("seekers = 1,x", "config key seekers expects comma-separated integers"),
        ("n = abc", "config key n = 'abc' is not an integer"),
        ("n = 2.5", "config key n = '2.5' is not an integer"),
    ])
    def test_bad_value_fails_every_command(self, tmp_path, capsys, command, line, message):
        # a command that does not use a key still rejects a bad value for it
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert f"hktruth: error: {message}" in capsys.readouterr().err


class TestOutputs:
    # one writer owns each command's directory, file list, clock and manifest
    @pytest.mark.parametrize("argv", [
        ["simulate", "--horizon", "20", "--full-states"],
        ["ensemble", "--runs", "3", "--horizon", "20", "--per-run"],
        ["sweep", "--deltas", "0.01,0.02", "--runs", "2", "--horizon", "20"],
    ], ids=lambda argv: argv[0])
    def test_manifest_lists_the_files_on_disk(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--tail-window", "2", "--output", str(out)]) == 0
        manifest = read_manifest(out / "manifest.json", drop_duration=False)
        assert manifest["outputs"] == sorted(path.name for path in out.iterdir())
        duration = manifest["duration_seconds"]
        assert isinstance(duration, float) and duration >= 0.0

    def test_step_rows_match_the_per_value_format(self, tmp_path):
        values = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1 + 0.2]
        table = np.array([values, values[::-1]])
        out = _Output({"output": str(tmp_path)})
        out.steps("table.csv", (f"c{i}" for i in range(len(values))), table)
        rows = [f"{t}," + ",".join(map(_fmt, row)) for t, row in enumerate(table)]
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert lines == ["t,c0,c1,c2,c3,c4,c5,c6", *rows]
        assert lines[1] == "0,nan,inf,-inf,-0,4.94065645841e-324,1e+16,0.3"

    def test_sweep_failing_at_a_later_grid_point_writes_nothing(self, tmp_path, capsys):
        # m = 30 > n fails before m = 5 runs and before any file is written
        out = tmp_path / "out"
        assert main(["sweep", "--n", "20", "--ms", "5,30", "--runs", "1", "--horizon", "5",
                     "--tail-window", "1", "--output", str(out)]) == 1
        assert ("hktruth: error: grid point (delta=0.02, alpha=0.5, m=30, epsilon=0.2) is invalid: "
                "m must be an integer in [0, 20], got 30") in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mode_gets_one_message_from_flag_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("mode = bogus\n")
        errors = []
        for source in (["--mode", "bogus"], ["--config", str(cfg)]):
            out = tmp_path / source[0][2:]
            assert main(["simulate", *source, "--horizon", "5", "--output", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        message = "expects one of noise-free, iid-noise, steered, iid, got 'bogus'\n"
        assert errors[0] == f"hktruth: error: hktruth simulate: argument --mode: {message}"
        assert errors[1] == f"hktruth: error: config key mode {message}"

    def test_help_lists_every_mode_spelling(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # so no help text is wrapped
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        entry = next(line for line in capsys.readouterr().out.splitlines()
                     if line.strip().startswith("--mode "))
        words = set(re.findall(r"[a-z]+(?:-[a-z]+)*", entry.split("MODE", 1)[1]))
        assert {"noise-free", "iid-noise", "steered", "iid"} <= words


def run_fresh(*argv):
    """``python -m hktruth`` in a child that imports the same hktruth as this process."""
    src = str(Path(hktruth.dynamics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hktruth", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


class TestCliMisc:
    def test_module_entry_point(self):
        proc = run_fresh("bounds", "--delta", "0.02")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta_lower"] == 0.025
        proc = run_fresh("--version")
        assert (proc.returncode, proc.stdout) == (0, f"hktruth {hktruth.__version__}\n")

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process; no call leaves state for the next,
        # and help is wrapped at the width of the call that prints it
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "60")
        for argv in (["bounds", "--n", "x"], ["simulate", "--help"],
                     ["bounds", "--n", "4", "--m", "2"], ["ensemble", "--frobnicate"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            proc = run_fresh(*argv)
            assert (code, got.out, got.err) == (proc.returncode, proc.stdout, proc.stderr)
        assert build_parser() is build_parser()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bounds", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv,flag,noun", [
        (["bounds", "--seekers", "1,x"], "--seekers", "integers"),
        (["bounds", "--n", "4", "--alpha", "0.5,a"], "--alpha", "numbers"),
        (["simulate", "--init", "0.1,zz"], "--init", "numbers"),
        (["sweep", "--ms", "1,x"], "--ms", "integers"),
        (["sweep", "--deltas", "0.01,q"], "--deltas", "numbers"),
    ])
    def test_malformed_list_flag_names_the_flag(self, tmp_path, capsys, monkeypatch, argv,
                                                flag, noun):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expects comma-separated {noun}, got " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,keys,extra", [
        ("bounds", MODEL_KEYS, ()),
        ("simulate", RUN_KEYS, ("--full-states",)),
        ("ensemble", (*RUN_KEYS, "runs"), ("--per-run",)),
        ("verify", (*MODEL_KEYS, "seed"), ("--trials", "--steps", "--draws")),
        ("sweep", (*RUN_KEYS, "runs"), ("--deltas", "--alphas", "--ms", "--epsilons")),
    ])
    def test_help_lists_every_setting_with_its_default(self, capsys, monkeypatch, command,
                                                       keys, extra):
        monkeypatch.setenv("COLUMNS", "1000")  # so no help text is wrapped
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        # one entry per option: "--flag METAVAR help", whitespace collapsed
        entries = [" ".join(entry.split())
                   for entry in re.split(r"\n(?=  -)", capsys.readouterr().out)]
        for key in keys:
            parse, default, about = SETTINGS[key]
            flag = "--" + key.replace("_", "-")
            entry = next(entry for entry in entries if entry.startswith(flag + " "))
            if default is None:
                assert entry.endswith(about)
            else:
                # the default is a parsed value, shown as its text
                assert parse(str(default)) == default
                assert entry.endswith(f"{about} (default {default})")
        for flag in extra:
            assert any(entry.startswith(flag + " ") for entry in entries)

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
