"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def hk():
    return workloads.load_package(ROOT)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run(name, trace):
    done = bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_manifest_names_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "ensemble-ref", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_arithmetic_on_nested_spans():
    # opened and closed by hand, with the clock reading these times in turn
    times = iter([0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0, 20.0, 21.5])
    tracer = spans.Tracer(clock=lambda: next(times))
    ids = tracer.name_ids
    root = tracer.open(ids["cli.main"])  # 0 .. 10
    child = tracer.open(ids["harness.run_trajectory"])  # 1 .. 4
    tracer.close(child)
    walk = tracer.open(ids["verify.steered_walk"])  # 5 .. 9
    grandchild = tracer.open(ids["dynamics.neighbor_means"])  # 6 .. 8
    tracer.close(grandchild)
    tracer.close(walk)
    tracer.close(root)
    tracer.close(tracer.open(ids["cli.main"]))  # 20 .. 21.5
    self_times = tracer.self_times()
    assert self_times["cli.main"] == (2, pytest.approx(3.0 + 1.5))
    assert self_times["harness.run_trajectory"] == (1, pytest.approx(3.0))
    assert self_times["verify.steered_walk"] == (1, pytest.approx(2.0))
    assert self_times["dynamics.neighbor_means"] == (1, pytest.approx(2.0))
    assert self_times["bounds.steered_noise"] == (0, 0.0)
    # self times partition the top-level spans exactly
    assert sum(t for _, t in self_times.values()) == pytest.approx(11.5)


def test_live_spans_nest_through_calls_and_generators():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def gen():
        yield wrapped_inner()
        yield wrapped_inner()

    wrapped_inner = tracer.wrap(inner, "dynamics.neighbor_means")
    wrapped_gen = tracer.wrap(gen, "harness.iter_ensemble")
    outer = tracer.wrap(lambda: list(wrapped_gen()), "cli.main")
    assert outer() == [1, 1]
    times = tracer.self_times()
    assert times["harness.iter_ensemble"][0] == 3  # two items and the final StopIteration
    assert times["dynamics.neighbor_means"] == (2, 2.0)
    total = sum(t for _, t in times.values())
    assert total == tracer.end[0] - tracer.start[0]


def test_wrappers_are_restored_after_a_traced_rep(hk, tmp_path, monkeypatch):
    # a function a later version drops is reported with zero calls
    monkeypatch.delattr(hk.dynamics, "step_noise_free")
    bindings = {(name, attr): value
                for name, module in sys.modules.items() if name.startswith("hktruth")
                for attr, value in vars(module).items() if callable(value)}
    w = workloads.WORKLOADS["ensemble-ref"](hk, 0, tmp_path)
    tracer = spans.Tracer()
    tally = run.Tally()
    assert run.do_rep(w, 1, tally, deep=False,
                      context=lambda: spans.patched(tracer)) is not None
    assert tally.failed == 0
    times = tracer.self_times()
    assert times["cli.main"][0] == 1
    assert times["dynamics.neighbor_means"][0] == w.RUNS * w.HORIZON
    assert times["dynamics.step_noise_free"] == (0, 0.0)
    after = {(name, attr): value
             for name, module in sys.modules.items() if name.startswith("hktruth")
             for attr, value in vars(module).items() if callable(value)}
    assert after == bindings
    assert all(after[key] is value for key, value in bindings.items())


def corrupt_after(w, monkeypatch, corrupt):
    real = w.run_rep

    def run_rep(k):
        out = real(k)
        corrupt(out)
        return out

    monkeypatch.setattr(w, "run_rep", run_rep)


def test_corrupted_file_raises_failed_fraction(hk, tmp_path, monkeypatch):
    w = workloads.WORKLOADS["cli-artifacts"](hk, 0, tmp_path)

    def corrupt(out):
        path = out["dir"] / "sim" / "states.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "1.5"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    tally = run.Tally()
    run.do_rep(w, 1, tally, deep=False)
    assert tally.failed == 0
    corrupt_after(w, monkeypatch, corrupt)
    run.do_rep(w, 2, tally, deep=False)
    assert tally.attempted == 4 and tally.failed == 1


def test_golden_digest_catches_a_changed_summary(hk, tmp_path, monkeypatch):
    w = workloads.WORKLOADS["ensemble-ref"](hk, workloads.DEFAULT_SEED, tmp_path)

    def corrupt(out):
        path = out["dir"] / "summary.json"
        path.write_text(path.read_text().replace('"runs": 50', '"runs": 50 '))

    corrupt_after(w, monkeypatch, corrupt)
    tally = run.Tally()
    run.do_rep(w, 0, tally, deep=True)
    assert tally.failed == 1
    assert any("golden" in p for p in tally.problems)


def test_wrong_kernel_fails_the_reference_step_check(hk, tmp_path, monkeypatch):
    real = hk.dynamics.neighbor_means
    monkeypatch.setattr(hk.dynamics, "neighbor_means",
                        lambda x, eps: real(x, eps) * (1.0 - 1e-9))
    w = workloads.WORKLOADS["ensemble-ref"](hk, 5, tmp_path)
    tally = run.Tally()
    run.do_rep(w, 1, tally, deep=True)
    assert tally.failed == 1
    assert any("reference" in p for p in tally.problems)
