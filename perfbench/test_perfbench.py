"""Self-tests of the benchmark: metric names agree with BENCHMARK.json,
traced runs report every layer and keep the layers apart as claimed, a
seed gives the same case outputs in two processes, and calibration
samples in proportion to the time measured.

    python3 -m pytest -q perfbench        # about a minute
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

# layers a workload must not reach, and layers it must reach
BYPASSED = {
    "lattice": ("dual.", "minkowski.solve2.self_s", "minkowski.solve3.self_s"),
    "gw": ("minkowski.solve3.self_s",),
    "numerics": ("dual.", "minkowski.solve2.self_s"),
}
USED = {
    "lattice": ("linalg.self_s", "functions.pointwise_min.self_s",
                "valuations.residual.self_s"),
    "gw": ("dual.gw_pipeline.self_s", "dual.mollify.self_s",
           "minkowski.solve2.self_s", "bodies.boundary_cycle.self_s"),
    "numerics": ("minkowski.solve3.self_s", "measures.mc.self_s",
                 "measures.nearest_points.self_s",
                 "spherical.integrate.self_s"),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc):
    line = next(s for s in proc.stdout.splitlines()
                if s.startswith("workload "))
    return line.split(" digest ")[1]


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_layer_metrics_match_benchmark_json():
    spec = benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(BYPASSED)


def test_every_layer_metric_says_what_it_moves():
    moves = json.loads((HERE / "baseline.json").read_text())["moves"]
    end_to_end = {m["name"] for m in benchmark_json()["end_to_end"]}
    for name, _, _ in tracing.LAYER_METRICS:
        # tracing is off in end-to-end runs: its overhead moves nothing
        assert moves[name] or name == "trace.overhead_s", name
        for target in moves[name]:
            assert target["metric"] in end_to_end
            assert target["workload"] in BYPASSED


@pytest.mark.parametrize("workload", list(BYPASSED))
def test_traced_run_reports_and_separates_layers(workload):
    result = last_json(bench("--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]
    for name, value in metrics.items():
        if name.startswith(BYPASSED[workload]):
            assert value == 0, f"{workload} reached {name}"
    for name in USED[workload]:
        assert metrics[name] > 0, f"{workload} never reached {name}"


def test_seed_gives_identical_outputs_across_processes():
    runs = [bench("--workload", "lattice", "--seed", str(SEED),
                  "--seconds", "1", "--trace", "0") for _ in range(2)]
    assert all(last_json(p)["correct"] for p in runs)
    assert digest(runs[0]) == digest(runs[1])


def test_calibration_brackets_each_interval():
    cal = run.Calibration()
    first = cal.after(0.0)              # at least one loop, however short
    assert len(cal.samples) == 1
    assert first == pytest.approx(run.CAL_NOMINAL_S / cal.samples[0])
    second = cal.after(0.5)             # the blocks before and after it
    assert sum(cal.samples[1:]) >= run.CAL_SHARE * 0.5
    assert second == pytest.approx(
        run.CAL_NOMINAL_S * len(cal.samples) / sum(cal.samples))


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "lattice", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
