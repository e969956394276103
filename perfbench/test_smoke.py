"""Smoke test of the benchmark: every workload, traced and untraced, at tiny size.

Run with ``python3 -m pytest perfbench``. Checks the result contract, that
every metric BENCHMARK.json names is emitted with its unit, that the report
carries the metrics each workload applies to, that traced counters repeat
exactly, and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

REPORTED = {
    "sinusoid-transfer": ["train_steps_per_s", "tasks_per_s", "adapt_p50_ms", "predict_p50_ms",
                          "adapt_mse", "var_ok_frac"],
    "adapt-cache": ["tasks_per_s", "adapt_p50_ms", "adapt_p90_ms", "predict_p50_ms",
                    "predict_p90_ms", "adapt_mse", "var_ok_frac"],
    "glm-laplace": ["glm_fit_s", "draw_p50_ms", "draw_p90_ms"],
}
COMMON = ["setup_s", "wall_s", "peak_rss_mb", "failed_frac"]


def bench(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def parse(out):
    assert out.returncode == 0, out.stderr[-3000:]
    report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return report, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    report, result = parse(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in COMMON + REPORTED[workload]:
        assert name in report["report"], name
    env = report["environment"]
    assert env["blas_threads"] <= env["nproc"] and env["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counters(workload):
    first = parse(bench(workload, 1))[1]["metrics"]
    second = parse(bench(workload, 1))[1]["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    counters = [k for k, v in first.items() if v["unit"] in ("count", "B")]
    assert counters
    assert {k: first[k]["value"] for k in counters} == {k: second[k]["value"] for k in counters}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
