"""Tiny-budget runs of every workload, through the API and the command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench.client import _children
from bench.layers import traced_run
from bench.runner import ROOT, benchmark_config, run
from bench.workloads import WORKLOADS

BENCHMARK = benchmark_config()


def test_every_workload_runs_clean_and_reports_every_end_to_end_metric():
    # Two launches; each timed slice is twice the warm-up, whose rate sizes
    # the requests generated ahead of it.
    report = run(list(WORKLOADS), seed=3, seconds=2.0, launches=2, min_reads=20)
    assert set(report["workloads"]) == set(WORKLOADS)
    scale = report["host"]["scale"]
    assert scale > 0
    for name, result in report["workloads"].items():
        metrics = result["metrics"]
        assert result["failed"] == 0, (name, result["error_samples"])
        assert metrics["error_rate"]["median"] == 0
        for metric in BENCHMARK["end_to_end"]:
            assert metrics[metric["name"]]["median"] > 0, (name, metric)
        assert len(metrics["setup_s"]["values"]) == 2
        # Times scale with the host's speed, rates inversely, ratios not.
        for metric, factor in (("latency_p50_ms", scale), ("setup_s", scale),
                               ("throughput_rps", 1 / scale), ("error_rate", 1.0)):
            assert metrics[metric]["values"] == pytest.approx(
                [value * factor for value in metrics[metric]["raw_values"]])
    assert "update_p50_ms" in report["workloads"]["live-mixed"]["metrics"]
    assert report["provenance"]["nproc"] >= 1
    assert _children(os.getpid()) == []


def test_every_workload_reports_every_per_layer_metric(tmp_path):
    trace = tmp_path / "trace.json"
    report = traced_run(list(WORKLOADS), seed=3, trace_out=trace, sample_size=24)
    # The spawned pools' resource tracker is stopped too, not left to exit
    # after this process.
    assert _children(os.getpid()) == []
    for name, result in report["workloads"].items():
        assert result["failed"] == 0, (name, result["error_samples"])
        for metric in BENCHMARK["per_layer"]:
            assert metric["name"] in result["metrics"], (name, metric)
        decomposition = result["decomposition"]
        assert sum(ms for _, ms in decomposition["remote"]) == pytest.approx(
            decomposition["total_ms"])
        assert sum(ms for _, ms in decomposition["local"]) == pytest.approx(
            decomposition["service_ms"])
    assert "live.mutate_ms" in report["workloads"]["live-mixed"]["metrics"]
    spans = json.loads(trace.read_text())
    assert set(spans) == set(WORKLOADS)
    assert any(root["name"] == "request" for root in spans["hot-read"])


def test_command_prints_the_contract_line_last():
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "hot-read",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1000
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "hot-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
