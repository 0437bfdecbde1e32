import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
import worker
from sandpiles import cli

ROOT = run.ROOT


def test_failed_requests_are_counted_and_the_loop_goes_on(tmp_path):
    requests = [
        ["info", "--graph", str(tmp_path / "missing.json")],  # FileNotFoundError escapes
        ["gen", "--family", "wheel:x"],  # ValueError escapes
        ["no-such-command"],  # argparse exits with 2
        ["verify", "--suite", "fixtures"],
    ]
    records = worker.closed_loop(cli.main, [(f"s{i}", argv) for i, argv in enumerate(requests)])
    assert [r["code"] for r in records] == [None, None, 2, 0]
    assert records[0]["error"].startswith("FileNotFoundError")
    assert records[1]["error"].startswith("ValueError")
    failed, wrong, problems = run.check_records(records)
    assert (failed, wrong, len(problems)) == (3, 0, 3)
    assert [r["ok"] for r in records] == [False, False, False, True]
    for r in records:  # a machine at half the reference speed
        r["calibration_s"] = 2 * run.REFERENCE_CALIBRATION_S
    summary = {"window_s": 1.0, "peak_rss_kib": 1024}
    values, unscaled, notes = run.end_to_end(records, summary, [(0.1, 0.2)], 0.5)
    # one request served in the time of all four, which ran at half the speed
    assert values["requests_per_s"] == pytest.approx(2 / sum(r["latency_s"] for r in records))
    assert values["latency_p50_ms"] == pytest.approx(500 * records[3]["latency_s"])
    assert unscaled["requests_per_s"] == 1.0  # one request served in the 1 s window
    assert unscaled["latency_p50_ms"] == pytest.approx(1000 * records[3]["latency_s"])
    assert any("3 failed of 4 attempted" in note for note in notes)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_one_traced_run_end_to_end(tmp_path):
    result, lines, _ = run.run("verify-oracle", 5, 0.01, 1, str(tmp_path / "scratch"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 6  # one block untraced, the same block traced
    metrics = result["metrics"]
    assert [name for name, _ in tracing.PER_LAYER] == list(metrics)
    assert metrics["forests.count_constrained_forests.calls"]["value"] > 0
    assert metrics["trace.absent_functions"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tall-piles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
