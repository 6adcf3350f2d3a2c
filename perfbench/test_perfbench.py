"""The benchmark's own tests, on a shrunken desk so that they take about a minute.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small_desk(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "DESK_SCENES", 20)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "PRETRAIN_EPOCHS", 3)
    monkeypatch.setattr(workloads, "MIN_CAPTIONS", 4)
    monkeypatch.setattr(workloads, "BEAM1_SCENES", 2)
    monkeypatch.setattr(workloads, "CACHE_DIR", tmp_path / "cache")


def _counts(result):
    """The deterministic per-layer metrics: counts and ratios of counts."""
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "ms" and not k.startswith("trace.")}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_and_outputs_match(small_desk, tmp_path, workload):
    first = run.run(workload, 3, 1, True, out_dir=tmp_path)
    second = run.run(workload, 3, 1, True, out_dir=tmp_path)
    for record, result in (first, second):
        assert record["mismatched"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert _counts(first[1]) == _counts(second[1])
    if workload == "xe_desk":
        # 1181 forward nodes per sample plus one batch-accumulation node
        assert first[1]["metrics"]["tensor.tape_nodes_per_sample"]["value"] == 1182.0
    if workload == "decode_desk":
        assert first[1]["metrics"]["decoder.step_useful_row_share"]["value"] > 0.0


def test_untraced_result_has_every_end_to_end_metric(small_desk, tmp_path):
    record, result = run.run("xe_desk", 3, 1, False, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "work-*", "cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "xe_desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
