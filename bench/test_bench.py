"""Tests of the benchmark itself: determinism, traced split, declared names.

Run with `PYTHONPATH=src python3 -m pytest -q bench`.  Each case starts the
benchmark as a separate process on a few operations, so a rerun shares no state
(hash seeds included) with the run it is compared against.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OPS = {"sweep": 12, "audit": 10, "oracle": 24}


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """(record line, result line) of one run on OPS[workload] operations;
    `attempt` tells apart reruns that must not come from the cache."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--ops", str(OPS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )  # fmt: skip
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record), json.loads(result)


@pytest.mark.parametrize("workload", sorted(OPS))
def test_rerun_writes_byte_identical_artifacts(workload):
    first, result = bench(workload, 7, 0)
    assert result["correct"], first["wrong"]
    assert result["failed"] == 0  # oracle mismatches count apart, in mismatch_frac
    again, _ = bench(workload, 7, 0, attempt=1)
    assert again["inputs_digest"] == first["inputs_digest"]
    assert again["artifacts_digest"] == first["artifacts_digest"]
    other, _ = bench(workload, 8, 0)
    assert other["inputs_digest"] != first["inputs_digest"]


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_run_reports_every_layer_metric_and_the_predicted_split(workload):
    record, result = bench(workload, 7, 1)
    assert result["correct"], record["wrong"]  # includes the hot-span self-check
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in SPEC["per_layer"])
    calls = {k[: -len(".calls")]: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    if workload == "sweep":
        assert all(v == 0 for k, v in calls.items() if k.startswith(("refinement.", "subgame.")))
    elif workload == "oracle":
        assert calls["refinement.verify_pbe"] > calls["subgame.construct_epbe"]
    else:
        assert calls["subgame.construct_epbe"] > calls["refinement.verify_pbe"]
        assert calls["refinement.brute_force"] > 0


def test_end_to_end_result_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(OPS, key=list(OPS).index)
    record, result = bench("sweep", 7, 0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in SPEC["end_to_end"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert record["ops"] == OPS["sweep"] and record["seed"] == 7
    for key in ("git_sha", "python", "numpy", "nproc"):
        assert key in record


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
