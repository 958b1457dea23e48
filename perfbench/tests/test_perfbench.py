"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` in a subprocess, as the benchmark
is run for real, and reads what it prints.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(workload, *extra, seed=1, trace=0, cwd=ROOT, script=RUN):
    """Run one tiny benchmark; returns (exit code, record, result, lines)."""
    completed = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = completed.stdout.splitlines()
    record = result = None
    for line in lines:
        if line.startswith("perfbench "):
            record = json.loads(line[len("perfbench "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return completed.returncode, record, result, lines


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    code, record, result, lines = run_bench("explore", trace=trace)
    assert code == 0, lines
    assert record["verdict"] == "ok"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_share 0.0 ") for line in lines)


def test_forged_expected_digest_fails_the_run():
    code, record, result, _ = run_bench("explore", "--expect-digest",
                                        "0" * 64)
    assert code == 1
    assert record["verdict"] == "failed"
    assert result["correct"] is False
    assert result["failed"] > 0
    assert any("digest" in failure for failure in record["failures"])


def test_mode_mismatch_is_incomparable():
    # The simulate workload pins a 2-worker fork pool; one worker makes
    # the engine run in-process, which must not read as a regression.
    code, record, result, _ = run_bench("simulate", "--workers", "1")
    assert code == 3
    assert record["verdict"] == "incomparable"
    assert record["mode"]["pinned"] == {"mode": "pool:fork", "workers": 2}
    assert record["mode"]["observed"] == ["in-process x1"]
    assert result["correct"] is False


def test_result_records_the_execution_mode():
    code, record, _, _ = run_bench("simulate")
    assert code == 0
    mode = record["mode"]
    assert mode["observed"] == ["pool:fork x2"]
    assert mode["cpu_affinity"] >= 1
    assert mode["python"].count(".") == 2
    assert len(mode["source_sha256"]) == 64
    assert "git_sha" in mode


@pytest.mark.parametrize("workload", ["explore", "certified"])
def test_deterministic_counts_repeat_across_runs(workload):
    first = run_bench(workload, trace=1, seed=5)
    second = run_bench(workload, trace=1, seed=5)
    assert first[0] == second[0] == 0
    assert first[1]["layer_counts"] == second[1]["layer_counts"]
    assert first[1]["counts"] == second[1]["counts"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench")
    code, record, result, lines = run_bench(
        "explore", cwd=str(tmp_path),
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert code != 0
    assert result is None and record is None
