"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload untraced and twice traced, checks the result line against
BENCHMARK.json, and checks that the traced counts repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import END_TO_END
from tracer import COUNT_METRICS, LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def bench(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(run_py), "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> dict:
    proc = bench(BENCH_DIR / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == ["search", "stateful", "long-series"]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in LAYER_METRICS.items()}


@pytest.mark.parametrize("workload", ["search", "stateful", "long-series"])
def test_workload_untraced_and_traced(workload):
    untraced = result(workload, 0)
    assert list(untraced["metrics"]) == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    first, second = result(workload, 1), result(workload, 1)
    assert list(first["metrics"]) == list(LAYER_METRICS)
    counts = [{name: r["metrics"][name]["value"] for name in COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["diffcore.nodes"] > 0 and counts[0]["score.steps"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path / BENCH_DIR.name / "run.py", "stateful", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
