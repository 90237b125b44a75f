"""Smoke test for the benchmark: each workload at a tiny N with every
answer check on. It makes no timing assertions.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--n", "40"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc


def digests(proc: subprocess.CompletedProcess) -> dict[str, str]:
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("_sha256"):
            out[parts[0]] = parts[1]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload: str, trace: int) -> None:
    proc = run_bench(workload, seed=3, trace=trace)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", ["resolve_mix", "provision_churn"])
def test_digests_repeat_and_tracing_changes_nothing(workload: str) -> None:
    first = digests(run_bench(workload, seed=5, trace=0))
    again = digests(run_bench(workload, seed=5, trace=0))
    traced = digests(run_bench(workload, seed=5, trace=1))
    assert len(first) == 2
    assert first == again == traced


def test_fails_without_a_result_when_the_package_source_is_missing(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("resolve_mix", seed=1, trace=0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
