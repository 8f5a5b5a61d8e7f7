"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest perfbench -q -s

Runs each workload untraced and traced, prints every metric by name with
its unit, checks the printed metrics match ``BENCHMARK.json``, and shows
that an injected wrong result is counted as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, PER_LAYER, ROOT  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_declares_the_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload: str, trace: int):
    doc = bench(workload, trace)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == declared
    for name, m in doc["metrics"].items():
        print(f"{workload:12} trace={trace} {name:30} {m['value']:.6g} {m['unit']}")
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_result_is_a_failed_op(workload: str):
    doc = bench(workload, 0, "--inject-wrong")
    assert not doc["correct"]
    assert 1 <= doc["failed"] <= doc["attempted"]
