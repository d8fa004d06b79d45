"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, and the fault-injection check.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    summary, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = re.compile(rf"{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}( |$)")
        assert any(line.match(s) for s in summary), m["name"]
    assert any(s.startswith("fail_ratio = 0.0 ratio") for s in summary)
    assert any("checked against golden.json (recorded" in s for s in summary)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_tower_bit_counts_as_failed(workload):
    summary, result = run(workload, 0, "--inject-fault")
    assert not result["correct"] and result["failed"] >= 1
    expected = "cli[verify]:exit=2" if workload == "cli" else ":claimA"
    assert any(s.startswith("# failed:") and expected in s for s in summary)
