"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_bench.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, plus the workload's own metric names, and that no operation failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "sweep": {"decisions_per_s", "decide_p50_us", "decide_tail_us"},
    "hard_m": {"m_per_s", "m_p50_ms", "m_tail_ms", "m_d4r6_s"},
    "blowup": {"transfers_per_s", "transfer_p50_ms", "transfer_tail_ms"},
    "cli": {"cli_decide_p50_ms", "cli_decide_tail_ms", "check42_s"},
}


def run(workload: str, trace: int, ops: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--ops", str(ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_end_to_end_metrics(workload):
    ops = 21 if workload == "cli" else 40  # one whole cli pass holds check --seed 42
    printed, result = run(workload, 0, ops)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= ops
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    names = {line.split(" = ")[0].split(" ", 1)[1] for line in printed if " = " in line}
    assert NAMED[workload] | {"setup_s", "fail_ratio"} <= names
    assert f"{workload} fail_ratio = 0.0 ratio" in printed


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_per_layer_metrics(workload):
    _, result = run(workload, 1, 12)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    if workload == "hard_m":
        assert result["metrics"]["minvariant.m_compute.calls"]["value"] == 12
        assert result["metrics"]["minvariant.nodes"]["value"] > 0


def test_refuses_without_program():
    """In a directory holding only BENCHMARK.json and perfbench/, the run fails without a result."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
