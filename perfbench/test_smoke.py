"""Smoke test of the benchmark itself, at small sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines[:-1]), m
    assert any(line.startswith("failed_frac ") for line in lines)


@pytest.mark.parametrize("workload", ["theta_quadratic", "cli_verify_linear_mf"])
def test_wrong_reference_counts_as_a_failure(workload, tmp_path):
    wl = WORKLOADS[workload].smoke()
    wrong = replace(wl, reference=tuple(1.5 * r for r in wl.reference))
    tally, metrics, _ = run.measure(wrong, wl.seed, 0.1, False, tmp_path)
    assert tally.failed >= 1 and tally.attempted >= 2
    assert any("is not within" in msg for msg in tally.messages)
    assert metrics["y0_rel_err"] > wl.y0_tol
