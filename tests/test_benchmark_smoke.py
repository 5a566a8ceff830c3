"""Keeps the benchmark harness runnable: short runs of each workload.  The
case-study run compares every report against tests/golden; each synthetic
run checks its query outputs against one whole-bundle solve.  The traced
runs go through the tracer's wrappers, so a change that breaks the traced
harness fails here too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_clean(workload: str, trace: str = "0"):
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.3",
         "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout


def test_case_study_runs_clean():
    run_clean("case-study")


@pytest.mark.parametrize("workload", ["pr-scale", "synth-fine"])
def test_synthetic_workload_runs_clean(workload):
    run_clean(workload)


@pytest.mark.parametrize("workload", ["case-study", "pr-scale", "synth-fine"])
def test_traced_workload_runs_clean(workload):
    run_clean(workload, trace="1")
