"""Keeps the benchmark harness runnable: one short case-study run, whose
output checks compare every report against tests/golden."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_case_study_runs_clean():
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "case-study", "--seed", "1", "--seconds", "0.3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
