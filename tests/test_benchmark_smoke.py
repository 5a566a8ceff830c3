"""Keeps the benchmark harness runnable: short runs of each workload.  The
case-study run compares every report against tests/golden; each synthetic
run checks its query outputs against one whole-bundle solve.  The traced
runs go through the tracer's wrappers, so a change that breaks the traced
harness fails here too.  Each run's result line must be strict JSON and
carry exactly the metrics BENCHMARK.json declares for its mode, and every
layer the tracer names must still resolve to a function."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


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
    result = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_case_study_runs_clean():
    run_clean("case-study")


@pytest.mark.parametrize("workload", ["pr-scale", "synth-fine"])
def test_synthetic_workload_runs_clean(workload):
    run_clean(workload)


@pytest.mark.parametrize("workload", ["case-study", "pr-scale", "synth-fine"])
def test_traced_workload_runs_clean(workload):
    run_clean(workload, trace="1")


def test_every_tracer_layer_resolves():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [name for name, targets in tracer.LAYERS.items()
                  if not any(tracer._resolve(target) for target in targets)]
    assert unresolved == []
