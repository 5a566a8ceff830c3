"""Keeps the benchmark harness runnable: short runs of each workload.  The
case-study run compares every report against tests/golden; each synthetic
run checks its query outputs against one whole-bundle solve.  The traced
runs go through the tracer's wrappers, so a change that breaks the traced
harness fails here too.  Each run's result line must be strict JSON and
carry exactly the metrics BENCHMARK.json declares for its mode, and every
layer the tracer names must still resolve to a function.  A traced run's
record must name no absent layer, and must record calls for every layer its
workload is known to reach, so a rename cannot zero a layer unnoticed.  The
runs work on a copy of the sources, so the records they write leave the
checkout's benchmarks/out/ as it was."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def harness_copy(tmp_path_factory) -> Path:
    """src/, benchmarks/ without its out/ and tests/golden/, copied to a new directory."""
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    shutil.copytree(ROOT / "benchmarks", root / "benchmarks", ignore=skip)
    shutil.copytree(ROOT / "tests" / "golden", root / "tests" / "golden")
    return root


def checkout_records() -> dict[str, bytes]:
    out = ROOT / "benchmarks" / "out"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def run_clean(root: Path, workload: str, trace: str = "0"):
    before = checkout_records()
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.3",
         "--trace", trace],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert checkout_records() == before
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=refuse_constant)
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_case_study_runs_clean(harness_copy):
    run_clean(harness_copy, "case-study")


@pytest.mark.parametrize("workload", ["pr-scale", "synth-fine"])
def test_synthetic_workload_runs_clean(harness_copy, workload):
    run_clean(harness_copy, workload)


SOLVE_LAYERS = ["fuzzy.membership_grid", "problems.solve_pr", "reasoning.lwa", "similarity.centroid",
                "similarity.rank"]
# layers each workload's traced run records calls for
LIVE_LAYERS = {
    "case-study": SOLVE_LAYERS + ["cli", "codebook.load", "codebook.sample", "problems.solve_two_tuple",
                                  "tsukamoto.optimize"],
    "pr-scale": SOLVE_LAYERS,
    "synth-fine": SOLVE_LAYERS,
}


@pytest.mark.parametrize("workload", ["case-study", "pr-scale", "synth-fine"])
def test_traced_workload_runs_clean(harness_copy, workload):
    run_clean(harness_copy, workload, trace="1")
    record = json.loads((harness_copy / "benchmarks" / "out" / f"{workload}-seed1-trace1.json").read_text())
    assert record["absent_layers"] == []
    live = {name for name, row in record["layers"].items() if row["calls"]}
    assert sorted(set(LIVE_LAYERS[workload]) - live) == []


def test_every_tracer_layer_resolves():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [name for name, targets in tracer.LAYERS.items()
                  if not any(tracer._resolve(target) for target in targets)]
    assert unresolved == []
