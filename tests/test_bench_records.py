"""The committed BENCH_<pr>.json files keep the shape a perf claim is read
from: runs that ``benchmarks/run.py`` recorded, each tagged with its side.
Every run carries exactly the metrics BENCHMARK.json declares for its mode,
no query failed, and each workload named was run on both sides, in pairs:
the same multiset of seeds and the same ``seconds`` on each side.  No number
is bounded here: the benchmark's own gate does that."""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_shape(path):
    bench = json.loads(path.read_text())
    assert path.name == f"BENCH_{bench['pr']}.json"
    assert isinstance(bench["parent_sha"], str) and bench["parent_sha"]
    assert bench["runs"]
    sides: dict[str, set[str]] = {}
    for run in bench["runs"]:
        declared = DECLARED["per_layer" if run["trace"] == 1 else "end_to_end"]
        assert sorted(run["metrics"]) == sorted(m["name"] for m in declared)
        assert run["failed_frac"] == 0
        assert run["side"] in ("parent", "change")
        sides.setdefault(run["workload"], set()).add(run["side"])
    for workload, seen in sides.items():
        assert seen == {"parent", "change"}, workload


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_runs_are_paired(path):
    runs: dict[tuple[str, str], list] = {}
    for run in json.loads(path.read_text())["runs"]:
        runs.setdefault((run["workload"], run["side"]), []).append(run)
    for workload in {w for w, _ in runs}:
        parent, change = runs.get((workload, "parent"), []), runs.get((workload, "change"), [])
        assert Counter(r["seed"] for r in parent) == Counter(r["seed"] for r in change), workload
        assert {r["seconds"] for r in parent + change} == {parent[0]["seconds"]}, workload
