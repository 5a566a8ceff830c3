"""Set-up of one workload, timed in a fresh process.

    python3 benchmarks/setup_child.py <workload>  < inputs.json

Reads the workload's generated inputs as JSON on stdin, then times importing
the package, loading or parsing the codebook and loading or parsing the
problem, and prints the seconds taken.  ``run.py`` calls ``setup`` from this
file too, so the set-up it measures is the one its queries use.
"""

import json
import sys
import time
from pathlib import Path

CASE_CODEBOOKS = ("paper-hma", "paper-ia")
CASE_PROBLEMS = ("case-solop", "case-molop", "sm-toy")


def setup(workload: str, inputs: dict) -> dict:
    from lingopt import codebook, problems

    if workload == "case-study":
        import lingopt.cli  # noqa: F401  (queries enter through the CLI)

        return {
            "codebooks": {c: codebook.load_codebook(c) for c in CASE_CODEBOOKS},
            "bundles": {p: problems.load_problem(p) for p in CASE_PROBLEMS},
        }
    return {
        "codebook": codebook.parse_codebook(inputs["codebook"]),
        "bundle": problems.parse_problem(inputs["problem"]),
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    inputs = json.load(sys.stdin)
    start = time.perf_counter()
    setup(sys.argv[1], inputs)
    print(time.perf_counter() - start)
