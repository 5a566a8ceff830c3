"""Print three sha256 digests of lingopt's outputs, to show that a change keeps
them bit for bit.

    python tests/output_digest.py

Run it on two checkouts and compare the lines.

* ``solver``: every firing, output FOU vertex and height, centroid end,
  decoded word and ranking, as ``float.hex`` or text, of
  - the ``pr-scale`` and ``synth-fine`` bundles of ``benchmarks/synth.py``
    for seeds 0-3, 5 and 77;
  - the ``synth-fine`` bundles with their ``auto auto`` consequents
    rewritten to ``auto-word auto-word``, ``auto-word auto`` and
    ``auto auto-word``, at grids 1001 and 10001;
  - both case problems on both fixture codebooks at grids 201, 1001 and
    10001, and the loaded codebook words' centroids.
* ``cli``: the exit code, stdout and stderr of each of ``CLI_CALLS``.
* ``two-tuple``: every 2-tuple's index and ``float.hex`` translation, and
  the ranking, of ``solve_two_tuple_bundle`` on both case problems,
  ``sm-toy`` and the ``pr-scale`` bundles of the seeds above; the error's
  class and message for the ``synth-fine`` bundles, whose ``auto``
  consequents that engine refuses.  It reads only ``outputs``, ``ranking``,
  ``index`` and ``alpha``, so it runs against older checkouts too.

Nothing is written to disk.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under benchmarks/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import synth  # noqa: E402
from lingopt.cli import main  # noqa: E402
from lingopt.codebook import load_codebook, parse_codebook  # noqa: E402
from lingopt.fuzzy import LingoptError  # noqa: E402
from lingopt.problems import (case_molop, case_solop, parse_problem, sm_toy, solve_pr_bundle,  # noqa: E402
                              solve_two_tuple_bundle)

SEEDS = (0, 1, 2, 3, 5, 77)
# the benchmark's two synthetic shapes (benchmarks/workloads.py) and their grids
PR_SCALE = (synth.Shape(25, 16, (100,), auto=False), None)
SYNTH_FINE = (synth.Shape(25, 9, (2, 3, 4), auto=True), 10001)
AUTO_REWRITES = ("auto-word auto-word", "auto-word auto", "auto auto-word")
generate = functools.lru_cache(synth.generate)  # both digests read the same bundles

CLI_CALLS = [
    *(["solve", "pr", "--problem", p, "--codebook", c, "--grid", g, "--format", f]
      for p in ("case-solop", "case-molop") for c in ("paper-hma", "paper-ia")
      for g in ("201", "10001") for f in ("table", "csv")),
    ["solve", "pr", "--problem", "case-molop", "--codebook", "paper-ia"],
    ["solve", "two-tuple", "--problem", "case-solop"],
    ["solve", "two-tuple", "--problem", "case-molop", "--format", "csv"],
    ["solve", "two-tuple", "--problem", "sm-toy"],
    ["solve", "two-tuple", "--problem", "sm-toy", "--strict-scale"],
    ["solve", "tsukamoto", "--problem", "sm-solop"],
    ["solve", "tsukamoto", "--problem", "sm-molop", "--step", "0.01"],
    ["export-fou", "--codebook", "paper-hma", "--problem", "case-molop", "--out", "-"],
    ["export-fou", "--codebook", "paper-ia", "--out", "-"],
    ["sample", "--spec", "paper-endpoints", "--n", "50", "--seed", "7", "--out", "-"],
    ["solve", "pr", "--problem", "no-such-problem"],
    ["solve", "pr", "--problem", "case-solop", "--grid", "2"],
    ["solve", "tsukamoto", "--problem", "sm-solop", "--step", "0"],
    ["solve", "two-tuple", "--problem", "sm-solop"],
]


def _solver_lines():
    cases = []
    for seed in SEEDS:
        for (shape, points), label in ((PR_SCALE, "pr-scale"), (SYNTH_FINE, "synth-fine")):
            cb_text, problem_text = generate(shape, seed, label)
            cases.append((f"{label}/{seed}", cb_text, problem_text, [points]))
            if shape.auto:
                for rewrite in AUTO_REWRITES:
                    cases.append((f"{label}/{seed}/{rewrite}", cb_text,
                                  problem_text.replace("| auto auto\n", f"| {rewrite}\n"), [10001, 1001]))
    for name, cb_text, problem_text, grids in cases:
        cb = parse_codebook(cb_text)
        bundle = parse_problem(problem_text)
        for points in grids:
            yield from _bundle_lines(f"{name}@{points}", bundle, cb, points)
    for cb_id in ("paper-hma", "paper-ia"):
        cb = load_codebook(cb_id)
        for w in cb.words:
            yield f"{cb_id} {w.name} {w.centroid.cl.hex()} {w.centroid.cr.hex()}"
        for bundle in (case_solop(), case_molop()):
            for points in (201, 1001, 10001):
                yield from _bundle_lines(f"{bundle.name}/{cb_id}@{points}", bundle, cb, points)


def _bundle_lines(name, bundle, cb, points):
    d = None if points is None else cb.discretization(points)
    result = solve_pr_bundle(bundle, cb, d)
    yield f"{name} ranking {' '.join(result.ranking)}"
    for label, outputs in result.outputs.items():
        for o in outputs:
            t = [*o.fou.umf.vertices, *o.fou.lmf.vertices, o.fou.lmf.h, o.centroid.cl, o.centroid.cr, *o.firings]
            yield f"{name} {label} {o.decoded} " + " ".join(float(v).hex() for v in t)


def _two_tuple_lines():
    bundles = [(b.name, b) for b in (case_solop(), case_molop(), sm_toy())]
    for seed in SEEDS:
        for (shape, _), label in ((PR_SCALE, "pr-scale"), (SYNTH_FINE, "synth-fine")):
            bundles.append((f"{label}/{seed}", parse_problem(generate(shape, seed, label)[1])))
    for name, bundle in bundles:
        try:
            result = solve_two_tuple_bundle(bundle)
        except LingoptError as e:
            yield f"{name} {type(e).__name__} {e}"
            continue
        yield f"{name} ranking {' '.join(result.ranking)}"
        for label, outputs in result.outputs.items():
            yield f"{name} {label} " + " ".join(f"{t.index} {float(t.alpha).hex()}" for t in outputs)


def _cli_lines():
    for argv in CLI_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        yield f"{argv!r}\n{code}\n{out.getvalue()}\n{err.getvalue()}"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\0")
    return h.hexdigest()


if __name__ == "__main__":
    print(f"solver {digest(_solver_lines())}")
    print(f"cli    {digest(_cli_lines())}")
    print(f"two-tuple {digest(_two_tuple_lines())}")
