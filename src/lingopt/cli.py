"""Command-line front end.

    lingopt solve pr         --problem case-solop --codebook paper-hma
    lingopt solve two-tuple  --problem case-solop
    lingopt solve tsukamoto  --problem sm-solop
    lingopt export-fou       --codebook paper-hma --out fous.csv
    lingopt sample           --spec endpoints.txt --n 50 --seed 7 --out data.txt

A ``solve`` report is ``key = value`` head lines, a blank line, a table whose
first row names the columns, a blank line, then tail lines (the ranking or
the optimum).  ``--format csv`` joins each line's whitespace-separated tokens
by commas, so ``engine = pr`` prints as ``engine,=,pr``.
Reports are deterministic: identical invocations produce identical bytes.
Exit codes: 0 success, 2 usage error, 3 data/invariant error, 4 engine error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tsukamoto as tsk
from .codebook import (
    MAX_GRID,
    STUDENT_ENDPOINTS,
    EndpointSpecError,
    format_data_intervals,
    load_codebook,
    load_source,
    parse_endpoint_specs,
    sample_person_fou,
)
from .fuzzy import IT2Word, LingoptError, NoRuleFiredError
from .problems import (
    EngineMismatchError,
    ProblemBundle,
    load_problem,
    solve_pr_bundle,
    solve_two_tuple_bundle,
)
from .similarity import DEFAULT_POINTS, DegenerateWordError
from .twotuple import OutOfScaleError, overflow_check

USAGE_ERROR, DATA_ERROR, ENGINE_ERROR = 2, 3, 4
MAX_SAMPLE_N = 100_000  # most data intervals `sample` draws per word


class UsageError(LingoptError):
    """A flag is missing or unknown, or its value cannot be parsed or is out
    of its accepted range."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage block and exit;
    the subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


def _fmt(*xs: float) -> list[str]:
    return [f"{x:.2f}" for x in xs]


def _report(head: dict, widths: list[int], rows, tail: list[str], fmt: str) -> str:
    """The ``key = value`` head lines, a blank line, the table, a blank line,
    then the tail lines.  The table's first row names the columns; each cell
    is left-justified to its column's width and cells are two spaces apart.
    As ``csv``, each line's whitespace-separated tokens are joined by commas."""
    table = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    lines = [*(f"{k} = {v}" for k, v in head.items()), "", *table, "", *tail]
    if fmt == "csv":
        lines = [",".join(line.split()) for line in lines]
    return "\n".join(lines) + "\n"


def _solve_pr(bundle: ProblemBundle, args) -> str:
    codebook = args.codebook or bundle.codebook_id
    cb = load_codebook(codebook)
    result = solve_pr_bundle(bundle, cb, cb.discretization(args.grid))
    rows = [("alternative", "objective", "umf_a", "umf_b", "umf_c", "umf_d",
             "lmf_a", "lmf_b", "lmf_c", "lmf_d", "lmf_h", "cl", "cr", "mean", "word")]
    for alt in bundle.alternatives:
        for obj, out in zip(bundle.objectives, result.outputs[alt.label]):
            w, c = out.fou, out.centroid
            cells = _fmt(*w.umf.vertices, *w.lmf.vertices, w.lmf.h, c.cl, c.cr, c.mean)
            rows.append((alt.label, obj.name, *cells, out.decoded))
    return _report({"engine": "pr", "problem": bundle.name, "codebook": codebook, "grid": args.grid},
                   [11, 9] + [6] * 12 + [4], rows, ["ranking = " + " > ".join(result.ranking)], args.format)


def _solve_two_tuple(bundle: ProblemBundle, args) -> str:
    result = solve_two_tuple_bundle(bundle)
    rows, protruding = [("alternative", "objective", "term", "alpha", "beta")], []
    for alt in bundle.alternatives:
        for obj, t in zip(bundle.objectives, result.outputs[alt.label]):
            term = bundle.term_set.label(t.index)
            rows.append((alt.label, obj.name, term, *_fmt(t.alpha, t.beta)))
            protrusion = overflow_check(t, bundle.term_set)
            if protrusion > 0.0:
                protruding.append(
                    f"overflow: {alt.label}/{obj.name} ({term}, {t.alpha:.2f}) "
                    f"protrudes {protrusion:.2f} term spacings past the scale"
                )
    tail = ["ranking = " + " > ".join(result.ranking)]
    if protruding:
        if args.strict_scale:
            raise OutOfScaleError(f"{len(protruding)} output(s) protrude past the term scale (strict mode)")
        tail += ["", *protruding]
    return _report({"engine": "two-tuple", "problem": bundle.name}, [11, 9, 5, 6, 6], rows, tail, args.format)


def _solve_tsukamoto(args) -> str:
    rules, constraint, directions = tsk.fixture(args.problem)
    result = tsk.optimize(rules, constraint, directions, step=args.step)
    n, q = len(result.points[0]), len(directions)
    rows = [[f"y{i+1}" for i in range(n)] + [f"f{k+1}" for k in range(q)]]
    rows += [[f"{v:.4f}" for v in (*point, *values)] for point, values in zip(result.points, result.values)]
    optimum = " ".join(f"{v:.4f}" for v in result.values[0])
    return _report({"engine": "tsukamoto", "problem": args.problem, "step": f"{args.step:g}"},
                   [8] * (n + q), rows, [f"optimum = {optimum}"], args.format)


def _cmd_solve(args) -> int:
    if not 3 <= args.grid <= MAX_GRID:
        raise UsageError(f"--grid must be between 3 and {MAX_GRID} points, got {args.grid}")
    if args.engine == "tsukamoto":
        if args.problem not in tsk.FIXTURES:
            raise EngineMismatchError(
                f"the tsukamoto engine solves the crisp fixtures {'/'.join(map(repr, tsk.FIXTURES))}, "
                f"not {args.problem!r}"
            )
        report = _solve_tsukamoto(args)
    elif args.engine == "pr":
        report = _solve_pr(load_problem(args.problem), args)
    else:
        report = _solve_two_tuple(load_problem(args.problem), args)
    sys.stdout.write(report)
    return 0


def _cmd_export_fou(args) -> int:
    items: list[tuple[str, IT2Word]] = []
    if args.problem:
        bundle = load_problem(args.problem)
        cb = load_codebook(args.codebook or bundle.codebook_id)
        result = solve_pr_bundle(bundle, cb)
        for alt in bundle.alternatives:
            for obj, out in zip(bundle.objectives, result.outputs[alt.label]):
                items.append((f"{alt.label}:{obj.name}", out.fou))
    elif args.codebook:
        cb = load_codebook(args.codebook)
        items = [(w.name, w) for w in cb.words]
    else:
        raise UsageError("export-fou needs --codebook and/or --problem")

    lines = ["name,curve,x1,mu1,x2,mu2,x3,mu3,x4,mu4"]
    for name, w in items:
        for curve, trap in (("UMF", w.umf), ("LMF", w.lmf)):
            verts = [(trap.a, 0.0), (trap.b, trap.h), (trap.c, trap.h), (trap.d, 0.0)]
            flat = ",".join(f"{x:.4f},{mu:.4f}" for x, mu in verts)
            lines.append(f"{name},{curve},{flat}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_sample(args) -> int:
    if not 1 <= args.n <= MAX_SAMPLE_N:
        raise UsageError(f"--n must be between 1 and {MAX_SAMPLE_N}, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    specs = load_source(args.spec, {"paper-endpoints": lambda: STUDENT_ENDPOINTS}, parse_endpoint_specs,
                        "end-point spec", EndpointSpecError)
    sets = [
        sample_person_fou(spec, n=args.n, seed=args.seed + i) for i, spec in enumerate(specs)
    ]
    _write_out(args.out, format_data_intervals(sets, seed=args.seed))
    return 0


def _write_out(out: str, text: str) -> None:
    """Write to the --out path, or to stdout for "-"; an OSError is a data error."""
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lingopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an engine on a problem bundle")
    solve.add_argument("engine", choices=["pr", "two-tuple", "tsukamoto"])
    solve.add_argument("--problem", required=True, help="problem fixture id or file")
    solve.add_argument("--codebook", default=None, help="codebook fixture id or file")
    solve.add_argument("--grid", type=int, default=DEFAULT_POINTS, help="discretization points")
    solve.add_argument("--step", type=float, default=1e-3, help="tsukamoto grid step")
    solve.add_argument("--format", choices=["table", "csv"], default="table")
    solve.add_argument(
        "--strict-scale",
        action="store_true",
        help="treat 2-tuple outputs that protrude past the term scale as errors",
    )
    solve.set_defaults(fn=_cmd_solve)

    export = sub.add_parser("export-fou", help="write FOU polygon vertices as CSV")
    export.add_argument("--codebook", default=None)
    export.add_argument("--problem", default=None)
    export.add_argument("--out", required=True, help="output path, or - for stdout")
    export.set_defaults(fn=_cmd_export_fou)

    sample = sub.add_parser("sample", help="draw person-FOU data intervals")
    sample.add_argument("--spec", required=True, help="end-point spec file or 'paper-endpoints'")
    sample.add_argument("--n", type=int, default=50)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True, help="output path, or - for stdout")
    sample.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (EngineMismatchError, UsageError, tsk.GridStepError) as e:
        print(f"lingopt: usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (NoRuleFiredError, DegenerateWordError, OutOfScaleError) as e:
        print(f"lingopt: engine error: {e}", file=sys.stderr)
        return ENGINE_ERROR
    except (LingoptError, OSError) as e:
        print(f"lingopt: data error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
