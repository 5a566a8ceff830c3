"""The three workloads: their queries, output checks and accuracy reference.

``case-study``  the 11 README invocations through ``cli.main``, stdout captured.
                The only workload reaching ``cli``, ``twotuple``, ``tsukamoto``,
                ``export-fou`` and ``sample``; every invocation reloads and
                revalidates its codebook, so cost moved into loading shows here.
``pr-scale``    one of 16 alternatives of a seeded bundle per query: V = 25
                words, 100 rules, 5 slots, 2 objectives with explicit consequents,
                N = 1001 through the library solver's defaults.  Rule firing
                dominates, with 2 LWA and 2 decode calls per query.
``synth-fine``  one alternative per query with 2-4 rules, ``auto`` consequents
                on per-objective slot subsets, N = 10001, V = 25.  Every query
                builds fresh FOUs (synthesis, LWA, centroid, decoding against
                25 words); firing is a small share and no codebook word is
                reused as an output.

Outputs are checked outside the timed region.  The accuracy reference re-runs
outputs at N = 100001, outside the timed loop and outside set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import synth

REF_POINTS = 100001
PANEL_SEED = 0
NUM_TOL = 0.05  # the golden-report tolerance of the repository's CLI tests
# ROADMAP accuracy figures at N = 1001 (printed to two digits, so each bound
# is the figure plus half a unit in its last digit)
MAX_JACCARD_ERR = 7.15e-4
MAX_WORD_CENTROID_ERR = 3.35e-3
MAX_OUTPUT_MEAN_ERR = 3.15e-3


def _lingopt():
    from lingopt import cli, codebook, problems, similarity

    return cli, codebook, problems, similarity


def _centroid_fn(similarity):
    for name in ("centroid_ekm", "centroid_brute"):
        if hasattr(similarity, name):
            return getattr(similarity, name)
    raise RuntimeError("lingopt.similarity has no word centroid routine")


def word_errors(codebooks) -> tuple[float, float]:
    """Largest Jaccard and centroid-endpoint errors over codebook words,
    default grid against N = 100001."""
    _, _, _, similarity = _lingopt()
    centroid = _centroid_fn(similarity)
    jac = cen = 0.0
    for cb in codebooks:
        d0, d1 = cb.discretization(), cb.discretization(REF_POINTS)
        for i, a in enumerate(cb.words):
            for b in cb.words[i:]:
                jac = max(jac, abs(similarity.jaccard(a, b, d0) - similarity.jaccard(a, b, d1)))
            c0, c1 = centroid(a, d0), centroid(a, d1)
            cen = max(cen, abs(c0.cl - c1.cl), abs(c0.cr - c1.cr))
    return jac, cen


@dataclass
class Reference:
    centroid_err_max: float
    agree: int
    compared: int
    errors: list


def _agreement(words, ranking, ref, labels) -> tuple[int, int]:
    """Matching decoded words and ranking positions against a reference result."""
    ref_words = [o.decoded for label in labels for o in ref.outputs[label]]
    ref_rank = [label for label in ref.ranking if label in labels]
    hits = sum(a == b for a, b in zip(words, ref_words)) + sum(a == b for a, b in zip(ranking, ref_rank))
    return hits, len(ref_words) + len(ref_rank)


def compare_report(expected: str, actual: str) -> str | None:
    """Token comparison of tests/conftest.py::assert_report_matches."""
    exp_lines, act_lines = expected.strip().splitlines(), actual.strip().splitlines()
    if len(exp_lines) != len(act_lines):
        return f"line count {len(act_lines)}, golden has {len(exp_lines)}"
    for ln, (el, al) in enumerate(zip(exp_lines, act_lines), 1):
        etoks, atoks = el.split(), al.split()
        if len(etoks) != len(atoks):
            return f"line {ln}: {al!r} vs golden {el!r}"
        for et, at in zip(etoks, atoks):
            try:
                ev, av = float(et), float(at)
            except ValueError:
                if et != at:
                    return f"line {ln}: {at!r} vs golden {et!r}"
            else:
                if abs(ev - av) > NUM_TOL:
                    return f"line {ln}: {av} vs golden {ev}"
    return None


def _pr_rows(report: str) -> tuple[list[list[str]], list[str]]:
    """Table rows and ranking of a ``solve pr`` or golden report."""
    lines = report.strip().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("alternative")) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    ranking = lines[-1].split("=", 1)[1].split(">")
    return rows, [r.strip() for r in ranking]


# ---------------------------------------------------------------------------
# case-study

PR_CASES = [
    ("solve_pr_case_solop_hma", "case-solop", "paper-hma"),
    ("solve_pr_case_molop_hma", "case-molop", "paper-hma"),
    ("solve_pr_case_solop_ia", "case-solop", "paper-ia"),
    ("solve_pr_case_molop_ia", "case-molop", "paper-ia"),
]
# (name, argv); a golden call's name is its file under tests/golden/
GOLDEN_CALLS = [
    *[(g, ["solve", "pr", "--problem", p, "--codebook", c]) for g, p, c in PR_CASES],
    ("solve_two_tuple_case_solop", ["solve", "two-tuple", "--problem", "case-solop"]),
    ("solve_two_tuple_case_molop", ["solve", "two-tuple", "--problem", "case-molop"]),
    ("solve_two_tuple_sm_toy", ["solve", "two-tuple", "--problem", "sm-toy"]),
    ("solve_tsukamoto_sm_solop", ["solve", "tsukamoto", "--problem", "sm-solop"]),
    ("solve_tsukamoto_sm_molop", ["solve", "tsukamoto", "--problem", "sm-molop"]),
]
INVOCATIONS = GOLDEN_CALLS + [
    ("export_fou", ["export-fou", "--codebook", "paper-hma", "--problem", "case-molop", "--out", "-"]),
    ("sample", ["sample", "--spec", "paper-endpoints", "--n", "50", "--seed", "7", "--out", "-"]),
]
# paper-endpoints: word, left interval, right interval (README, "End-point specs")
ENDPOINTS = [("VP", (0.0, 0.0), (2.0, 3.0)), ("P", (0.0, 0.5), (4.5, 5.5)),
             ("A", (2.0, 3.0), (7.0, 8.0)), ("G", (4.5, 5.5), (9.5, 10.0)),
             ("VG", (7.0, 8.0), (10.0, 10.0))]


class CaseStudy:
    def __init__(self, seed: int, root: Path):
        golden = root / "tests" / "golden"
        self.golden = {g: (golden / f"{g}.txt").read_text() for g, _ in GOLDEN_CALLS}
        order = np.random.default_rng(seed).permutation(len(INVOCATIONS))
        self.queries = [INVOCATIONS[i] for i in order]
        self.inputs: dict = {}
        self.digests: dict[str, str] = {}  # invocation -> sha256 of its checked report
        self.reports: dict[str, str] = {}

    def prepare(self, state: dict) -> None:
        self.state = state
        self.cli = _lingopt()[0]

    def run(self, query):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(query[1]))
        return code, out.getvalue(), err.getvalue()

    def check(self, query, result) -> str | None:
        name = query[0]
        code, out, err = result
        if code != 0 or err:
            return f"{name}: exit {code}, stderr {err.strip()!r}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if name in self.digests:
            return None if digest == self.digests[name] else f"{name}: report differs from its first run"
        problem = self._content_error(name, out)
        if problem is None:
            self.digests[name], self.reports[name] = digest, out
        return problem and f"{name}: {problem}"

    def _content_error(self, name: str, out: str) -> str | None:
        if name in self.golden:
            return compare_report(self.golden[name], out)
        if name == "export_fou":
            return self._export_error(out)
        return self._sample_error(out)

    def _export_error(self, out: str) -> str | None:
        """Vertices must match the golden case-molop/paper-hma report."""
        rows, _ = _pr_rows(self.golden["solve_pr_case_molop_hma"])
        lines = out.strip().splitlines()
        if lines[0] != "name,curve,x1,mu1,x2,mu2,x3,mu3,x4,mu4" or len(lines) != 1 + 2 * len(rows):
            return "unexpected export-fou layout"
        for row, umf, lmf in zip(rows, lines[1::2], lines[2::2]):
            expected = [f"{row[0]}:{row[1]}", "UMF", *row[2:6], f"{row[0]}:{row[1]}", "LMF", *row[6:11]]
            u, l = umf.split(","), lmf.split(",")
            got = [u[0], u[1], *u[2:10:2], l[0], l[1], *l[2:10:2], l[5]]
            for e, g in zip(expected, got):
                if e != g and not (_is_float(e) and abs(float(e) - float(g)) <= NUM_TOL):
                    return f"export-fou field {g!r} vs golden {e!r}"
        return None

    @staticmethod
    def _sample_error(out: str) -> str | None:
        blocks = out.strip().split("\n\n")
        if blocks[0].splitlines() != ["data-intervals v1", "generator = pcg64", "seed = 7"]:
            return "unexpected sample header"
        if len(blocks) != 1 + len(ENDPOINTS):
            return "sample has the wrong number of words"
        for i, (block, (word, left, right)) in enumerate(zip(blocks[1:], ENDPOINTS)):
            lines = block.splitlines()
            if lines[:2] != [f"word {word}", f"seed = {7 + i}"] or len(lines) != 2 + 50:
                return f"sample block for {word} is malformed"
            for line in lines[2:]:
                lo, hi = (float(v) for v in line.split("=")[1].split())
                if not (left[0] <= lo <= left[1] and right[0] <= hi <= right[1] and lo <= hi):
                    return f"sample pair {lo} {hi} outside the {word} end-point intervals"
        return None

    def finish(self) -> list[str]:
        return [f"{name}: no checked report" for name, _ in INVOCATIONS if name not in self.digests]

    def reference(self) -> Reference:
        _, _, problems, _ = _lingopt()
        errors, err_max, agree, compared = [], 0.0, 0, 0
        for golden, problem, cb_id in PR_CASES:
            bundle, cb = self.state["bundles"][problem], self.state["codebooks"][cb_id]
            res = problems.solve_pr_bundle(bundle, cb)
            ref = problems.solve_pr_bundle(bundle, cb, cb.discretization(REF_POINTS))
            labels = [a.label for a in bundle.alternatives]
            for label in labels:
                for o, r in zip(res.outputs[label], ref.outputs[label]):
                    err_max = max(err_max, abs(o.centroid.mean - r.centroid.mean))
            rows, ranking = _pr_rows(self.reports[golden])
            hits, n = _agreement([row[-1] for row in rows], ranking, ref, labels)
            agree, compared = agree + hits, compared + n
            if hits != n or res.ranking != ref.ranking:
                errors.append(f"{golden}: answers change between N=1001 and N={REF_POINTS}")
        if err_max > MAX_OUTPUT_MEAN_ERR:
            errors.append(f"output centroid-mean error {err_max:.3g} > {MAX_OUTPUT_MEAN_ERR}")
        jac, cen = word_errors(self.state["codebooks"].values())
        if jac > MAX_JACCARD_ERR or cen > MAX_WORD_CENTROID_ERR:
            errors.append(f"word errors at N=1001: Jaccard {jac:.3g}, centroid {cen:.3g}")
        return Reference(err_max, agree, compared, errors)

    def codebooks(self):
        return list(self.state["codebooks"].values())


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# pr-scale and synth-fine


@dataclass(frozen=True)
class Query:
    label: str
    bundle: object  # the bundle cut down to this one alternative


class Synthetic:
    """One alternative of a seeded bundle per query.

    The accuracy reference runs on a fixed panel: the first alternatives of
    the bundle generated from ``PANEL_SEED`` with the same shape.  Output
    errors at a given grid vary by a factor of 20 from one random vocabulary
    to the next, so a panel drawn from ``--seed`` would measure the data, not
    the program.  The queries' own outputs are checked by invariants and
    against a whole-bundle solve.
    """

    def __init__(self, name: str, shape: synth.Shape, points: int | None, panel_alts: int, seed: int):
        self.points, self.panel_alts = points, panel_alts
        codebook_text, problem_text = synth.generate(shape, seed, name)
        self.inputs = {"codebook": codebook_text, "problem": problem_text}
        self.panel_inputs = synth.generate(shape, PANEL_SEED, name)
        self.order = np.random.default_rng([seed, 1]).permutation(shape.alternatives)
        self.latest: dict[str, list] = {}

    def _grid(self, cb) -> tuple:
        return () if self.points is None else (cb.discretization(self.points),)

    def prepare(self, state: dict) -> None:
        self.cb, self.bundle = state["codebook"], state["bundle"]
        self.args = self._grid(self.cb)
        self.problems = _lingopt()[2]
        alts = self.bundle.alternatives
        self.queries = [Query(alts[i].label, replace(self.bundle, alternatives=(alts[i],))) for i in self.order]

    def run(self, query: Query):
        return self.problems.solve_pr_bundle(query.bundle, self.cb, *self.args)

    def check(self, query: Query, result) -> str | None:
        if result.ranking != [query.label]:
            return f"{query.label}: ranking {result.ranking}"
        outputs = result.outputs[query.label]
        if len(outputs) != len(self.bundle.objectives):
            return f"{query.label}: {len(outputs)} outputs"
        for o in outputs:
            if o.decoded not in self.cb.names:
                return f"{query.label}: decoded {o.decoded!r} is not a codebook word"
            if not o.centroid.cl <= o.centroid.cr + 1e-9:
                return f"{query.label}: centroid [{o.centroid.cl}, {o.centroid.cr}]"
            try:
                o.fou.validate()
            except ValueError as e:
                return f"{query.label}: output FOU invalid: {e}"
        self.latest[query.label] = outputs
        return None

    def finish(self) -> list[str]:
        """Solve the whole bundle once: its ranking must be a permutation of the
        alternatives, and its outputs those the queries returned."""
        full = self.problems.solve_pr_bundle(self.bundle, self.cb, *self.args)
        labels = [a.label for a in self.bundle.alternatives]
        errors = [] if sorted(full.ranking) == sorted(labels) else [f"ranking {full.ranking}"]
        for label in labels:
            got = [(o.centroid.cl, o.centroid.cr, o.decoded) for o in self.latest.get(label, [])]
            if got != [(o.centroid.cl, o.centroid.cr, o.decoded) for o in full.outputs[label]]:
                errors.append(f"{label}: query output differs from the whole-bundle solve")
        return errors

    def reference(self) -> Reference:
        _, codebook, problems, _ = _lingopt()
        self.panel_cb = cb = codebook.parse_codebook(self.panel_inputs[0])
        bundle = problems.parse_problem(self.panel_inputs[1])
        bundle = replace(bundle, alternatives=bundle.alternatives[: self.panel_alts])
        labels = [a.label for a in bundle.alternatives]
        res = problems.solve_pr_bundle(bundle, cb, *self._grid(cb))
        ref = problems.solve_pr_bundle(bundle, cb, cb.discretization(REF_POINTS))
        err_max = max(abs(o.centroid.mean - r.centroid.mean)
                      for label in labels for o, r in zip(res.outputs[label], ref.outputs[label]))
        words = [o.decoded for label in labels for o in res.outputs[label]]
        hits, n = _agreement(words, res.ranking, ref, labels)
        return Reference(err_max, hits, n, [])

    def codebooks(self):
        return [self.panel_cb]


def make(name: str, seed: int, root: Path):
    if name == "case-study":
        return CaseStudy(seed, root)
    if name == "pr-scale":
        return Synthetic(name, synth.Shape(25, 16, (100,), auto=False), None, 2, seed)
    if name == "synth-fine":
        return Synthetic(name, synth.Shape(25, 9, (2, 3, 4), auto=True), 10001, 9, seed)
    raise KeyError(name)


WORKLOADS = ("case-study", "pr-scale", "synth-fine")
