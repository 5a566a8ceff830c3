"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from conftest import alpha_cut, centroid_brute, random_trapezoid, random_word
from lingopt.codebook import load_codebook
from lingopt.fuzzy import DomainError, Interval
from lingopt.problems import case_molop, case_solop, sm_toy, solve_pr_bundle, solve_two_tuple_bundle
from lingopt.reasoning import Rule, fire, lwa, synthesize_consequent
from lingopt.similarity import Discretization, centroid_ekm, jaccard, rank_by_centroid
from lingopt.tsukamoto import crisp_output, fixture, optimize
from lingopt.twotuple import OrdinalTermSet, TwoTuple, to_two_tuple

HMA_TABLE = {
    "VP": ((0.00, 0.00, 2.04, 3.84), (0.00, 0.00, 2.04, 3.04), 1.00, (1.29, 1.52)),
    "P": ((0.00, 0.00, 4.53, 5.92), (0.00, 0.00, 4.53, 5.65), 1.00, (2.56, 2.63)),
    "A": ((1.14, 2.99, 7.03, 8.94), (1.85, 2.99, 7.03, 8.22), 1.00, (4.83, 5.22)),
    "G": ((3.5, 5.46, 10, 10), (4.23, 5.46, 10, 10), 1.00, (7.2, 7.4)),
    "VG": ((6.44, 7.96, 10, 10), (6.82, 7.96, 10, 10), 1.00, (8.56, 8.67)),
}
IA_TABLE = {
    "VP": ((0.00, 0.00, 0.27, 3.91), (0.00, 0.00, 0.18, 2.63), 1.00, (0.88, 1.34)),
    "P": ((0.00, 0.00, 0.94, 7.16), (0.00, 0.00, 0.43, 5.8), 1.00, (1.93, 2.48)),
    "A": ((0.79, 4.6, 5.39, 9.15), (2, 4.99, 4.99, 7.91), 0.88, (4.43, 5.52)),
    "G": ((2.87, 9.06, 10, 10), (4.1, 9.58, 10, 10), 1.00, (7.53, 8.04)),
    "VG": ((6.13, 9.73, 10, 10), (7.34, 9.81, 10, 10), 1.00, (8.67, 9.11)),
}

MST = {
    "SS1": ("VP", "P", "A", "A", "P", "P", "A"),
    "SS2": ("G", "VG", "A", "A", "A", "VG", "A"),
    "SS3": ("G", "G", "G", "P", "A", "P", "A"),
    "SS4": ("P", "A", "G", "A", "G", "A", "A"),
}
EST = {
    "SS1": ("VP", "P", "VP", "P", "A", "A", "A"),
    "SS2": ("G", "G", "G", "A", "A", "VG", "VG"),
    "SS3": ("G", "G", "VG", "A", "A", "P", "P"),
    "SS4": ("A", "A", "G", "P", "P", "P", "A"),
}
STUDENTS = ("SS1", "SS2", "SS3", "SS4")


def report(number: int, title: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance criterion {number:2d} ({title}): {status}")
    for item in failures:
        print(f"    - {item}")
    assert not failures


def test_criterion_01_codebook_fidelity():
    failures = []
    start = time.perf_counter()
    for fixture_id, table in (("paper-hma", HMA_TABLE), ("paper-ia", IA_TABLE)):
        cb = load_codebook(fixture_id)
        for w in cb.words:
            umf, lmf, h, (cl, cr) = table[w.name]
            if w.umf.vertices != umf or w.lmf.vertices != lmf or w.lmf.h != h:
                failures.append(f"{fixture_id}/{w.name}: stored vertices differ from print")
            recomputed = centroid_ekm(w, cb.discretization())
            if abs(recomputed.cl - cl) > 0.05 or abs(recomputed.cr - cr) > 0.05:
                failures.append(
                    f"{fixture_id}/{w.name}: recomputed centroid ({recomputed.cl:.3f}, "
                    f"{recomputed.cr:.3f}) vs printed ({cl}, {cr})"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(1, "codebook fidelity", failures)


def test_criterion_02_solop_consequents():
    failures = []
    targets = {
        "paper-hma": (((3.33, "P"), (6.20, "G"), (5.91, "A"), (5.45, "A"))),
        "paper-ia": (((3.09, "P"), (6.32, "A"), (6.11, "A"), (5.54, "A"))),
    }
    for fixture_id, expected in targets.items():
        cb = load_codebook(fixture_id)
        for student, (mean, word) in zip(STUDENTS, expected):
            synth = synthesize_consequent(MST[student][:5], cb)
            if abs(synth.centroid.mean - mean) > 0.05:
                failures.append(
                    f"{fixture_id}/{student}: mean {synth.centroid.mean:.3f} vs {mean} (tol 0.05)"
                )
            if synth.word != word:
                failures.append(f"{fixture_id}/{student}: decoded {synth.word} vs {word}")
    report(2, "single-objective consequents", failures)


def test_criterion_03_solop_ranking():
    failures = []
    bundle = case_solop()
    for fixture_id in ("paper-hma", "paper-ia"):
        ranking = solve_pr_bundle(bundle, load_codebook(fixture_id)).ranking
        if ranking != ["SS2", "SS3", "SS4", "SS1"]:
            failures.append(f"{fixture_id}: ranking {ranking}")
    report(3, "single-objective ranking", failures)


def test_criterion_04_firing_levels():
    failures = []
    printed = {
        "paper-hma": (0.08, 0.10, 0.38, 0.05),
        "paper-ia": (0.06, 0.06, 0.24, 0.06),
    }
    for fixture_id, expected in printed.items():
        cb = load_codebook(fixture_id)
        for student, target in zip(STUDENTS, expected):
            own = fire(Rule("mst", MST[student], ()), MST[student], cb)
            cross = fire(Rule("est", EST[student], ()), MST[student], cb)
            if abs(own - 1.0) > 1e-9:
                failures.append(f"{fixture_id}/{student}: own-rule firing {own:.4f} != 1")
            if abs(cross - target) > 0.02:
                failures.append(
                    f"{fixture_id}/{student}: cross firing {cross:.4f} vs {target} (tol 0.02)"
                )
    report(4, "firing levels", failures)


def test_criterion_05_molop_outputs():
    failures = []
    mean_targets = {
        "paper-hma": {"SS2": (7.3, None), "SS3": (5.65, 4.35), "SS4": (5.02, 5.02)},
        "paper-ia": {"SS2": (7.79, None), "SS3": (5.52, 4.43), "SS4": (4.97, 4.97)},
    }
    decoded_expected = {"SS1": ("P", "A"), "SS2": ("G", "G"), "SS3": ("A", "A"), "SS4": ("A", "A")}
    bundle = case_molop()
    for fixture_id in ("paper-hma", "paper-ia"):
        cb = load_codebook(fixture_id)
        result = solve_pr_bundle(bundle, cb)
        core, elective = result.outputs["SS1"]
        for out, word in ((core, cb.word("P")), (elective, cb.word("A"))):
            if not (
                np.allclose(out.fou.umf.vertices, word.umf.vertices, atol=1e-9)
                and np.allclose(out.fou.lmf.vertices, word.lmf.vertices, atol=1e-9)
            ):
                failures.append(f"{fixture_id}/SS1: output FOU differs from codebook {word.name}")
        for student, (core_mean, elect_mean) in mean_targets[fixture_id].items():
            got_core, got_elect = result.outputs[student]
            if abs(got_core.centroid.mean - core_mean) > 0.05:
                failures.append(
                    f"{fixture_id}/{student}: core mean {got_core.centroid.mean:.3f} vs {core_mean}"
                )
            if elect_mean is not None and abs(got_elect.centroid.mean - elect_mean) > 0.05:
                failures.append(
                    f"{fixture_id}/{student}: elective mean {got_elect.centroid.mean:.3f} vs {elect_mean}"
                )
        for student, words in decoded_expected.items():
            got = tuple(o.decoded for o in result.outputs[student])
            if got != words:
                failures.append(f"{fixture_id}/{student}: decoded {got} vs {words}")
        if fixture_id == "paper-ia":
            # rows whose printed lower-membership height is 0.88: the output
            # height equals the smallest fired-consequent height
            for student, objective_idx in (("SS1", 1), ("SS4", 0), ("SS4", 1)):
                h = result.outputs[student][objective_idx].fou.lmf.h
                if abs(h - 0.88) > 1e-9:
                    failures.append(f"paper-ia/{student}[{objective_idx}]: height {h} vs 0.88")
    report(5, "multi-objective outputs", failures)


def test_criterion_06_molop_ranking():
    failures = []
    bundle = case_molop()
    for fixture_id in ("paper-hma", "paper-ia"):
        result = solve_pr_bundle(bundle, load_codebook(fixture_id))
        if result.ranking != ["SS2", "SS4", "SS1", "SS3"]:
            failures.append(f"{fixture_id}: ranking {result.ranking}")
        e1 = result.outputs["SS1"][1].centroid.mean
        e4 = result.outputs["SS4"][1].centroid.mean
        if abs(e1 - e4) > 1e-9:
            failures.append(f"{fixture_id}: elective tie not exercised ({e1} vs {e4})")
    report(6, "multi-objective ranking with tiebreak", failures)


def test_criterion_07_two_tuple_solop():
    failures = []
    bundle = case_solop()
    result = solve_two_tuple_bundle(bundle)
    betas = {k: v[0].beta for k, v in result.outputs.items()}
    for student, beta in (("SS1", 2.2), ("SS2", 3.6), ("SS3", 3.4), ("SS4", 3.2)):
        if abs(betas[student] - beta) > 1e-9:
            failures.append(f"{student}: beta {betas[student]} vs {beta}")
    if result.ranking != ["SS2", "SS3", "SS4", "SS1"]:
        failures.append(f"ranking {result.ranking}")
    ss3 = result.outputs["SS3"][0]
    if (bundle.term_set.label(ss3.index), round(ss3.alpha, 10)) != ("A", 0.4):
        failures.append(f"SS3 emitted as ({bundle.term_set.label(ss3.index)}, {ss3.alpha})")
    # the printed (G, -0.6) encodes the same beta but is not a valid 2-tuple
    try:
        TwoTuple(4, -0.6)
        failures.append("(G, -0.6) unexpectedly constructible")
    except DomainError:
        pass
    if abs((4 + -0.6) - ss3.beta) > 1e-9:
        failures.append("printed divergent form does not share the beta")
    report(7, "2-tuple single-objective", failures)


def test_criterion_08_two_tuple_molop():
    failures = []
    bundle = case_molop()
    result = solve_two_tuple_bundle(bundle)
    core, elective = result.outputs["SS1"]
    ts = bundle.term_set
    if (ts.label(core.index), core.alpha) != ("P", 0.0):
        failures.append(f"SS1 core {(ts.label(core.index), core.alpha)} vs (P, 0)")
    if (ts.label(elective.index), elective.alpha) != ("A", 0.0):
        failures.append(f"SS1 elective {(ts.label(elective.index), elective.alpha)} vs (A, 0)")

    toy = sm_toy()
    f1, f2 = solve_two_tuple_bundle(toy).outputs["system"]
    tts = toy.term_set
    if (tts.label(f1.index), round(f1.alpha, 2)) != ("B", -0.33):
        failures.append(f"toy f1 {(tts.label(f1.index), f1.alpha)} vs (B, -0.33)")
    if (tts.label(f2.index), round(f2.alpha, 2)) != ("S", 0.33):
        failures.append(f"toy f2 {(tts.label(f2.index), f2.alpha)} vs (S, 0.33)")

    # published comparison-table values, elective first with core tiebreak
    table = {
        "SS1": (TwoTuple(2, 0.0), TwoTuple(3, 0.0)),
        "SS2": (TwoTuple(4, 0.0), TwoTuple(4, 0.33)),
        "SS3": (TwoTuple(3, 0.0), TwoTuple(3, 0.33)),
        "SS4": (TwoTuple(3, 0.0), TwoTuple(3, 0.0)),
    }
    ranking = rank_by_centroid(
        [(label, (row[1].beta, row[0].beta)) for label, row in table.items()], ["max", "max"]
    )
    if ranking != ["SS2", "SS3", "SS4", "SS1"]:
        failures.append(f"fixture-table ranking {ranking}")
    report(8, "2-tuple multi-objective", failures)


def test_criterion_09_tsukamoto():
    failures = []
    rules, constraint, directions = fixture("sm-solop")
    result = optimize(rules, constraint, directions)
    points = np.array(result.points)
    if not (np.min(np.abs(points[:, 0] - 0.25)) <= 1e-3 and abs(result.values[0][0] - 3 / 8) <= 1e-3):
        failures.append(f"single-objective optimum {result.points} -> {result.values}")

    rules, constraint, directions = fixture("sm-molop")
    result = optimize(rules, constraint, directions)
    pts = {tuple(round(v, 6) for v in p) for p in result.points}
    if not ((0.5, 0.25) in pts and (0.25, 0.5) in pts):
        failures.append(f"max-min optima {pts}")
    for values in result.values:
        if any(abs(v - 0.5) > 1e-3 for v in values):
            failures.append(f"optimum values {values}")

    rules, _, _ = fixture("sm-solop")
    worst = 0.0
    for y1 in np.linspace(0, 1, 101):
        if y1 == 1.0:
            continue  # zero total firing: the crisp form is undefined there
        for y2 in np.linspace(0, 1, 101):
            (f,) = crisp_output(rules, (y1, y2))
            worst = max(worst, abs(f - (y1 + y2 - 2 * y1 * y2)))
    if worst > 1e-12:
        failures.append(f"closed-form deviation {worst}")
    report(9, "tsukamoto baseline", failures)


def test_criterion_10_property_suites():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    grid = Discretization(1001, Interval(0.0, 10.0))

    for _ in range(1000):
        t = random_trapezoid(rng)
        a1, a2 = np.sort(rng.uniform(0.0, t.h, 2))
        outer, inner = alpha_cut(t, a1), alpha_cut(t, a2)
        if outer.lo > inner.lo + 1e-12 or inner.hi > outer.hi + 1e-12:
            failures.append(f"alpha-cut nesting broken for {t}")
            break

    for _ in range(500):
        a, b = random_word(rng), random_word(rng)
        s = jaccard(a, b, grid)
        if not (0.0 <= s <= 1.0):
            failures.append(f"jaccard out of bounds: {s}")
            break
        if abs(s - jaccard(b, a, grid)) > 1e-12 or abs(jaccard(a, a, grid) - 1.0) > 1e-12:
            failures.append("jaccard symmetry or reflexivity broken")
            break

    for _ in range(500):
        n = int(rng.integers(1, 5))
        words = [random_word(rng) for _ in range(n)]
        firings = list(rng.uniform(0.05, 1.0, n))
        same = lwa([words[0]] * n, firings)
        if not (
            np.allclose(same.umf.vertices, words[0].umf.vertices, atol=1e-9)
            and np.allclose(same.lmf.vertices, words[0].lmf.vertices, atol=1e-9)
        ):
            failures.append("lwa idempotence broken")
            break
        mixed = lwa(words, firings)
        if mixed.umf.a < -1e-9 or mixed.umf.d > 10.0 + 1e-9:
            failures.append("lwa output escapes the scale")
            break

    d201 = Discretization(201, Interval(0.0, 10.0))
    for _ in range(200):
        w = random_word(rng)
        e, b = centroid_ekm(w, d201), centroid_brute(w, d201)
        if abs(e.cl - b.cl) > 1e-9 or abs(e.cr - b.cr) > 1e-9:
            failures.append(f"ekm/brute disagree: ({e.cl}, {e.cr}) vs ({b.cl}, {b.cr})")
            break

    ts = OrdinalTermSet(("s1", "s2", "s3", "s4", "s5"))
    for beta in np.linspace(0.5, 5.4999, 10_000):
        t = to_two_tuple(float(beta), ts)
        if abs(t.beta - beta) > 1e-12 or not (-0.5 <= t.alpha < 0.5):
            failures.append(f"2-tuple round trip broken at beta={beta}")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"property suites took {elapsed:.1f}s (budget 60s)")
    report(10, "property suites", failures)
