"""Randomized invariant suites: alpha-cut nesting, Jaccard axioms, LWA
behaviour, centroid oracle agreement, 2-tuple round trips and text-format
round trips."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FouShape,
    alpha_cut,
    assert_alpha_cuts_are_weighted_averages,
    centroid_brute,
    classify_fou,
    decode,
    decode_oracle,
    exact_centroid,
    exact_jaccard,
    format_codebook,
    format_problem,
    jaccard_oracle,
    lwa_oracle,
    random_trapezoid,
    random_word,
    solve_oracle,
    translate,
    tsukamoto_oracle,
)
from lingopt.codebook import CENTROID_CACHE_TOL, Codebook, CodebookError, load_codebook, parse_codebook
from lingopt.fuzzy import DomainError, Interval, IT2Word, LingoptError, Trapezoid
from lingopt.problems import Alternative, ProblemBundle, parse_problem
from lingopt.reasoning import (
    AUTO,
    AUTO_WORD,
    Objective,
    Rule,
    RuleBase,
    fire,
    fire_rules,
    lwa,
    solve_molop,
)
from lingopt.similarity import (
    DegenerateWordError,
    Discretization,
    _ekm_endpoint,
    centroid_ekm,
    centroid_ekm_from_samples,
    jaccard,
    jaccard_rows,
    rank_by_centroid,
    sample_word,
)
from lingopt.tsukamoto import (
    EqualityConstraint,
    DECREASING,
    INCREASING,
    MonotoneMf,
    NoRuleFiredError,
    TIE_TOL,
    TsukamotoRule,
    _feasible_grid,
    optimize,
)
from lingopt.twotuple import OrdinalTermSet, to_two_tuple

GRID = Discretization(1001, Interval(0.0, 10.0))


class TestAlphaCutNesting:
    def test_random_trapezoids(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            t = random_trapezoid(rng)
            a1, a2 = np.sort(rng.uniform(0.0, t.h, 2))
            outer, inner = alpha_cut(t, a1), alpha_cut(t, a2)
            assert outer.lo <= inner.lo + 1e-12
            assert inner.hi <= outer.hi + 1e-12

    @given(
        st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.floats(0, 10),
        st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    )
    # b == c: the core cut d - (d - c) used to round one ulp below b
    @example(0.0, 0.11379094555050466, 0.11379094555050466, 1.0, 1.0, 0.0, 1.0)
    def test_nesting_hypothesis(self, a, b, c, d, h, f1, f2):
        v = sorted((a, b, c, d))
        t = Trapezoid(*v, h=h)
        lo, hi = sorted((f1 * h, f2 * h))
        outer, inner = alpha_cut(t, lo), alpha_cut(t, hi)
        assert outer.lo <= inner.lo + 1e-9
        assert inner.hi <= outer.hi + 1e-9


class TestMembershipCutDuality:
    @given(
        st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.floats(0, 10),
        st.floats(0.05, 1.0), st.floats(0, 10), st.floats(0.001, 1.0),
    )
    def test_cut_contains_x_iff_membership_reaches_alpha(self, a, b, c, d, h, x, frac):
        a, b, c, d = sorted((a, b, c, d))
        # collapse nearly vertical edges to exactly vertical ones: slopes
        # beyond 1e3 turn float rounding into misclassification
        if b - a < 1e-3:
            b = a
        if d - c < 1e-3:
            c = d
        t = Trapezoid(a, b, c, d, h=h)
        alpha = frac * h
        cut = alpha_cut(t, alpha)
        if cut.lo + 1e-9 <= x <= cut.hi - 1e-9:
            assert t.membership(x) >= alpha - 1e-6
        elif x < cut.lo - 1e-9 or x > cut.hi + 1e-9:
            assert t.membership(x) <= alpha + 1e-6


class TestWordContainment:
    def test_fixture_words_pointwise(self, hma, ia):
        xs = np.linspace(0.0, 10.0, 1001)
        for cb in (hma, ia):
            for w in cb.words:
                lower = w.lmf.membership_grid(xs)
                upper = w.umf.membership_grid(xs)
                assert np.all(lower <= upper + 1e-12)

    def test_shoulder_cut_degeneracy(self, hma):
        # left-shoulder words are flat against the scale minimum at every level
        for name in ("VP", "P"):
            w = hma.word(name)
            assert classify_fou(w, hma.scale) is FouShape.LEFT_SHOULDER
            for alpha in np.linspace(0, 1, 21):
                assert alpha_cut(w.umf, alpha).lo == 0.0
                assert alpha_cut(w.lmf, alpha).lo == 0.0
        for name in ("G", "VG"):
            w = hma.word(name)
            for alpha in np.linspace(0, 1, 21):
                assert alpha_cut(w.umf, alpha).hi == 10.0
                assert alpha_cut(w.lmf, alpha).hi == 10.0


class TestJaccardAxioms:
    def test_reflexive_symmetric_bounded_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, b = random_word(rng), random_word(rng)
            s_ab = jaccard(a, b, GRID)
            s_ba = jaccard(b, a, GRID)
            assert 0.0 <= s_ab <= 1.0
            assert s_ab == pytest.approx(s_ba, abs=1e-12)
            assert jaccard(a, a, GRID) == pytest.approx(1.0)


@st.composite
def oracle_words(draw, name: str) -> IT2Word:
    """A random valid word, optionally with vertical edges, vertices on grid
    points, or flush against a scale end."""
    w = random_word(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    umf, lmf = w.umf, w.lmf
    if draw(st.booleans()):  # vertical left edges, the LMF's at the UMF's foot
        umf, lmf = replace(umf, b=umf.a), replace(lmf, a=umf.a, b=umf.a)
    if draw(st.booleans()):  # vertical right edges
        umf, lmf = replace(umf, c=umf.d), replace(lmf, c=umf.d, d=umf.d)
    if draw(st.booleans()):  # vertices on the points of a 0.05-spaced grid
        umf, lmf = (Trapezoid(*(round(v * 20) / 20 for v in t.vertices), h=t.h) for t in (umf, lmf))
    shift = draw(st.sampled_from(["none", "left", "right"]))  # touch a scale end
    if shift != "none":
        offset = -umf.a if shift == "left" else 10.0 - umf.d
        umf, lmf = translate(umf, offset), translate(lmf, offset)
    w = IT2Word(name, umf, lmf)
    try:
        w.validate()
    except DomainError:
        assume(False)
    return w


@st.composite
def oracle_codebooks(draw) -> Codebook:
    n = draw(st.integers(2, 5))
    return Codebook(Interval(0.0, 10.0), tuple(draw(oracle_words(f"W{i}")) for i in range(n)))


def oracle_decode(fou: IT2Word, cb: Codebook, d) -> str:
    """Highest oracle similarity; within 1e-12 of the best so far is a tie,
    and a tie goes to the later word."""
    best, best_sim = None, -1.0
    for w in cb.words:
        sim = jaccard_oracle(fou, w, d)
        if best is None or sim > best_sim + 1e-12:
            best, best_sim = w.name, sim
        elif sim >= best_sim - 1e-12:
            best = w.name
    return best


def assert_fire_and_decode_match_oracle(cb: Codebook, d, rules, inputs, firings):
    """``fire_rules`` on ``cb.sampled(d)``, public ``fire`` and the decode of
    an LWA output and of every word agree with the oracle on ``d``."""
    for rule, level in zip(rules, fire_rules(rules, inputs, cb.sampled(d))):
        expected = min(jaccard_oracle(cb.word(x), cb.word(a), d) for x, a in zip(inputs, rule.antecedents))
        assert level == pytest.approx(expected, abs=1e-12)
        assert fire(rule, inputs, cb, d) == pytest.approx(expected, abs=1e-12)
    fou = lwa(cb.words, firings)
    assert decode(fou, cb, d) == oracle_decode(fou, cb, d)
    for w in cb.words:
        assert decode(w, cb, d) == oracle_decode(w, cb, d)


class TestJaccardOracle:
    @settings(max_examples=100, deadline=None)
    @given(oracle_codebooks(), st.sampled_from([101, 201, 501]), st.data())
    def test_sampled_codebook_matches_oracle(self, cb, points, data):
        d = Discretization(points, cb.scale)
        names = cb.names
        for x in names:
            for a in names:
                sim = jaccard_oracle(cb.word(x), cb.word(a), d)
                assert jaccard(cb.word(x), cb.word(a), d) == pytest.approx(sim, abs=1e-12)
        slots = data.draw(st.integers(1, 4))
        word_tuples = st.lists(st.sampled_from(names), min_size=slots, max_size=slots).map(tuple)
        inputs = data.draw(word_tuples)
        antecedents = data.draw(st.lists(word_tuples, min_size=1, max_size=6))
        rules = [Rule(f"r{i}", ants, ()) for i, ants in enumerate(antecedents)]
        firings = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(names), max_size=len(names)))
        assert_fire_and_decode_match_oracle(cb, d, rules, inputs, firings)

        # the same codebook object on a second grid: its kept sampling must not serve it
        other = Discretization(data.draw(st.sampled_from([p for p in (101, 201, 501) if p != points])), cb.scale)
        assert_fire_and_decode_match_oracle(cb, other, rules, inputs, firings)
        # a copy with one word moved, on the first grid again
        i = data.draw(st.integers(0, len(names) - 1))
        w = cb.words[i]
        room_left, room_right = w.umf.a - cb.scale.lo, cb.scale.hi - w.umf.d
        offset = room_right / 2 if room_right > room_left else -room_left / 2
        moved = IT2Word(w.name, translate(w.umf, offset), translate(w.lmf, offset))
        words = cb.words[:i] + (moved,) + cb.words[i + 1:]
        assert_fire_and_decode_match_oracle(replace(cb, words=words), d, rules, inputs, firings)


class TestDenseDecode:
    """A decode scores the output against the sampled codebook's dense rows
    in one array operation; the oracle compares it word by word."""

    @settings(max_examples=100, deadline=None)
    @given(oracle_codebooks(), st.sampled_from([101, 201, 1001]), st.data())
    def test_dense_decode_matches_word_loop(self, cb, points, data):
        d = Discretization(points, cb.scale)
        scb = cb.sampled(d)
        firings = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(cb.words), max_size=len(cb.words)))
        assume(any(firings))
        for fou in (lwa(cb.words, firings), data.draw(oracle_words("out")), *cb.words):
            s = sample_word(fou, d)
            word, scores = decode_oracle(s, cb, d)
            assert decode(fou, cb, d) == word
            np.testing.assert_allclose(scb.scores(s), scores, rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([11, 101, 1001]), st.sampled_from(["none", "one", "every", "empty", "random"]))
    def test_banded_scores_equal_the_full_rows(self, data, points, kind):
        # the words lie in [0, 4] but for one loner in [6, 10], in a drawn
        # order; the output meets no word, only the loner, every word (a UMF
        # over the whole scale) or no grid point at all, or is any word
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = data.draw(st.integers(1, 6))
        loner = data.draw(st.integers(0, v - 1))
        regions = [(6.0, 10.0) if i == loner else (0.0, 4.0) for i in range(v)]
        cb = Codebook(Interval(0.0, 10.0), tuple(replace(random_word(rng, *r), name=f"W{i}") for i, r in enumerate(regions)))
        d = Discretization(points, cb.scale)
        step = 10.0 / (points - 1)
        x = int(rng.integers(points - 1)) * step  # an empty output lies between x and x + step
        out = {
            "none": lambda: random_word(rng, 4.2, 5.8),
            "one": lambda: random_word(rng, 6.0, 10.0),
            "every": lambda: IT2Word("out", Trapezoid(0.0, 0.0, 10.0, 10.0), random_word(rng).lmf),
            "empty": lambda: random_word(rng, x + step / 4, x + 3 * step / 4),
            "random": lambda: random_word(rng),
        }[kind]()
        scb, s = cb.sampled(d), sample_word(out, d)
        scores = scb.scores(s)
        assert scores.tobytes() == jaccard_rows(scb.upper, scb.lower, scb.mass, s).tobytes()
        if kind in ("none", "empty"):
            assert not scores.any() and (s.xs.size == 0 or kind == "none")
        if kind == "one":
            assert not np.delete(scores, loner).any()


FIXTURE_PAIRS = [(a, b) for cb in map(load_codebook, ("paper-hma", "paper-ia")) for a in cb.words for b in cb.words]


def with_fixture_pairs(test):
    """``test`` with every fixture word pair at every grid size as an explicit example."""
    for a, b in FIXTURE_PAIRS:
        for points in (101, 1001, 10001):
            test = example(a, b, points)(test)
    return test


FIXTURE_WORDS = [w for cb in map(load_codebook, ("paper-hma", "paper-ia")) for w in cb.words]


def with_fixture_words(test):
    """``test`` with every fixture word at every grid size as an explicit example."""
    for w in FIXTURE_WORDS:
        for points in (101, 1001, 10001):
            test = example(w, points)(test)
    return test


class TestExactJaccard:
    def test_oracle_on_a_hand_computed_pair(self):
        # two unit triangles cross at (1.5, 0.5): min has area 1/4 and max 7/4
        # under each curve, UMF and LMF alike
        left = IT2Word("L", Trapezoid(0.0, 1.0, 1.0, 2.0), Trapezoid(0.0, 1.0, 1.0, 2.0))
        right = IT2Word("R", Trapezoid(1.0, 2.0, 2.0, 3.0), Trapezoid(1.0, 2.0, 2.0, 3.0))
        assert exact_jaccard(left, right) == pytest.approx(1 / 7, abs=1e-15)
        assert exact_jaccard(left, left) == 1.0

    @settings(max_examples=200, deadline=None)
    @with_fixture_pairs
    @given(
        st.integers(0, 2**32 - 1).map(lambda seed: random_word(np.random.default_rng(seed))),
        st.integers(0, 2**32 - 1).map(lambda seed: random_word(np.random.default_rng(seed))),
        st.sampled_from([101, 1001, 10001]),
    )
    def test_grid_jaccard_is_within_two_spacings_of_exact(self, a, b, points):
        # the grid error is first order: vertical shoulder edges make each sum
        # a one-sided Riemann sum near the edge
        d = Discretization(points, Interval(0.0, 10.0))
        assert abs(jaccard(a, b, d) - exact_jaccard(a, b)) <= 2 / points

    @settings(max_examples=200, deadline=None)
    @given(oracle_words("a"), oracle_words("b"), st.sampled_from([101, 1001, 10001]))
    def test_grid_jaccard_with_vertical_edges_is_near_exact(self, a, b, points):
        # A vertical edge inside a grid cell, or flush against a scale end,
        # moves a sum by up to a spacing times its height, so the error is
        # first order over the denominator, which is at least either word's
        # area.  Over 20000 pairs at N = 101 and 1001, error * N reached 7.7,
        # for two narrow words against the top of the scale, but error * N *
        # area was at most 28.4.  60 leaves a margin of 2.1, and is about the
        # first-order ceiling for step words: six unit jumps across the four
        # sums, each moving a sum by up to a spacing.
        d = Discretization(points, Interval(0.0, 10.0))
        area = max(sum(t.h * (t.d - t.a + t.c - t.b) / 2.0 for t in (w.umf, w.lmf)) for w in (a, b))
        assert abs(jaccard(a, b, d) - exact_jaccard(a, b)) <= 60.0 / (points * area)


@st.composite
def spread_codebooks(draw) -> Codebook:
    """2-6 words, each drawn inside a window of its own, so that some word
    pairs do not overlap and rules built from them fire at zero."""
    words = []
    for i in range(draw(st.integers(2, 6))):
        width = draw(st.floats(0.5, 10.0))
        lo = draw(st.floats(0.0, 10.0 - width))
        w = replace(random_word(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), lo, lo + width), name=f"W{i}")
        words.append(replace(w, centroid=centroid_ekm(w, Discretization())))
    return Codebook(Interval(0.0, 10.0), tuple(words))


@st.composite
def rule_bases(draw, names) -> RuleBase:
    """1-40 rules over ``names`` with 1-4 slots and 1-3 objectives; each
    consequent is a word, ``auto`` or ``auto-word``."""
    n, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    slots = st.none() | st.lists(st.integers(1, n), min_size=1, max_size=n).map(tuple)
    objectives = tuple(Objective(f"o{k}", "max", draw(slots)) for k in range(q))
    word = st.sampled_from(names)
    consequent = word | st.sampled_from([AUTO, AUTO_WORD])
    rules = tuple(
        Rule(f"r{i}", tuple(draw(st.lists(word, min_size=n, max_size=n))),
             tuple(draw(st.lists(consequent, min_size=q, max_size=q))))
        for i in range(draw(st.integers(1, 40)))
    )
    return RuleBase(rules, objectives)


def _hexes(w: IT2Word) -> list[str]:
    return [float(v).hex() for v in (*w.umf.vertices, w.umf.h, *w.lmf.vertices, w.lmf.h)]


def _outcome(fn):
    """(result, None), or (None, the LingoptError subclass raised)."""
    try:
        return fn(), None
    except LingoptError as e:
        return None, type(e)


class TestCompiledSolve:
    """``solve_molop`` fires rules from the similarity matrix and averages
    compiled vertex rows; the oracle does both one rule at a time."""

    D = Discretization(201, Interval(0.0, 10.0))

    @settings(max_examples=60, deadline=None)
    @given(spread_codebooks(), st.data())
    def test_solve_matches_oracle_bitwise(self, cb, data):
        rb = data.draw(rule_bases(cb.names))
        n = len(rb.rules[0].antecedents)
        sims = {}  # jaccard_oracle per word pair
        for _ in range(2):  # the second solve reads pairs the first one compared
            inputs = data.draw(st.lists(st.sampled_from(cb.names), min_size=n, max_size=n).map(tuple))
            got, got_error = _outcome(lambda: solve_molop(rb, inputs, cb, self.D))
            want, want_error = _outcome(lambda: solve_oracle(rb.rules, rb.objectives, inputs, cb, self.D))
            assert got_error is want_error
            if want is None:
                continue
            firings, fous = want
            for out, fou in zip(got, fous):
                assert [f.hex() for f in out.firings] == [f.hex() for f in firings]
                assert _hexes(out.fou) == _hexes(fou)
                s = sample_word(fou, self.D)
                centroid = centroid_ekm_from_samples(s.xs, s.lower, s.upper)
                assert (out.centroid.cl.hex(), out.centroid.cr.hex()) == (centroid.cl.hex(), centroid.cr.hex())
                assert out.decoded == oracle_decode(fou, cb, self.D)
            for rule, level in zip(rb.rules, firings):
                pairs = [(x, a) for x, a in zip(inputs, rule.antecedents)]
                for x, a in pairs:
                    if (x, a) not in sims:
                        sims[x, a] = jaccard_oracle(cb.word(x), cb.word(a), self.D)
                assert level == pytest.approx(min(sims[p] for p in pairs), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(spread_codebooks(), st.data())
    def test_errors_match_oracle(self, cb, data):
        rb = data.draw(rule_bases(cb.names))
        n = len(rb.rules[0].antecedents)
        inputs = data.draw(st.lists(st.sampled_from(cb.names), min_size=n, max_size=n).map(tuple))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, len(rb.rules) - 1))
        rule = rb.rules[j]
        unknown_antecedent = replace(rule, antecedents=rule.antecedents[:i] + ("ZZ",) + rule.antecedents[i + 1:])
        cases = [
            (rb.rules, inputs[:i] + ("ZZ",) + inputs[i + 1:], CodebookError),
            (rb.rules[:j] + (unknown_antecedent,) + rb.rules[j + 1:], inputs, CodebookError),
            (rb.rules, inputs + inputs[:1], DomainError),
            (rb.rules, inputs[1:], DomainError),
        ]
        for rules, x, error in cases:
            _, got = _outcome(lambda: solve_molop(RuleBase(rules, rb.objectives), x, cb, self.D))
            _, want = _outcome(lambda: solve_oracle(rules, rb.objectives, x, cb, self.D))
            assert got is want is error

        words = [cb.word(data.draw(st.sampled_from(cb.names))) for _ in range(len(rb.rules))]
        firings = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(words), max_size=len(words)))
        firings[i % len(firings)] = data.draw(st.sampled_from([np.nan, -0.1, 1.5, np.inf, -np.inf]))
        _, got = _outcome(lambda: lwa(words, firings))
        _, want = _outcome(lambda: lwa_oracle(words, firings))
        assert got is want is DomainError

    def test_no_rule_fired_matches_oracle(self):
        low, high = (IT2Word(name, Trapezoid(*v), Trapezoid(*v, h=0.5)) for name, v in
                     (("L", (0.0, 1.0, 1.5, 2.0)), ("R", (8.0, 8.5, 9.0, 10.0))))
        cb = Codebook(Interval(0.0, 10.0), tuple(replace(w, centroid=centroid_ekm(w, Discretization())) for w in (low, high)))
        rb = RuleBase((Rule("r1", ("L", "L"), ("R",)), Rule("r2", ("L", "R"), (AUTO,))), (Objective("o"),))
        for solve in (lambda: solve_molop(rb, ("R", "L"), cb, self.D),
                      lambda: solve_oracle(rb.rules, rb.objectives, ("R", "L"), cb, self.D)):
            assert _outcome(solve)[1] is NoRuleFiredError
        with pytest.raises(NoRuleFiredError):
            lwa([low, high], [0.0, 0.0])


class TestType1Decision:
    """The centroid takes its type-1 shortcut exactly when np.allclose(lo,
    hi, atol=0.0) holds, and otherwise runs EKM on the same samples."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_decision_matches_allclose(self, data):
        n = data.draw(st.integers(2, 40))
        hi = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)))
        kind = data.draw(st.sampled_from(["equal", "boundary", "random", "interior", "probe"]))
        if kind == "equal":
            lo = hi.copy()
        elif kind in ("interior", "probe"):
            # the samples equal but one: with "interior" the three probes
            # (first, middle, last) pass and another sample fails, with
            # "probe" a probe fails and every other sample passes
            probes = {0, n // 2, n - 1}
            bad = sorted(set(range(n)) - probes if kind == "interior" else probes)
            assume(bad)
            lo = hi.copy()
            i = data.draw(st.sampled_from(bad))
            lo[i] = hi[i] * data.draw(st.floats(0.0, 0.5))
        elif kind == "boundary":  # |lo - hi| a few ulps either side of 1e-5 * hi
            lo = hi - 1e-5 * hi
            ulps = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
            for _ in range(2):
                lo = np.where(ulps > 0, np.nextafter(lo, np.inf), np.where(ulps < 0, np.nextafter(lo, 0.0), lo))
                ulps = ulps - np.sign(ulps)
        else:
            lo = hi * np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        xs = np.linspace(0.0, 10.0, n)
        type1 = np.allclose(lo, hi, atol=0.0)
        assert bool((np.abs(lo - hi) <= 1e-5 * hi).all()) is bool(type1)
        if type1:
            c = float(np.dot(xs, hi) / hi.sum())
            want = (c, c)
        else:
            want = (_ekm_endpoint(xs, lo, hi, hi - lo, right=False), _ekm_endpoint(xs, lo, hi, hi - lo, right=True))
        # both ends are kept inside the samples
        want = [min(max(y, float(xs[0])), float(xs[-1])) for y in want]
        got = centroid_ekm_from_samples(xs, lo, hi)
        assert (got.cl.hex(), got.cr.hex()) == (want[0].hex(), want[1].hex())


@st.composite
def monotone_specs(draw):
    kind = draw(st.sampled_from(["increasing", "decreasing", "custom", "custom", "custom", "custom"]))
    if kind != "custom":
        return (kind,)
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique=True))
    xs = (0.0, *sorted(inner), 1.0)
    mus = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=len(xs), max_size=len(xs), unique=True)))
    return ("custom", xs, tuple(mus[::-1] if draw(st.booleans()) else mus))


def monotone_mf(spec) -> MonotoneMf:
    return {"increasing": INCREASING, "decreasing": DECREASING}.get(spec[0]) or MonotoneMf(*spec[1:])


class TestTsukamotoOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 3), st.integers(1, 2))
    def test_optimize_matches_oracle(self, data, n, q):
        specs = data.draw(
            st.lists(
                st.tuples(
                    st.lists(monotone_specs(), min_size=n, max_size=n),
                    st.lists(monotone_specs(), min_size=q, max_size=q),
                ),
                min_size=1,
                max_size=3,
            )
        )
        rules = [TsukamotoRule(tuple(map(monotone_mf, a)), tuple(map(monotone_mf, c))) for a, c in specs]
        lo = data.draw(st.sampled_from([0.0, 0.1, 0.25]))
        hi = data.draw(st.sampled_from([1.0, 0.9, 0.75]))
        c = EqualityConstraint(data.draw(st.floats(n * lo, n * hi)), lo, hi)
        directions = data.draw(st.lists(st.sampled_from(["max", "min"]), min_size=q, max_size=q))
        step = data.draw(st.sampled_from([0.02, 0.05, 0.1]))

        grid = [[float(v) for v in p] for p in _feasible_grid(c, n, step)]
        if not grid:
            with pytest.raises(DomainError, match="no feasible grid points"):
                optimize(rules, c, directions, step)
            return
        for p in grid:
            assert sum(p) == pytest.approx(c.total, abs=1e-9)
            assert all(lo <= v <= hi for v in p)
        values = [tsukamoto_oracle(specs, p) for p in grid]
        if None in values:
            first = grid[values.index(None)]
            with pytest.raises(NoRuleFiredError, match=re.escape(f"y={first}")):
                optimize(rules, c, directions, step)
            return

        adjusted = [[-v if dr == "min" else v for v, dr in zip(row, directions)] for row in values]
        scores = [min(row) for row in adjusted]
        threshold = max(scores) - TIE_TOL
        # a score within rounding of the threshold has no exact side to be on
        assume(all(abs(sc - threshold) > TIE_TOL / 10 for sc in scores))
        keep = [i for i, sc in enumerate(scores) if sc >= threshold]

        result = optimize(rules, c, directions, step)
        assert result.points == tuple(tuple(grid[i]) for i in keep)
        for got, i in zip(result.values, keep):
            assert got == pytest.approx(values[i], abs=1e-12)


class TestLwaProperties:
    def _random_instance(self, rng, n_max=4):
        n = rng.integers(1, n_max + 1)
        words = [random_word(rng) for _ in range(n)]
        firings = rng.uniform(0.05, 1.0, n)
        return words, firings

    def test_idempotence_and_containment_on_random_rule_bases(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            words, firings = self._random_instance(rng)
            # idempotence: all-equal consequents reproduce the word
            out = lwa([words[0]] * len(firings), list(firings))
            np.testing.assert_allclose(out.umf.vertices, words[0].umf.vertices, atol=1e-9)
            np.testing.assert_allclose(out.lmf.vertices, words[0].lmf.vertices, atol=1e-9)
            # scale containment for the mixed average
            mixed = lwa(words, list(firings))
            assert mixed.umf.a >= 0.0 - 1e-9
            assert mixed.umf.d <= 10.0 + 1e-9

    def test_betweenness_of_output_centroid(self):
        rng = np.random.default_rng(3)
        xs = GRID.grid()
        for _ in range(60):
            words, firings = self._random_instance(rng)
            out = lwa(words, list(firings))
            mean = centroid_ekm_from_samples(xs, out.lmf.membership_grid(xs), out.umf.membership_grid(xs)).mean
            means = [centroid_ekm(w, GRID).mean for w in words]
            assert min(means) - 0.02 <= mean <= max(means) + 0.02

    def test_output_height_is_min_of_fired_heights(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            words, firings = self._random_instance(rng)
            out = lwa(words, list(firings))
            assert out.lmf.h == pytest.approx(min(w.lmf.h for w in words))

    def test_shoulder_propagation(self, hma):
        # all fired consequents left shoulders -> output is a left shoulder
        rng = np.random.default_rng(5)
        shoulders = [hma.word("VP"), hma.word("P")]
        for _ in range(50):
            firings = rng.uniform(0.05, 1.0, 2)
            out = lwa(shoulders, list(firings))
            assert all(alpha_cut(out.umf, a).lo == 0.0 for a in np.linspace(0.0, 1.0, 101))
            assert all(alpha_cut(out.lmf, a).lo == 0.0 for a in np.linspace(0.0, out.lmf.h, 101))
            assert classify_fou(out, hma.scale) is FouShape.LEFT_SHOULDER

    def test_firing_weight_monotonicity(self, hma):
        # raising the weight of the largest-centroid codebook consequent can
        # only pull the output centroid upward
        rng = np.random.default_rng(6)
        xs = GRID.grid()
        words = list(load_codebook("paper-hma").words)
        for _ in range(40):
            chosen = [words[i] for i in rng.choice(len(words), 3, replace=False)]
            firings = rng.uniform(0.1, 0.9, 3)
            means = [w.centroid.mean for w in chosen]
            top = int(np.argmax(means))

            def mean_with(fs):
                out = lwa(chosen, list(fs))
                return centroid_ekm_from_samples(xs, out.lmf.membership_grid(xs), out.umf.membership_grid(xs)).mean

            bumped = firings.copy()
            bumped[top] = min(1.0, bumped[top] + 0.1)
            assert mean_with(bumped) >= mean_with(firings) - 1e-9

    def test_scalar_firing_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            words, firings = self._random_instance(rng)
            assert_alpha_cuts_are_weighted_averages(lwa(words, list(firings)), words, firings)


@st.composite
def centroid_samples(draw):
    """A trapezoid's samples as the upper membership, with a lower membership
    that is either zero but at one sample or equal to the upper one (type-1).
    The spike puts the ends of the centroid on the ends of the support, where
    rounding could push EKM's running sums past them; a type-1 weighted
    average can round past them likewise."""
    xs = np.linspace(0.0, 10.0, draw(st.sampled_from([11, 201, 1001])))
    vertex = st.one_of(st.just(0.0), st.just(10.0), st.floats(0.0, 10.0))
    upper = Trapezoid(*sorted(draw(st.lists(vertex, min_size=4, max_size=4)))).membership_grid(xs)
    assume(upper.any())
    if draw(st.booleans()):
        return xs, upper.copy(), upper
    lower = np.zeros_like(xs)
    j = draw(st.integers(0, xs.size - 1))
    lower[j] = upper[j] * draw(st.floats(0.0, 1.0))
    return xs, lower, upper


class TestCentroidOracle:
    def test_ekm_equals_brute_enumeration(self):
        rng = np.random.default_rng(8)
        # on 3, 5 or 7 points a word often has one grid point with mass, or none
        for points in (201, 3, 5, 7):
            d = Discretization(points, Interval(0.0, 10.0))
            for _ in range(200):
                w = random_word(rng)
                if not w.umf.membership_grid(d.grid()).any():
                    with pytest.raises(DegenerateWordError):
                        centroid_ekm(w, d)
                    continue
                e = centroid_ekm(w, d)
                b = centroid_brute(w, d)
                assert abs(e.cl - b.cl) <= 1e-9
                assert abs(e.cr - b.cr) <= 1e-9
                assert b.cl <= b.mean <= b.cr
                assert w.umf.a - 1e-9 <= b.cl and b.cr <= w.umf.d + 1e-9

    def test_exact_centroid_on_hand_computed_words(self):
        triangle = Trapezoid(0.0, 5.0, 5.0, 10.0)
        c = exact_centroid(IT2Word("T", triangle, triangle))
        assert (c.cl, c.cr) == pytest.approx((5.0, 5.0), abs=1e-12)
        # for s in [2, 4] the left KM function is 5 - s - (s - 2)^2 / 2, whose
        # root is 1 + sqrt(7); the right end mirrors it about 5
        box = IT2Word("B", Trapezoid(2.0, 2.0, 8.0, 8.0), Trapezoid(4.0, 4.0, 6.0, 6.0, 0.5))
        c = exact_centroid(box)
        assert (c.cl, c.cr) == pytest.approx((1.0 + math.sqrt(7.0), 9.0 - math.sqrt(7.0)), abs=1e-12)

    def test_exact_centroid_matches_the_printed_fixture_centroids(self):
        for w in FIXTURE_WORDS:
            c = exact_centroid(w)
            assert abs(c.cl - w.centroid.cl) <= CENTROID_CACHE_TOL
            assert abs(c.cr - w.centroid.cr) <= CENTROID_CACHE_TOL

    @settings(max_examples=300, deadline=None)
    @with_fixture_words
    @given(
        st.one_of(
            st.integers(0, 2**32 - 1).map(lambda seed: random_word(np.random.default_rng(seed))),
            oracle_words("w"),
        ),
        st.sampled_from([101, 1001, 10001]),
    )
    def test_grid_centroid_is_near_exact(self, w, points):
        # An end moves by the KM function's grid error over the function's
        # slope.  The grid error is first order where a vertical edge sits
        # inside a grid cell, about half a spacing times the support width,
        # and the slope is at least the LMF's area.  Over 30000 draws of each
        # kind at N = 101 and 1001, 4000 at N = 10001 and the fixture words,
        # error * N * area / width was at most 5.04 (a rectangle with vertical
        # edges).  10 leaves a margin of 2, and is about the first-order
        # ceiling: an end moves by up to a spacing, and area / width is at
        # most 1.  Without the area the error * N reached 100 at N = 101,
        # where a narrow LMF is barely sampled.
        d = Discretization(points, Interval(0.0, 10.0))
        try:
            got = centroid_ekm(w, d)
        except DegenerateWordError:
            assume(False)  # no grid point inside the support
        want = exact_centroid(w)
        area = w.lmf.h * (w.lmf.d - w.lmf.a + w.lmf.c - w.lmf.b) / 2.0
        bound = 10.0 * (w.umf.d - w.umf.a) / (points * area)
        assert abs(got.cl - want.cl) <= bound
        assert abs(got.cr - want.cr) <= bound

    @settings(max_examples=100, deadline=None)
    # a type-1 sample whose weighted average rounded an ulp below xs[0]
    @example((np.array([8.698469892040244, 8.733246935766894]),
              np.array([0.7590302396364096, 5.491549930112848e-16]),
              np.array([0.7590302396364096, 5.491549930112848e-16])))
    @given(centroid_samples())
    def test_ends_lie_within_the_samples(self, samples):
        xs, lower, upper = samples
        c = centroid_ekm_from_samples(xs, lower, upper)
        kept = xs[upper > 0.0]
        assert kept[0] <= c.cl and c.cr <= kept[-1]


class TestRankingPermutation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invariant_under_input_permutation(self, data):
        # scores 0.4e-9 apart chain into groups within the 1e-9 tolerance
        k = data.draw(st.integers(1, 3))
        directions = data.draw(st.lists(st.sampled_from(["max", "min"]), min_size=k, max_size=k))
        score = st.integers(0, 6).map(lambda i: i * 0.4e-9) | st.integers(0, 3).map(float)
        keys = data.draw(st.lists(st.tuples(*[score] * k), min_size=1, max_size=8))
        items = [(f"a{i}", key) for i, key in enumerate(keys)]
        shuffled = data.draw(st.permutations(items))
        key_of = dict(items)
        ranked = [key_of[label] for label in rank_by_centroid(items, directions)]
        # labels with exactly equal keys may swap; nothing else may move
        assert [key_of[label] for label in rank_by_centroid(shuffled, directions)] == ranked
        sign = 1.0 if directions[0] == "max" else -1.0
        for i, better in enumerate(ranked):
            for worse in ranked[i + 1:]:
                assert sign * better[0] >= sign * worse[0] - 1e-9


class TestTwoTupleRoundTrip:
    def test_dense_beta_grid(self):
        ts = OrdinalTermSet(("s1", "s2", "s3", "s4", "s5"))
        for beta in np.linspace(0.5, 5.4999, 10_000):
            t = to_two_tuple(float(beta), ts)
            assert t.beta == pytest.approx(beta, abs=1e-12)
            assert -0.5 <= t.alpha < 0.5

    @settings(max_examples=200)
    @given(st.integers(1, 5), st.floats(-0.5, 0.4999))
    def test_hypothesis_round_trip(self, index, alpha):
        ts = OrdinalTermSet(("s1", "s2", "s3", "s4", "s5"))
        beta = index + alpha
        if beta < 0.5:
            return
        t = to_two_tuple(beta, ts)
        assert t.index == index
        assert t.alpha == pytest.approx(alpha, abs=1e-9)


TOKENS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.", min_size=1, max_size=6)


@st.composite
def loaded_codebooks(draw) -> Codebook:
    """A codebook as the loader returns it: valid words on an integer scale,
    in nondecreasing centroid order, each carrying its centroid."""
    lo = draw(st.integers(-20, 20))
    scale = Interval(float(lo), float(lo + draw(st.integers(1, 50))))
    names = draw(st.lists(TOKENS, min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = Discretization(1001, scale)
    words = []
    for name in names:
        w = replace(random_word(rng, scale.lo, scale.hi), name=name)
        try:
            words.append(replace(w, centroid=centroid_ekm(w, d)))
        except DegenerateWordError:
            assume(False)
    words.sort(key=lambda w: w.centroid.mean)
    return Codebook(scale, tuple(words))


@st.composite
def problem_bundles(draw) -> ProblemBundle:
    n = draw(st.integers(1, 4))  # antecedents of every rule
    names = draw(st.lists(TOKENS, min_size=1, max_size=3, unique=True))
    slots = st.none() | st.lists(st.integers(1, n), min_size=1, max_size=4).map(tuple)
    objectives = tuple(Objective(o, draw(st.sampled_from(["max", "min"])), draw(slots)) for o in names)
    consequent = TOKENS | st.sampled_from([AUTO, AUTO_WORD])
    rules = [
        Rule(
            label,
            tuple(draw(st.lists(TOKENS, min_size=n, max_size=n))),
            tuple(draw(st.lists(consequent, min_size=len(names), max_size=len(names)))),
        )
        for label in draw(st.lists(TOKENS, min_size=1, max_size=5, unique=True))
    ]
    alternatives = tuple(
        Alternative(
            label,
            tuple(draw(st.lists(st.sampled_from(rules), min_size=1, max_size=3, unique_by=lambda r: r.label))),
            draw(st.none() | st.lists(TOKENS, min_size=n, max_size=n).map(tuple)),
        )
        for label in draw(st.lists(TOKENS, min_size=1, max_size=3, unique=True))
    )
    ranking = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)))
    terms = tuple(draw(st.lists(TOKENS, min_size=1, max_size=5, unique=True)))
    return ProblemBundle(draw(TOKENS), objectives, alternatives, ranking, terms, draw(TOKENS))


class TestTextFormatRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(loaded_codebooks())
    def test_codebook(self, cb):
        assert parse_codebook(format_codebook(cb)) == cb

    @settings(max_examples=100, deadline=None)
    @given(problem_bundles())
    def test_problem(self, bundle):
        assert parse_problem(format_problem(bundle)) == bundle
