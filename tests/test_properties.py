"""Randomized invariant suites: alpha-cut nesting, Jaccard axioms, LWA
behaviour, centroid oracle agreement, 2-tuple round trips and text-format
round trips."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_alpha_cuts_are_weighted_averages,
    jaccard_oracle,
    random_trapezoid,
    random_word,
    tsukamoto_oracle,
)
from lingopt.codebook import Codebook, format_codebook, load_codebook, parse_codebook
from lingopt.fuzzy import DomainError, Interval, IT2Word, Trapezoid, alpha_cut, classify_fou, FouShape
from lingopt.problems import Alternative, ProblemBundle, format_problem, parse_problem
from lingopt.reasoning import AUTO, AUTO_WORD, Objective, Rule, decode, fire, fire_rules, lwa
from lingopt.similarity import (
    DegenerateWordError,
    Discretization,
    centroid_brute,
    centroid_ekm,
    centroid_ekm_from_samples,
    jaccard,
)
from lingopt.tsukamoto import (
    EqualityConstraint,
    MonotoneMf,
    NoRuleFiredError,
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
        umf, lmf = umf.translate(offset), lmf.translate(offset)
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
    """``fire_rules`` on ``cb.sampled(d)``, public ``fire`` and ``decode`` of
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
        moved = IT2Word(w.name, w.umf.translate(offset), w.lmf.translate(offset))
        words = cb.words[:i] + (moved,) + cb.words[i + 1:]
        assert_fire_and_decode_match_oracle(replace(cb, words=words), d, rules, inputs, firings)


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
    return MonotoneMf(spec[0], samples=spec[1:] or None)


class TestTsukamotoOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 3), st.integers(1, 2), st.booleans())
    def test_optimize_matches_oracle(self, data, n, q, normalize):
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
        tie_tol = data.draw(st.sampled_from([1e-9, 1e-3]))

        grid = [[float(v) for v in p] for p in _feasible_grid(c, n, step)]
        if not grid:
            with pytest.raises(DomainError, match="no feasible grid points"):
                optimize(rules, c, directions, step, tie_tol, normalize)
            return
        for p in grid:
            assert sum(p) == pytest.approx(c.total, abs=1e-9)
            assert all(lo <= v <= hi for v in p)
        values = [tsukamoto_oracle(specs, p) for p in grid]
        if None in values:
            first = grid[values.index(None)]
            with pytest.raises(NoRuleFiredError, match=re.escape(f"y={first}")):
                optimize(rules, c, directions, step, tie_tol, normalize)
            return

        adjusted = [[-v if dr == "min" else v for v, dr in zip(row, directions)] for row in values]
        if normalize and q > 1:
            cols = list(zip(*adjusted))
            los = [min(col) for col in cols]
            spans = [max(col) - m for col, m in zip(cols, los)]
            assume(min(spans) > 1e-6)  # a flatter objective turns rounding into score noise
            adjusted = [[(v - m) / s for v, m, s in zip(row, los, spans)] for row in adjusted]
        scores = [min(row) for row in adjusted]
        threshold = max(scores) - tie_tol
        # a score within rounding of the threshold has no exact side to be on
        assume(all(abs(sc - threshold) > tie_tol / 10 for sc in scores))
        keep = [i for i, sc in enumerate(scores) if sc >= threshold]

        result = optimize(rules, c, directions, step, tie_tol, normalize)
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


class TestCentroidOracle:
    def test_ekm_equals_brute_enumeration(self):
        rng = np.random.default_rng(8)
        d = Discretization(201, Interval(0.0, 10.0))
        for _ in range(200):
            w = random_word(rng)
            e = centroid_ekm(w, d)
            b = centroid_brute(w, d)
            assert abs(e.cl - b.cl) <= 1e-9
            assert abs(e.cr - b.cr) <= 1e-9
            assert b.cl <= b.mean <= b.cr
            assert w.umf.a - 1e-9 <= b.cl and b.cr <= w.umf.d + 1e-9


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
            words.append(w.with_centroid(centroid_ekm(w, d)))
        except DegenerateWordError:
            assume(False)
    words.sort(key=lambda w: w.centroid.mean)
    generator = draw(st.none() | TOKENS)
    seed = draw(st.none() | st.integers(-(2**63), 2**63))
    return Codebook(scale, tuple(words), draw(TOKENS), generator, seed)


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
            draw(TOKENS),
            tuple(draw(st.lists(st.sampled_from(rules), min_size=1, max_size=3))),
            draw(st.none() | st.lists(TOKENS, min_size=n, max_size=n).map(tuple)),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    ranking = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))
    terms = tuple(draw(st.lists(TOKENS, min_size=1, max_size=5)))
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
