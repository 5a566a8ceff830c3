import tracemalloc

import numpy as np
import pytest

from conftest import centroid_brute, random_word, translate
from lingopt.codebook import MAX_GRID, Codebook
from lingopt.fuzzy import DomainError, Interval, IT2Word, Trapezoid
from lingopt.reasoning import lwa
from lingopt.similarity import (
    JACCARD_CHUNK,
    Centroid,
    DegenerateWordError,
    Discretization,
    centroid_ekm,
    centroid_ekm_from_samples,
    jaccard,
    jaccard_rows,
    rank_by_centroid,
    sample_word,
)


class TestJaccard:
    def test_self_similarity_is_one(self, hma):
        d = hma.discretization()
        for w in hma.words:
            assert jaccard(w, w, d) == pytest.approx(1.0)

    def test_symmetric_on_fixture_pairs(self, hma):
        d = hma.discretization()
        for a in hma.words:
            for b in hma.words:
                assert jaccard(a, b, d) == pytest.approx(jaccard(b, a, d), abs=1e-12)

    def test_average_vs_very_poor(self, hma):
        # the smallest slotwise similarity behind the cross-firing value 0.08
        sim = jaccard(hma.word("A"), hma.word("VP"), hma.discretization())
        assert sim == pytest.approx(0.08, abs=0.02)

    def test_average_vs_poor(self, hma):
        sim = jaccard(hma.word("A"), hma.word("P"), hma.discretization())
        assert sim == pytest.approx(0.38, abs=0.02)

    def test_disjoint_supports_give_zero(self):
        d = Discretization(3001, Interval(0.0, 30.0))
        w = IT2Word("w", Trapezoid(0, 1, 2, 3), Trapezoid(0.5, 1, 2, 2.5, h=0.9))
        base = IT2Word("b", Trapezoid(0, 1, 2, 3), Trapezoid(0.5, 1, 2, 2.5, h=0.9))
        prev = 1.0
        for offset in np.arange(0.0, 25.0, 2.5):
            shifted = IT2Word("s", translate(base.umf, offset), translate(base.lmf, offset))
            sim = jaccard(w, shifted, d)
            assert sim <= prev + 1e-9  # separation never increases similarity
            prev = sim
            if offset >= 3.0:  # supports disjoint from here on
                assert sim == 0.0

    @pytest.mark.parametrize("width", [1.0, 10.0], ids=["K=100001", "K=1000001"])
    def test_one_call_memory_is_bounded_by_the_chunk_buffer(self, hma, width):
        # on the largest grid a support of K columns is summed through one
        # (V, JACCARD_CHUNK) buffer, however large K is
        cb = Codebook(hma.scale, hma.words[:2])
        scb = cb.sampled(cb.discretization(MAX_GRID))
        w = IT2Word("w", Trapezoid(0.0, 0.0, width, width), Trapezoid(0.0, 0.0, width, width, 0.5))
        s = sample_word(w, scb.d)
        buffer = len(scb.mass) * JACCARD_CHUNK * 8
        tracemalloc.start()
        try:
            scores = jaccard_rows(scb.upper, scb.lower, scb.mass, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.xs.size == round(width * (MAX_GRID - 1) / 10) + 1
        assert peak < 2 * buffer
        assert scores.tolist() == [jaccard(w, v, scb.d) for v in cb.words]

    def test_scale_mismatch_rejected(self, hma):
        tight = Discretization(101, Interval(0.0, 5.0))
        with pytest.raises(DomainError, match="scale"):
            jaccard(hma.word("G"), hma.word("G"), tight)


class TestCentroid:
    def test_mean_is_midpoint(self):
        c = Centroid(2.0, 4.0)
        assert c.mean == 3.0

    def test_fixture_good_centroid(self, hma):
        c = centroid_ekm(hma.word("G"), hma.discretization())
        assert c.cl == pytest.approx(7.2, abs=0.05)
        assert c.cr == pytest.approx(7.4, abs=0.05)
        assert c.mean == pytest.approx(7.3, abs=0.05)

    def test_symmetric_word_mean_is_center(self):
        w = IT2Word("sym", Trapezoid(2, 4, 6, 8), Trapezoid(3, 4.5, 5.5, 7, h=0.7))
        c = centroid_ekm(w, Discretization())
        assert c.mean == pytest.approx(5.0, abs=1e-9)

    def test_type1_degeneracy_matches_direct_formula(self):
        t = Trapezoid(1.0, 2.5, 4.0, 7.0)
        w = IT2Word("t1", t, t)
        d = Discretization(1001, Interval(0.0, 10.0))
        xs = d.grid()
        mu = t.membership_grid(xs)
        expected = float(np.dot(xs, mu) / mu.sum())
        c = centroid_ekm(w, d)
        assert c.cl == pytest.approx(expected, abs=1e-9)
        assert c.cr == pytest.approx(expected, abs=1e-9)

    def test_ekm_matches_brute_on_random_words(self):
        rng = np.random.default_rng(11)
        d = Discretization(201, Interval(0.0, 10.0))
        for _ in range(50):
            w = random_word(rng)
            e = centroid_ekm(w, d)
            b = centroid_brute(w, d)
            assert abs(e.cl - b.cl) <= 1e-9
            assert abs(e.cr - b.cr) <= 1e-9

    def test_grid_refinement_stability(self, hma, ia):
        for cb in (hma, ia):
            for w in cb.words:
                m1 = centroid_ekm(w, Discretization(1001, cb.scale)).mean
                m2 = centroid_ekm(w, Discretization(2001, cb.scale)).mean
                assert abs(m1 - m2) < 0.01

    def test_all_zero_membership_rejected(self):
        # on the scale, but between the grid points 0, 5 and 10
        w = IT2Word("between", Trapezoid(1, 1.5, 2, 2.5), Trapezoid(1.2, 1.5, 2, 2.3, h=0.9))
        with pytest.raises(DegenerateWordError):
            centroid_ekm(w, Discretization(3, Interval(0.0, 10.0)))

    @pytest.mark.parametrize("upper", [[], [0.0, 0.0, 0.0]], ids=["empty", "all-zero"])
    def test_sample_without_upper_mass_is_degenerate(self, upper):
        xs = np.linspace(0.0, 1.0, len(upper))
        with pytest.raises(DegenerateWordError, match="^all-zero membership: centroid undefined$"):
            centroid_ekm_from_samples(xs, np.zeros(len(upper)), np.array(upper))

    @pytest.mark.parametrize("whole_grid", [False, True], ids=["support", "whole-grid"])
    def test_ekm_works_on_views_of_a_fine_sample(self, hma, whole_grid):
        # an LWA output sampled on a fine grid, over its support as a solve
        # samples it or over the whole grid: the zero-mass ends are trimmed
        # as views, so one call's traced peak stays within three K-length
        # float arrays, and the result is that of the masked copies
        out = lwa([hma.word("A"), hma.word("G"), hma.word("P")], [1.0, 0.38, 0.6])
        s = sample_word(out, hma.discretization(200001))
        xs, lower, upper = s.xs, s.lower, s.upper
        if whole_grid:
            xs = hma.discretization(200001).grid()
            lower, upper = out.lmf.membership_grid(xs), out.umf.membership_grid(xs)
        tracemalloc.start()
        try:
            c = centroid_ekm_from_samples(xs, lower, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.size > 100000
        assert peak <= 3 * xs.size * 8
        keep = upper > 0.0
        assert c == centroid_ekm_from_samples(xs[keep], lower[keep], upper[keep])

    def test_ekm_of_an_it2_output_allocates_one_gap(self, hma):
        # an IT2 output fails the type-1 test at a scalar probe, so one call's
        # traced peak is the ``gap`` both ends share, with little beside it
        out = lwa([hma.word("A"), hma.word("G"), hma.word("P")], [1.0, 0.38, 0.6])
        s = sample_word(out, hma.discretization(200001))
        tracemalloc.start()
        try:
            centroid_ekm_from_samples(s.xs, s.lower, s.upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.xs.size > 100000
        assert peak <= 1.5 * s.xs.size * 8

    def test_off_scale_word_rejected(self):
        w = IT2Word("off", Trapezoid(0, 1, 2, 3), Trapezoid(0.5, 1, 2, 2.5, h=0.9))
        with pytest.raises(DomainError, match="exceeds scale"):
            centroid_ekm(w, Discretization(11, Interval(5.0, 10.0)))


class TestRanking:
    def test_solop_means(self):
        items = [
            ("SS1", (3.33,)),
            ("SS2", (6.2,)),
            ("SS3", (5.91,)),
            ("SS4", (5.45,)),
        ]
        assert rank_by_centroid(items, ["max"]) == ["SS2", "SS3", "SS4", "SS1"]

    def test_tiebreak_on_secondary(self):
        items = [
            ("SS1", (5.02, 2.6)),
            ("SS2", (7.42, 0.0)),
            ("SS3", (4.35, 0.0)),
            ("SS4", (5.02, 5.02)),
        ]
        assert rank_by_centroid(items, ["max", "max"]) == ["SS2", "SS4", "SS1", "SS3"]

    def test_single_item(self):
        assert rank_by_centroid([("only", (1.0,))], ["max"]) == ["only"]

    def test_stable_when_fully_tied(self):
        items = [("a", (4.0,)), ("b", (4.0,)), ("c", (4.0,))]
        assert rank_by_centroid(items, ["max"]) == ["a", "b", "c"]

    def test_min_direction(self):
        items = [("lo", (1.0,)), ("hi", (9.0,))]
        assert rank_by_centroid(items, ["min"]) == ["lo", "hi"]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rank_by_centroid([], ["max"])

    @pytest.mark.parametrize("direction", ["MAX", "descending", ""])
    def test_bad_direction_rejected(self, direction):
        with pytest.raises(DomainError, match="direction"):
            rank_by_centroid([("a", (1.0,)), ("b", (2.0,))], [direction])
