import gc
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import format_codebook, jaccard_pairwise

from lingopt import codebook
from lingopt.codebook import (
    STUDENT_ENDPOINTS,
    Codebook,
    CodebookError,
    DataIntervalSet,
    EndpointSpec,
    EndpointSpecError,
    FIXTURE_IDS,
    format_data_intervals,
    load_codebook,
    parse_codebook,
    parse_endpoint_specs,
    sample_person_fou,
)
from lingopt.fuzzy import DomainError, Interval, IT2Word, Trapezoid
from lingopt.problems import case_molop, solve_pr_bundle
from lingopt.reasoning import Rule, fire_rules
from lingopt.similarity import centroid_ekm, centroid_ekm_from_samples, jaccard, sample_word

# Printed FOU data for the two fixture codebooks: every vertex and height.
HMA_EXPECTED = {
    "VP": ((0.00, 0.00, 2.04, 3.84), (0.00, 0.00, 2.04, 3.04), 1.00, (1.29, 1.52, 1.41)),
    "P": ((0.00, 0.00, 4.53, 5.92), (0.00, 0.00, 4.53, 5.65), 1.00, (2.56, 2.63, 2.6)),
    "A": ((1.14, 2.99, 7.03, 8.94), (1.85, 2.99, 7.03, 8.22), 1.00, (4.83, 5.22, 5.02)),
    "G": ((3.5, 5.46, 10, 10), (4.23, 5.46, 10, 10), 1.00, (7.2, 7.4, 7.3)),
    "VG": ((6.44, 7.96, 10, 10), (6.82, 7.96, 10, 10), 1.00, (8.56, 8.67, 8.61)),
}
IA_EXPECTED = {
    "VP": ((0.00, 0.00, 0.27, 3.91), (0.00, 0.00, 0.18, 2.63), 1.00, (0.88, 1.34, 1.11)),
    "P": ((0.00, 0.00, 0.94, 7.16), (0.00, 0.00, 0.43, 5.8), 1.00, (1.93, 2.48, 2.2)),
    "A": ((0.79, 4.6, 5.39, 9.15), (2, 4.99, 4.99, 7.91), 0.88, (4.43, 5.52, 4.97)),
    "G": ((2.87, 9.06, 10, 10), (4.1, 9.58, 10, 10), 1.00, (7.53, 8.04, 7.79)),
    "VG": ((6.13, 9.73, 10, 10), (7.34, 9.81, 10, 10), 1.00, (8.67, 9.11, 8.89)),
}


class TestFixtures:
    @pytest.mark.parametrize(
        "fixture_id,expected", [("paper-hma", HMA_EXPECTED), ("paper-ia", IA_EXPECTED)]
    )
    def test_fixture_fidelity(self, fixture_id, expected):
        cb = load_codebook(fixture_id)
        assert cb.names == ("VP", "P", "A", "G", "VG")
        for w in cb.words:
            umf, lmf, h, (cl, cr, mean) = expected[w.name]
            assert w.umf.vertices == umf
            assert w.lmf.vertices == lmf
            assert w.lmf.h == h
            assert w.centroid.cl == cl
            assert w.centroid.cr == cr
            # the printed mean column is itself rounded from (cl + cr) / 2
            assert w.centroid.mean == pytest.approx(mean, abs=0.01)

    def test_centroid_means_strictly_increase(self):
        for fixture_id in FIXTURE_IDS:
            means = [w.centroid.mean for w in load_codebook(fixture_id).words]
            assert means == sorted(means)
            assert len(set(means)) == len(means)

    def test_unknown_fixture(self):
        with pytest.raises(CodebookError):
            load_codebook("no-such-fixture")

    def test_word_lookup(self, hma):
        assert hma.word("A").name == "A"
        with pytest.raises(CodebookError):
            hma.word("XX")


def count_kernel_runs(monkeypatch) -> list:
    """Wrap the Jaccard kernel wherever the package holds it; the returned
    list gains one entry per run."""
    runs = []
    kernel = codebook.jaccard_rows

    def counted(*args):
        runs.append(args)
        return kernel(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("lingopt") and hasattr(module, "jaccard_rows"):
            monkeypatch.setattr(module, "jaccard_rows", counted)
    return runs


class TestSampledCodebook:
    def test_sampling_is_kept_for_the_last_grid(self, hma):
        cb = replace(hma)  # an instance of its own: the session fixture's slot is shared
        d = cb.discretization(201)
        scb = cb.sampled(d)
        assert cb.sampled(d) is scb
        assert cb.sampled(cb.discretization(201)) is scb
        assert cb.sampled().d == cb.discretization()
        assert cb.sampled(d) is not scb  # one slot: the 201-point sampling was dropped
        twin = replace(cb)
        assert twin.sampled(d) is not cb.sampled(d)
        assert twin == cb and hash(twin) == hash(cb) and repr(twin) == repr(hma)

    def test_loaded_codebook_arrives_sampled(self, monkeypatch):
        cb = parse_codebook(
            "codebook v1\nword low\numf = 1 2 3 4\nlmf = 1.5 2 3 3.5 0.9\n"
            "word high\numf = 6 7 8 9\nlmf = 6.5 7 8 8.5 0.9\n"
        )
        scb = cb._sampled
        assert scb is not None and scb.d == cb.discretization()
        # the centroids filled in on load are those of the kept samples
        assert [w.centroid for w in cb.words] == [centroid_ekm_from_samples(s.xs, s.lower, s.upper) for s in scb.words]
        assert [w.centroid for w in cb.words] == [centroid_ekm(w, scb.d) for w in cb.words]
        monkeypatch.setattr(codebook, "sample_word", lambda *args: pytest.fail("word sampled again"))
        assert cb.sampled() is scb and cb.sampled(cb.discretization()) is scb

    def test_sampling_is_freed_with_its_codebook(self, hma):
        cb = replace(hma)
        sampling = weakref.ref(cb.sampled())
        gc.disable()
        try:
            del cb
            assert sampling() is None  # freed by reference counting: no cycle
        finally:
            gc.enable()

    def test_pair_table_holds_the_pairs_fired(self, hma, monkeypatch):
        # the matrix fills the whole row of each input word, and no other row
        scb = replace(hma).sampled()
        assert scb.jaccard.shape == (5, 5) and np.isnan(scb.jaccard).all()
        rules = [Rule("r1", ("A", "G"), ()), Rule("r2", ("A", "VG"), ())]
        first = fire_rules(rules, ("A", "G"), scb)
        inputs = [hma.names.index("A"), hma.names.index("G")]
        filled = ~np.isnan(scb.jaccard)
        assert filled[inputs].all() and not np.delete(filled, inputs, axis=0).any()
        assert scb.jaccard[inputs[1]].tolist() == scb.scores(scb.words[inputs[1]]).tolist()

        kernel_runs = count_kernel_runs(monkeypatch)
        table = scb.jaccard.copy()
        assert fire_rules(rules, ("A", "G"), scb).tolist() == first.tolist()
        assert kernel_runs == []  # a second firing fills no row again
        with pytest.raises(CodebookError, match="unknown word 'XX'"):
            fire_rules(rules, ("XX", "G"), scb)
        assert kernel_runs == []
        np.testing.assert_array_equal(scb.jaccard, table)  # NaN rows included


class TestDenseMemberships:
    def test_words_view_one_dense_pair(self, hma):
        scb = replace(hma).sampled(hma.discretization(201))
        assert scb.upper.shape == scb.lower.shape == (5, 201)
        for v, (w, s) in enumerate(zip(hma.words, scb.words)):
            support = slice(s.start, s.start + s.xs.size)
            fresh = sample_word(w, scb.d)
            for dense, sampled, mf in ((scb.upper, s.upper, "upper"), (scb.lower, s.lower, "lower")):
                assert sampled.base is dense  # a view of its row, not a copy
                assert sampled.tolist() == getattr(fresh, mf).tolist()
                row = dense[v].copy()
                row[support] = 0.0
                assert not row.any()  # zero outside the support
            assert scb.mass[v] == s.mass == fresh.mass

    def test_pair_table_after_a_solve_is_fresh_jaccard_bitwise(self, hma):
        cb = replace(hma)
        solve_pr_bundle(case_molop(), cb)
        scb = cb.sampled()
        pairs = list(zip(*np.nonzero(~np.isnan(scb.jaccard))))
        assert pairs
        for x, y in pairs:
            assert scb.jaccard[x, y].hex() == jaccard(cb.words[x], cb.words[y], scb.d).hex()
            pairwise = jaccard_pairwise(sample_word(cb.words[x], scb.d), sample_word(cb.words[y], scb.d))
            assert abs(scb.jaccard[x, y] - pairwise) <= 1e-12

    def test_warmed_solve_compares_no_word_pair(self, hma, monkeypatch):
        cb = replace(hma)
        first = solve_pr_bundle(case_molop(), cb)
        table = cb.sampled().jaccard.copy()
        kernel_runs = count_kernel_runs(monkeypatch)
        again = solve_pr_bundle(case_molop(), cb)
        # one run per output, its decode; no row of the matrix is filled
        assert len(kernel_runs) == sum(map(len, again.outputs.values()))
        np.testing.assert_array_equal(cb.sampled().jaccard, table)
        assert again.ranking == first.ranking
        for label, outs in first.outputs.items():
            assert [o.decoded for o in again.outputs[label]] == [o.decoded for o in outs]

    def test_cell_budget_is_checked_before_allocating(self, hma, monkeypatch):
        monkeypatch.setattr(codebook, "MAX_CELLS", 5 * 201)
        cb = replace(hma)
        assert cb.sampled(cb.discretization(201)).upper.shape == (5, 201)
        monkeypatch.setattr(np, "zeros", lambda *args, **kw: pytest.fail("allocated past the budget"))
        with pytest.raises(DomainError, match="more than the budget of 1005"):
            cb.sampled(cb.discretization(202))

    def test_too_many_words_are_refused_before_allocating(self, hma, monkeypatch):
        # 5001 words need a 5001 x 5001 matrix, past the budget at any grid
        w = hma.word("A")
        cb = Codebook(hma.scale, tuple(replace(w, name=f"W{i}") for i in range(5001)))
        for name in ("zeros", "full", "empty"):
            monkeypatch.setattr(np, name, lambda *args, **kw: pytest.fail("allocated past the budget"))
        with pytest.raises(DomainError, match="more than the budget of 25000025"):
            cb.sampled(cb.discretization(3))


class TestSampling:
    def test_degenerate_left_interval_pins_values(self):
        spec = STUDENT_ENDPOINTS[0]  # VP: left [0,0], right [2,3]
        ds = sample_person_fou(spec, n=50, seed=7)
        assert len(ds.pairs) == 50
        assert all(l == 0.0 for l, _ in ds.pairs)
        assert all(2.0 <= r <= 3.0 for _, r in ds.pairs)

    def test_fully_degenerate_spec(self):
        spec = EndpointSpec("pt", Interval(5, 5), Interval(5, 5))
        ds = sample_person_fou(spec, n=10, seed=1)
        assert all(pair == (5.0, 5.0) for pair in ds.pairs)

    def test_law_of_large_numbers_on_left_mean(self):
        spec = EndpointSpec("A", Interval(2, 3), Interval(7, 8))
        ds = sample_person_fou(spec, n=100_000, seed=3)
        assert np.mean([l for l, _ in ds.pairs]) == pytest.approx(2.5, abs=0.01)

    def test_determinism_and_byte_identical_serialization(self):
        spec = STUDENT_ENDPOINTS[2]
        a = sample_person_fou(spec, n=50, seed=42)
        b = sample_person_fou(spec, n=50, seed=42)
        assert a == b
        assert format_data_intervals([a], seed=42) == format_data_intervals([b], seed=42)
        c = sample_person_fou(spec, n=50, seed=43)
        assert a != c

    def test_overlapping_intervals_resample_until_ordered(self):
        spec = EndpointSpec("wide", Interval(0, 10), Interval(0, 10))
        ds = sample_person_fou(spec, n=200, seed=5)
        assert all(l <= r for l, r in ds.pairs)

    def test_invalid_spec_rejected(self):
        with pytest.raises(EndpointSpecError):
            EndpointSpec("bad", Interval(6, 7), Interval(0, 1))

    def test_bad_sample_size(self):
        with pytest.raises(Exception):
            sample_person_fou(STUDENT_ENDPOINTS[0], n=0, seed=1)


class TestFileFormat:
    def test_save_load_round_trip(self, hma, tmp_path):
        path = tmp_path / "hma.txt"
        path.write_text(format_codebook(hma))
        loaded = load_codebook(path)
        for orig, back in zip(hma.words, loaded.words):
            assert orig.umf == back.umf
            assert orig.lmf == back.lmf
            assert back.centroid.cl == pytest.approx(orig.centroid.cl, abs=1e-12)

    def test_lmf_exceeding_umf_names_word(self):
        text = """codebook v1
scale = 0 10
word bad
umf = 2 3 4 5
lmf = 1 3 4 5 1.0
"""
        with pytest.raises(CodebookError, match="bad"):
            parse_codebook(text)

    def test_missing_field_names_word_and_field(self):
        text = """codebook v1
word lonely
umf = 2 3 4 5
"""
        with pytest.raises(CodebookError, match="lonely.*lmf|lmf.*lonely"):
            parse_codebook(text)

    def test_disordered_vocabulary_rejected(self):
        text = """codebook v1
word high
umf = 6 7 8 9
lmf = 6.5 7 8 8.5 0.9
word low
umf = 1 2 3 4
lmf = 1.5 2 3 3.5 0.9
"""
        with pytest.raises(CodebookError, match="nondecreasing"):
            parse_codebook(text)

    def test_stale_centroid_cache_refused(self):
        text = """codebook v1
word w
umf = 1 2 3 4
lmf = 1.5 2 3 3.5 0.9
centroid = 9.0 9.5 9.25
"""
        with pytest.raises(CodebookError, match="cached centroid"):
            parse_codebook(text)

    def test_endpoint_specs_parse(self):
        text = """endpoints v1
scale = 0 10
word VP
left = 0 0
right = 2 3
"""
        specs = parse_endpoint_specs(text)
        assert specs == [EndpointSpec("VP", Interval(0, 0), Interval(2, 3))]

    def test_endpoint_bounds_must_fit_scale(self):
        text = """endpoints v1
scale = 0 5
word big
left = 0 1
right = 4 7
"""
        with pytest.raises(EndpointSpecError, match="outside scale"):
            parse_endpoint_specs(text)

    def test_header_round_trip(self, hma):
        # encoder, generator and seed are read and checked but not kept: a
        # file with them loads the codebook the file without them loads
        text = format_codebook(hma)
        tagged = text.replace("\n\n", "\nencoder = HMA\ngenerator = pcg64\nseed = 7\n\n", 1)
        assert tagged != text
        assert parse_codebook(tagged) == parse_codebook(text) == hma

    def test_custom_scale_pipeline(self):
        # scales other than 0-10 flow through load, centroid and inference
        from lingopt.reasoning import Objective, Rule, RuleBase, solve_molop

        text = """codebook v1
scale = 0 5
word small
umf = 0 0 1 2
lmf = 0 0 0.8 1.5 0.9
word large
umf = 3 4 5 5
lmf = 3.5 4.2 5 5 0.9
"""
        cb = parse_codebook(text)
        assert cb.scale == Interval(0, 5)
        assert cb.word("small").centroid.mean < cb.word("large").centroid.mean
        rb = RuleBase(
            (Rule("r1", ("small",), ("small",)), Rule("r2", ("large",), ("large",))),
            (Objective("f"),),
        )
        (out,) = solve_molop(rb, ("large",), cb)
        assert out.decoded == "large"
        assert 0.0 <= out.fou.umf.a and out.fou.umf.d <= 5.0
