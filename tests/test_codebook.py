import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from lingopt.codebook import (
    STUDENT_ENDPOINTS,
    Codebook,
    CodebookError,
    DataIntervalSet,
    EncoderError,
    EndpointSpec,
    EndpointSpecError,
    FIXTURE_IDS,
    format_codebook,
    format_data_intervals,
    load_codebook,
    parse_codebook,
    parse_endpoint_specs,
    register_encoder,
    sample_person_fou,
    save_codebook,
    encode_word,
)
from lingopt.fuzzy import Interval, IT2Word, Trapezoid
from lingopt.reasoning import Rule, fire_rules
from lingopt.similarity import jaccard

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
        assert hma.index("VG") == 5
        with pytest.raises(CodebookError):
            hma.word("XX")


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

    def test_sampling_is_freed_with_its_codebook(self, hma):
        cb = replace(hma)
        sampling = weakref.ref(cb.sampled())
        gc.disable()
        try:
            del cb
            assert sampling() is None  # freed by reference counting: no cycle
        finally:
            gc.enable()

    def test_pair_table_holds_the_pairs_fired(self, hma):
        scb = replace(hma).sampled()
        rules = [Rule("r1", ("A", "G"), ()), Rule("r2", ("A", "VG"), ())]
        first = fire_rules(rules, ("A", "G"), scb)
        assert set(scb.pairs) == {("A", "A"), ("G", "G"), ("G", "VG")}
        assert scb.pairs[("G", "VG")] == jaccard(hma.word("G"), hma.word("VG"), scb.d)
        assert fire_rules(rules, ("A", "G"), scb) == first
        with pytest.raises(CodebookError, match="unknown word 'XX'"):
            fire_rules(rules, ("XX", "G"), scb)
        assert ("XX", "A") not in scb.pairs


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


class TestEncoders:
    def test_passthrough_refuses(self):
        ds = sample_person_fou(STUDENT_ENDPOINTS[1], n=10, seed=7)
        with pytest.raises(EncoderError, match="fixture"):
            encode_word(ds)

    def test_unregistered_encoder(self):
        ds = sample_person_fou(STUDENT_ENDPOINTS[1], n=10, seed=7)
        with pytest.raises(EncoderError):
            encode_word(ds, encoder="nonexistent")

    def test_identity_stub_round_trips(self, tmp_path, hma):
        fixed = hma.word("P")
        register_encoder("identity-stub", lambda data, scale: fixed)
        ds = sample_person_fou(STUDENT_ENDPOINTS[1], n=10, seed=7)
        word = encode_word(ds, encoder="identity-stub")
        cb = Codebook(hma.scale, (word,), encoder_tag="identity-stub")
        path = tmp_path / "cb.txt"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded.words[0].umf == fixed.umf
        assert loaded.words[0].lmf == fixed.lmf

    def test_hull_stub_support_within_elicited_bounds(self):
        def hull(data, scale):
            ls = [l for l, _ in data.pairs]
            rs = [r for _, r in data.pairs]
            support = Trapezoid(min(ls), min(ls), max(rs), max(rs))
            return IT2Word(data.word, support, support)

        register_encoder("minmax-hull", hull)
        ds = sample_person_fou(STUDENT_ENDPOINTS[1], n=50, seed=7)  # P: [0,.5] x [4.5,5.5]
        word = encode_word(ds, encoder="minmax-hull")
        assert word.umf.a >= 0.0
        assert word.umf.d <= 5.5


class TestFileFormat:
    def test_save_load_round_trip(self, hma, tmp_path):
        path = tmp_path / "hma.txt"
        save_codebook(hma, path)
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

    def test_stale_centroid_cache_warns(self):
        text = """codebook v1
word w
umf = 1 2 3 4
lmf = 1.5 2 3 3.5 0.9
centroid = 9.0 9.5 9.25
"""
        with pytest.warns(UserWarning, match="centroid"):
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
        cb = Codebook(hma.scale, hma.words, "HMA", generator="pcg64", seed=7)
        loaded = parse_codebook(format_codebook(cb))
        assert loaded.encoder_tag == "HMA"
        assert loaded.generator == "pcg64"
        assert loaded.seed == 7

    def test_custom_scale_pipeline(self):
        # scales other than 0-10 flow through load, centroid and inference
        from lingopt.reasoning import Objective, Rule, RuleBase, solve_solop

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
        out = solve_solop(rb, ("large",), cb)
        assert out.decoded == "large"
        assert 0.0 <= out.fou.umf.a and out.fou.umf.d <= 5.0
