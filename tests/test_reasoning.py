import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_alpha_cuts_are_weighted_averages, decode, format_codebook
from lingopt.codebook import Codebook, CodebookError, parse_codebook
from lingopt.fuzzy import DomainError
import lingopt.codebook as codebook
import lingopt.reasoning as reasoning
from lingopt.reasoning import (
    AUTO,
    AUTO_WORD,
    NoRuleFiredError,
    Objective,
    Rule,
    RuleBase,
    fire,
    fire_rules,
    lwa,
    solve_molop,
    synthesize_consequent,
)
from lingopt.similarity import centroid_ekm_from_samples

SS1_MOLOP_INPUT = ("VP", "P", "A", "A", "P", "P", "A")
SS1_EST_ANTECEDENTS = ("VP", "P", "VP", "P", "A", "A", "A")


class TestFire:
    def test_input_matching_own_rule_fires_at_one(self, hma):
        rule = Rule("mst", SS1_MOLOP_INPUT, ("P", "A"))
        level = fire(rule, SS1_MOLOP_INPUT, hma)
        assert level == pytest.approx(1.0)
        assert isinstance(level, float)

    def test_cross_firing_hma(self, hma):
        rule = Rule("est", SS1_EST_ANTECEDENTS, ("P", "A"))
        level = fire(rule, SS1_MOLOP_INPUT, hma)
        assert level == pytest.approx(0.08, abs=0.02)

    def test_cross_firing_ia(self, ia):
        rule = Rule("est", SS1_EST_ANTECEDENTS, ("P", "A"))
        level = fire(rule, SS1_MOLOP_INPUT, ia)
        assert level == pytest.approx(0.06, abs=0.02)

    def test_unknown_word_rejected(self, hma):
        rule = Rule("r", ("VP", "P"), ("A",))
        with pytest.raises(Exception, match="XX"):
            fire(rule, ("VP", "XX"), hma)

    def test_length_mismatch(self, hma):
        rule = Rule("r", ("VP", "P"), ("A",))
        with pytest.raises(DomainError):
            fire(rule, ("VP",), hma)


class TestLwa:
    def test_identical_consequents_reproduce_word(self, hma):
        g = hma.word("G")
        out = lwa([g, g], [1.0, 0.10])
        np.testing.assert_allclose(out.umf.vertices, g.umf.vertices, atol=1e-9)
        np.testing.assert_allclose(out.lmf.vertices, g.lmf.vertices, atol=1e-9)
        assert out.lmf.h == g.lmf.h

    def test_single_rule_firing_one_is_identity(self, hma):
        a = hma.word("A")
        out = lwa([a], [1.0])
        np.testing.assert_allclose(out.umf.vertices, a.umf.vertices, atol=1e-12)
        np.testing.assert_allclose(out.lmf.vertices, a.lmf.vertices, atol=1e-12)

    def test_elective_mix_centroid(self, hma):
        # combining A (weight 1) and P (weight .38): printed mean 4.35
        out = lwa([hma.word("A"), hma.word("P")], [1.0, 0.38])
        xs = hma.discretization().grid()
        c = centroid_ekm_from_samples(xs, out.lmf.membership_grid(xs), out.umf.membership_grid(xs))
        assert c.mean == pytest.approx(4.35, abs=0.05)

    def test_zero_firings_rejected(self, hma):
        with pytest.raises(NoRuleFiredError):
            lwa([hma.word("A")], [0.0])

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_firing_outside_unit_interval_rejected(self, hma, bad):
        with pytest.raises(DomainError):
            lwa([hma.word("A"), hma.word("G")], [1.0, bad])

    def test_zero_weight_consequent_drops_out(self, hma):
        a, g = hma.word("A"), hma.word("G")
        with_zero = lwa([a, g], [1.0, 0.0])
        np.testing.assert_allclose(with_zero.umf.vertices, a.umf.vertices, atol=1e-12)

    def test_scalar_firing_matches_direct_weighted_average(self, hma, ia):
        # every alpha-cut of the output trapezoid is the firing-weighted
        # average of the consequents' alpha-cuts at that level
        for cb in (hma, ia):
            words = [cb.word("P"), cb.word("A"), cb.word("G")]
            firings = [0.9, 0.4, 0.25]
            assert_alpha_cuts_are_weighted_averages(lwa(words, firings), words, firings)

    def test_output_height_is_min_of_fired(self, ia):
        out = lwa([ia.word("A"), ia.word("G")], [1.0, 0.24])
        assert out.lmf.h == pytest.approx(0.88)
        # a zero-firing low consequent must not drag the height down
        out = lwa([ia.word("G"), ia.word("A")], [1.0, 0.0])
        assert out.lmf.h == 1.0


class TestSynthesize:
    def test_ss1_core_mean_and_word(self, hma):
        s = synthesize_consequent(("VP", "P", "A", "A", "P"), hma)
        assert s.centroid.mean == pytest.approx(3.33, abs=0.05)
        assert s.word == "P"

    def test_idempotent_on_repeated_word(self, hma):
        s = synthesize_consequent(("G",) * 5, hma)
        assert s.word == "G"
        np.testing.assert_allclose(s.fou.umf.vertices, hma.word("G").umf.vertices, atol=1e-9)

    def test_ss2_core_mean_and_word(self, hma):
        s = synthesize_consequent(("G", "VG", "A", "A", "A"), hma)
        assert s.centroid.mean == pytest.approx(6.2, abs=0.05)
        assert s.word == "G"

    def test_elective_pair_tie_resolves_upward(self, hma):
        # P/A mix sits exactly between the two centroid means; the higher word wins
        s = synthesize_consequent(("P", "A"), hma)
        dist_p = abs(s.centroid.mean - hma.word("P").centroid.mean)
        dist_a = abs(s.centroid.mean - hma.word("A").centroid.mean)
        assert dist_p == pytest.approx(dist_a, abs=0.02)
        assert s.word == "A"

    def test_empty_rejected(self, hma):
        with pytest.raises(DomainError):
            synthesize_consequent((), hma)


class TestDecode:
    def test_codebook_words_decode_to_themselves(self, hma, ia):
        for cb in (hma, ia):
            for w in cb.words:
                assert decode(w, cb) == w.name

    def test_synthesized_ss2_decodes_good(self, hma):
        fou = synthesize_consequent(("G", "VG", "A", "A", "A"), hma).fou
        assert decode(fou, hma) == "G"

    def test_centroid_method_breaks_pa_tie_upward(self, hma):
        # the nearest centroid mean, as synthesis decodes, breaks the P/A tie upward
        assert synthesize_consequent(("P", "A"), hma).word == "A"

    def test_jaccard_method_agrees_on_pa_mix(self, hma):
        # the similarity route lands on the same word, so Jaccard decoding
        # and synthesis both assign the mixed elective consequent to A
        fou = synthesize_consequent(("P", "A"), hma).fou
        assert decode(fou, hma) == "A"


class TestRuleBase:
    @pytest.mark.parametrize("slot", [0, 3])
    def test_slot_outside_the_antecedents_is_refused(self, hma, slot):
        # slot 0 once read the last antecedent, and slot 3 an index past the end
        with pytest.raises(DomainError, match=f"slot {slot} is outside the 2 antecedents"):
            solve_molop(RuleBase((Rule("r", ("A", "VG"), (AUTO,)),), (Objective("f", slots=(slot,)),)),
                        ("A", "VG"), hma)

    def test_rules_without_antecedents_are_refused(self):
        with pytest.raises(DomainError, match="at least one antecedent"):
            RuleBase((Rule("r", (), ("A",)),), (Objective("f"),))


class TestSolve:
    def test_solop_own_rule(self, hma):
        core = ("VP", "P", "A", "A", "P")
        rb = RuleBase((Rule("SS1", core, (AUTO,)),), (Objective("overall"),))
        (out,) = solve_molop(rb, core, hma)
        assert out.centroid.mean == pytest.approx(3.33, abs=0.05)
        assert out.decoded == "P"
        assert out.firings[0] == pytest.approx(1.0)

    def test_input_matching_one_rule_with_others_silent(self, hma):
        # far-apart antecedents: only the matching rule contributes
        rb = RuleBase(
            (
                Rule("low", ("VP", "VP"), ("VP",)),
                Rule("high", ("VG", "VG"), ("VG",)),
            ),
            (Objective("f"),),
        )
        (out,) = solve_molop(rb, ("VG", "VG"), hma)
        vg = hma.word("VG")
        assert out.firings[0] == 0.0
        np.testing.assert_allclose(out.fou.umf.vertices, vg.umf.vertices, atol=1e-9)
        assert out.decoded == "VG"

    def test_no_rule_fired(self, hma):
        rb = RuleBase((Rule("r", ("VP",), ("VP",)),), (Objective("f"),))
        with pytest.raises(NoRuleFiredError):
            solve_molop(rb, ("VG",), hma)

    def test_molop_ss1_outputs_are_codebook_words(self, hma):
        rb = RuleBase(
            (
                Rule("mst", SS1_MOLOP_INPUT, ("P", "A")),
                Rule("est", SS1_EST_ANTECEDENTS, ("P", "A")),
            ),
            (Objective("core", slots=tuple(range(1, 6))), Objective("elective", slots=(6, 7))),
        )
        core, elective = solve_molop(rb, SS1_MOLOP_INPUT, hma)
        np.testing.assert_allclose(core.fou.umf.vertices, hma.word("P").umf.vertices, atol=1e-9)
        np.testing.assert_allclose(core.fou.lmf.vertices, hma.word("P").lmf.vertices, atol=1e-9)
        np.testing.assert_allclose(elective.fou.umf.vertices, hma.word("A").umf.vertices, atol=1e-9)
        assert (core.decoded, elective.decoded) == ("P", "A")

    def test_molop_ss3_means(self, hma):
        rb = RuleBase(
            (
                Rule("mst", ("G", "G", "G", "P", "A", "P", "A"), ("A", "A")),
                Rule("est", ("G", "G", "VG", "A", "A", "P", "P"), ("G", "P")),
            ),
            (Objective("core", slots=tuple(range(1, 6))), Objective("elective", slots=(6, 7))),
        )
        core, elective = solve_molop(rb, ("G", "G", "G", "P", "A", "P", "A"), hma)
        assert core.centroid.mean == pytest.approx(5.65, abs=0.05)
        assert elective.centroid.mean == pytest.approx(4.35, abs=0.05)

    def test_single_rule_molop_returns_consequents(self, hma):
        rb = RuleBase(
            (Rule("only", ("A", "G"), ("A", "G")),),
            (Objective("f1"), Objective("f2")),
        )
        f1, f2 = solve_molop(rb, ("A", "G"), hma)
        np.testing.assert_allclose(f1.fou.umf.vertices, hma.word("A").umf.vertices, atol=1e-9)
        np.testing.assert_allclose(f2.fou.umf.vertices, hma.word("G").umf.vertices, atol=1e-9)

    @pytest.mark.parametrize(
        "entries,extra",
        [((AUTO, AUTO, AUTO), 0), ((AUTO, AUTO_WORD, AUTO), 2)],
        ids=["auto", "auto-word"],
    )
    def test_only_output_and_auto_word_fous_are_sampled(self, hma, monkeypatch, entries, extra):
        # an ``auto`` entry is averaged from codebook rows; an ``auto-word``
        # entry is sampled once for the centroid its decoded word comes from
        calls = {}
        for name in ("sample_word", "centroid_ekm_from_samples"):
            def counted(*args, _fn=getattr(reasoning, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(reasoning, name, counted)
        rb = RuleBase(
            (Rule("r1", ("A", "G", "P"), entries), Rule("r2", ("A", "G", "VG"), entries)),
            (Objective("f1"), Objective("f2", slots=(1, 3)), Objective("f3", slots=(2, 2))),
        )
        solve_molop(rb, ("A", "G", "P"), hma)
        assert calls == {"sample_word": 3 + extra, "centroid_ekm_from_samples": 3 + extra}

    def test_auto_word_decodes_a_codebook_built_in_code(self, hma):
        # the loader fills each word's centroid; a codebook built in code has
        # none, and the decode takes the centroid the loader would have filled
        bare = Codebook(hma.scale, tuple(replace(w, centroid=None) for w in hma.words))
        rb = RuleBase((Rule("r1", ("A", "G"), (AUTO_WORD,)),), (Objective("f1"),))
        got, = solve_molop(rb, ("A", "G"), bare)
        want, = solve_molop(rb, ("A", "G"), parse_codebook(format_codebook(bare)))
        assert (got.fou.umf, got.fou.lmf, got.decoded) == (want.fou.umf, want.fou.lmf, want.decoded)

    def test_code_built_codebook_computes_each_centroid_once(self, hma, monkeypatch):
        # the centroid means are kept with the codebook: two solves of three
        # ``auto-word`` rules compute each word's centroid once, and the
        # sampling kept for the solves' grid stays in its slot
        calls = []
        ekm = codebook.centroid_ekm
        monkeypatch.setattr(codebook, "centroid_ekm", lambda w, d: calls.append((w.name, d)) or ekm(w, d))
        bare = Codebook(hma.scale, tuple(replace(w, centroid=None) for w in hma.words))
        rules = [Rule(f"r{i}", ants, (AUTO_WORD,)) for i, ants in enumerate([("A", "G"), ("P", "G"), ("A", "VG")])]
        rb = RuleBase(tuple(rules), (Objective("f1"),))
        grid = bare.discretization(201)
        scb = bare.sampled(grid)
        first, = solve_molop(rb, ("A", "G"), bare, grid)
        second, = solve_molop(rb, ("A", "G"), bare, grid)
        assert calls == [(name, bare.discretization()) for name in bare.names]
        assert bare.sampled(grid) is scb
        assert (second.fou.umf, second.fou.lmf, second.decoded) == (first.fou.umf, first.fou.lmf, first.decoded)


UNKNOWN = "unknown word {!r}; codebook has ['VP', 'P', 'A', 'G', 'VG']"


class TestSolveErrors:
    """Each fault raises the error of the first check it fails: the input
    count, then the input words, the antecedent words, whether any rule
    fired, and last the consequent words."""

    @pytest.mark.parametrize("antecedents,consequent,inputs,error,message", [
        (("A", "G"), "G", ("A",), DomainError, "rule 'r1' expects 2 inputs, got 1"),
        (("A", "YY"), "XX", ("ZZ",), DomainError, "rule 'r1' expects 2 inputs, got 1"),
        (("A", "G"), "G", ("ZZ", "G"), CodebookError, UNKNOWN.format("ZZ")),
        (("A", "YY"), "XX", ("ZZ", "G"), CodebookError, UNKNOWN.format("ZZ")),
        (("A", "YY"), "XX", ("A", "G"), CodebookError, UNKNOWN.format("YY")),
        (("VG", "VG"), "G", ("VP", "VP"), NoRuleFiredError,
         "no rule fired for input ['VP', 'VP']; refusing to emit a default word"),
        (("VG", "VG"), "XX", ("VP", "VP"), NoRuleFiredError,
         "no rule fired for input ['VP', 'VP']; refusing to emit a default word"),
        (("A", "G"), "XX", ("A", "G"), CodebookError, UNKNOWN.format("XX")),
    ], ids=["count", "count-first", "input", "input-first", "antecedent-first", "no-fire",
            "no-fire-first", "consequent"])
    def test_error_class_and_message(self, hma, antecedents, consequent, inputs, error, message):
        rb = RuleBase((Rule("r1", antecedents, ("P", consequent)),), (Objective("f1"), Objective("f2")))
        with pytest.raises(error) as info:
            solve_molop(rb, inputs, hma)
        assert type(info.value) is error and str(info.value) == message

    def test_fire_rules_checks_inputs_before_antecedents(self, hma):
        rules = [Rule("r1", ("A", "YY"), ()), Rule("r2", ("A",), ())]
        with pytest.raises(DomainError, match=r"^rule 'r2' expects 1 inputs, got 2$"):
            fire_rules(rules, ("ZZ", "G"), hma.sampled())
        with pytest.raises(CodebookError, match="^" + re.escape(UNKNOWN.format("ZZ")) + "$"):
            fire_rules(rules[:1], ("ZZ", "G"), hma.sampled())
        with pytest.raises(CodebookError, match="^" + re.escape(UNKNOWN.format("YY")) + "$"):
            fire_rules(rules[:1], ("A", "G"), hma.sampled())


class TestConsequentSearch:
    def test_ss3_consequent_words_are_unique_reconstruction(self, hma):
        """Exhaustive search over word pairs: only (A, G) core and (A, P)
        elective reproduce the printed centroids for the third student."""
        firings = [1.0, 0.38]
        xs = hma.discretization().grid()

        def centroid_of(pair):
            out = lwa([hma.word(pair[0]), hma.word(pair[1])], firings)
            return centroid_ekm_from_samples(xs, out.lmf.membership_grid(xs), out.umf.membership_grid(xs))

        def hits(cl, cr, mean):
            out = []
            for w1 in hma.names:
                for w2 in hma.names:
                    c = centroid_of((w1, w2))
                    if max(abs(c.cl - cl), abs(c.cr - cr), abs(c.mean - mean)) <= 0.05:
                        out.append((w1, w2))
            return out

        assert hits(5.48, 5.82, 5.65) == [("A", "G")]
        assert hits(4.2, 4.51, 4.35) == [("A", "P")]
