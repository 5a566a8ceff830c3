from inspect import ismodule

import pytest

from conftest import format_problem
import lingopt
from lingopt import problems
from lingopt.problems import (
    Alternative,
    EngineMismatchError,
    MOLOP_CONSEQUENTS,
    MST_WORDS,
    EST_WORDS,
    ProblemBundle,
    ProblemError,
    case_molop,
    case_solop,
    load_problem,
    parse_problem,
    sm_toy,
    solve_pr_bundle,
    solve_two_tuple_bundle,
)
from lingopt.reasoning import Objective, Rule, synthesize_consequent


class TestBundles:
    def test_case_solop_shape(self):
        bundle = case_solop()
        assert len(bundle.alternatives) == 4
        assert bundle.ranking == ("overall",)

    def test_case_molop_consequent_words_match_synthesis(self, hma):
        """The stored rule consequents are exactly what equal-weight synthesis
        of the core/elective antecedent groups produces on the HMA codebook;
        the first student's row also matches the worked rules."""
        for student in ("SS1", "SS2", "SS3", "SS4"):
            for test, vec in (("mst", MST_WORDS[student]), ("est", EST_WORDS[student])):
                core = synthesize_consequent(vec[:5], hma).word
                elective = synthesize_consequent(vec[5:], hma).word
                assert (core, elective) == MOLOP_CONSEQUENTS[(student, test)]
        assert MOLOP_CONSEQUENTS[("SS1", "mst")] == ("P", "A")
        assert MOLOP_CONSEQUENTS[("SS1", "est")] == ("P", "A")

    def test_ranking_must_reference_objectives(self):
        with pytest.raises(ProblemError):
            ProblemBundle(
                "x",
                (Objective("f"),),
                (Alternative("a", (Rule("r", ("VP",), ("VP",)),), ("VP",)),),
                ("nope",),
                ("VP", "P"),
            )

    def test_input_length_checked(self):
        with pytest.raises(ProblemError):
            ProblemBundle(
                "x",
                (Objective("f"),),
                (Alternative("a", (Rule("r", ("VP", "P"), ("VP",)),), ("VP",)),),
                ("f",),
                ("VP", "P"),
            )

    def test_alternative_labels_unique(self):
        alt = Alternative("a", (Rule("r", ("VP",), ("VP",)),), ("VP",))
        with pytest.raises(ProblemError, match="duplicate alternative"):
            ProblemBundle("x", (Objective("f"),), (alt, alt), ("f",), ("VP", "P"))

    @pytest.mark.parametrize("label", ["", "a b", "a\tb"])
    @pytest.mark.parametrize("kind", ["alternative", "rule"])
    def test_labels_are_single_tokens(self, kind, label):
        rule = Rule(label if kind == "rule" else "r", ("VP",), ("VP",))
        alt = Alternative(label if kind == "alternative" else "a", (rule,), ("VP",))
        with pytest.raises(ProblemError, match=f"{kind} labels must be single tokens"):
            ProblemBundle("x", (Objective("f"),), (alt,), ("f",), ("VP", "P"))

    @pytest.mark.parametrize("slot", [0, 3])
    def test_slot_outside_the_rules_names_the_alternative(self, slot):
        alt = Alternative("a", (Rule("r", ("A", "VG"), ("auto",)),), ("A", "VG"))
        with pytest.raises(ProblemError, match=f"alternative 'a': objective 'f': slot {slot} is outside"):
            ProblemBundle("x", (Objective("f", slots=(slot,)),), (alt,), ("f",), ("VP", "P"))

    def test_empty_rule_base_is_a_problem_error(self):
        alt = Alternative("a", (), ("VP",))
        with pytest.raises(ProblemError, match="alternative 'a': rule base must contain"):
            ProblemBundle("x", (Objective("f"),), (alt,), ("f",), ("VP", "P"))


class TestPrBundle:
    def test_solop_ranking(self, hma, ia):
        bundle = case_solop()
        for cb in (hma, ia):
            result = solve_pr_bundle(bundle, cb)
            assert result.ranking == ["SS2", "SS3", "SS4", "SS1"]

    def test_molop_ranking_with_tiebreak(self, hma, ia):
        bundle = case_molop()
        for cb in (hma, ia):
            result = solve_pr_bundle(bundle, cb)
            assert result.ranking == ["SS2", "SS4", "SS1", "SS3"]

    def test_molop_tie_is_real(self, hma):
        # the elective means of the first and fourth students coincide, so the
        # ranking genuinely exercises the core-subject tiebreak
        result = solve_pr_bundle(case_molop(), hma)
        e1 = result.outputs["SS1"][1].centroid.mean
        e4 = result.outputs["SS4"][1].centroid.mean
        assert abs(e1 - e4) < 1e-9
        assert result.outputs["SS4"][0].centroid.mean > result.outputs["SS1"][0].centroid.mean

    def test_solve_reuses_the_validated_rule_bases(self, hma, monkeypatch):
        bundle = case_molop()
        assert [rb.rules for rb in bundle.rule_bases] == [alt.rules for alt in bundle.alternatives]
        monkeypatch.setattr(problems, "RuleBase", lambda *args: pytest.fail("rule base built again"))
        assert solve_pr_bundle(bundle, hma).ranking == ["SS2", "SS4", "SS1", "SS3"]

    def test_missing_input_is_engine_mismatch(self, hma):
        with pytest.raises(EngineMismatchError):
            solve_pr_bundle(sm_toy(), hma)


class TestTwoTupleBundle:
    def test_solve_reuses_the_bundle_term_set(self, monkeypatch):
        bundle = case_molop()
        assert bundle.term_set.terms == bundle.terms
        monkeypatch.setattr(problems, "OrdinalTermSet", lambda *args: pytest.fail("term set built again"))
        assert solve_two_tuple_bundle(bundle).ranking == ["SS2", "SS4", "SS1", "SS3"]

    def test_solop_overall_performances(self):
        bundle = case_solop()
        result = solve_two_tuple_bundle(bundle)
        ts = bundle.term_set
        rendered = {k: (ts.label(v[0].index), round(v[0].alpha, 2)) for k, v in result.outputs.items()}
        assert rendered == {
            "SS1": ("P", 0.2),
            "SS2": ("G", -0.4),
            "SS3": ("A", 0.4),
            "SS4": ("A", 0.2),
        }
        assert result.ranking == ["SS2", "SS3", "SS4", "SS1"]

    def test_molop_first_student(self):
        bundle = case_molop()
        core, elective = solve_two_tuple_bundle(bundle).outputs["SS1"]
        assert (bundle.term_set.label(core.index), core.alpha) == ("P", 0.0)
        assert (bundle.term_set.label(elective.index), elective.alpha) == ("A", 0.0)

    def test_toy_system(self):
        bundle = sm_toy()
        f1, f2 = solve_two_tuple_bundle(bundle).outputs["system"]
        assert (bundle.term_set.label(f1.index), round(f1.alpha, 2)) == ("B", -0.33)
        assert (bundle.term_set.label(f2.index), round(f2.alpha, 2)) == ("S", 0.33)

    def test_auto_consequents_rejected(self):
        bundle = ProblemBundle(
            "x",
            (Objective("f1"), Objective("f2")),
            (Alternative("a", (Rule("r", ("VP", "P"), ("auto", "auto")),), ("VP", "P")),),
            ("f1",),
            ("VP", "P", "A", "G", "VG"),
        )
        with pytest.raises(EngineMismatchError):
            solve_two_tuple_bundle(bundle)


class TestProblemFiles:
    def test_round_trip_fixtures(self):
        for fixture in (case_solop, case_molop, sm_toy):
            bundle = fixture()
            back = parse_problem(format_problem(bundle))
            assert back.objectives == bundle.objectives
            assert back.ranking == bundle.ranking
            assert back.terms == bundle.terms
            assert back.alternatives == bundle.alternatives

    def test_load_problem_file(self, tmp_path, hma):
        path = tmp_path / "problem.txt"
        path.write_text(format_problem(case_solop()))
        bundle = load_problem(path)
        assert solve_pr_bundle(bundle, hma).ranking == ["SS2", "SS3", "SS4", "SS1"]

    def test_unknown_fixture_rejected(self):
        with pytest.raises(ProblemError):
            load_problem("case-unknown")

    def test_malformed_file(self):
        with pytest.raises(ProblemError):
            parse_problem("problem v1\nobjective = f max\nbogus line without equals")

    def test_rule_reference_checked(self):
        text = """problem v1
terms = VP P
objective = f max
alternative a | rules = missing | input = VP
"""
        with pytest.raises(ProblemError, match="missing"):
            parse_problem(text)

    def test_duplicate_rule_label_rejected(self):
        text = """problem v1
terms = VP P
objective = f max
rule r | VP | VP
rule r | P | P
alternative a | rules = r | input = VP
"""
        with pytest.raises(ProblemError, match="duplicate"):
            parse_problem(text)


def test_package_exports_no_modules():
    # importing the names binds the submodules in the package too
    assert lingopt.__all__ and not [name for name in lingopt.__all__ if ismodule(getattr(lingopt, name))]
