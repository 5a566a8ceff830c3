import pytest

from lingopt.fuzzy import DomainError
from lingopt.similarity import rank_by_centroid
from lingopt.twotuple import (
    OrdinalTermSet,
    OutOfScaleError,
    TwoTuple,
    molop_solve,
    overflow_check,
    solop_aggregate,
    to_two_tuple,
)

FIVE = OrdinalTermSet(("VP", "P", "A", "G", "VG"))
TWO = OrdinalTermSet(("S", "B"))


class TestToTwoTuple:
    def test_round_down_case(self):
        t = to_two_tuple(2.2, FIVE)
        assert (t.index, t.alpha) == (2, pytest.approx(0.2))
        assert FIVE.label(t.index) == "P"

    def test_integer_beta(self):
        t = to_two_tuple(3.0, FIVE)
        assert (t.index, t.alpha) == (3, 0.0)

    def test_negative_translation(self):
        t = to_two_tuple(1.67, TWO)
        assert t.index == 2
        assert t.alpha == pytest.approx(-0.33)
        assert TWO.label(t.index) == "B"

    def test_rounding_is_half_up(self):
        assert to_two_tuple(1.5, TWO).index == 2
        assert to_two_tuple(2.5, FIVE).index == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfScaleError):
            to_two_tuple(0.4, FIVE)
        with pytest.raises(OutOfScaleError):
            to_two_tuple(5.5, FIVE)

    def test_round_trip(self):
        for index in range(1, 6):
            for alpha in (-0.5, -0.25, 0.0, 0.3, 0.49):
                t = to_two_tuple(index + alpha, FIVE)
                if index + alpha < 0.5:
                    continue
                assert t.index == index
                assert t.alpha == pytest.approx(alpha, abs=1e-12)


class TestSolopAggregate:
    def test_first_student(self):
        t = solop_aggregate((1, 2, 3, 3, 2), FIVE)
        assert (FIVE.label(t.index), t.alpha) == ("P", pytest.approx(0.2))

    def test_fourth_student(self):
        t = solop_aggregate((2, 3, 4, 3, 4), FIVE)
        assert (FIVE.label(t.index), t.alpha) == ("A", pytest.approx(0.2))

    def test_third_student_divergence_from_printed_form(self):
        # beta = 3.4 encodes as (A, 0.4); the published table wrote the same
        # beta as (G, -0.6), which is not a valid symbolic translation
        t = solop_aggregate((4, 4, 4, 2, 3), FIVE)
        assert (FIVE.label(t.index), t.alpha) == ("A", pytest.approx(0.4))
        assert t.beta == pytest.approx(3.4)
        with pytest.raises(DomainError):
            TwoTuple(4, -0.6)

    def test_all_equal_indices(self):
        t = solop_aggregate((4, 4, 4), FIVE)
        assert (t.index, t.alpha) == (4, 0.0)

    def test_aggregate_within_index_hull(self):
        t = solop_aggregate((1, 5, 3), FIVE)
        assert 1.0 <= t.beta <= 5.0


class TestMolopSolve:
    def test_first_student_rows(self):
        rules = [
            ((1, 2, 3, 3, 2, 2, 3), (2, 3)),  # mid-semester: firing 216
            ((1, 2, 1, 2, 3, 3, 3), (2, 3)),  # end-semester: firing 108
        ]
        core, elective = molop_solve(rules, FIVE)
        assert (FIVE.label(core.index), core.alpha) == ("P", 0.0)
        assert (FIVE.label(elective.index), elective.alpha) == ("A", 0.0)

    def test_toy_system(self):
        rules = [((1, 1), (1, 2)), ((1, 2), (2, 1))]
        f1, f2 = molop_solve(rules, TWO)
        assert (TWO.label(f1.index), round(f1.alpha, 2)) == ("B", -0.33)
        assert (TWO.label(f2.index), round(f2.alpha, 2)) == ("S", 0.33)

    def test_single_rule_returns_consequent_exactly(self):
        (out,) = molop_solve([((3, 2), (4,))], FIVE)
        assert (out.index, out.alpha) == (4, 0.0)

    def test_firing_scale_invariance(self):
        # scaling every firing by a constant cannot change the weighted mean;
        # here all antecedent products are doubled via an extra index-2 slot
        base = [((1, 2), (2, 3)), ((3, 1), (4, 1))]
        scaled = [((1, 2, 2), (2, 3)), ((3, 1, 2), (4, 1))]
        for b, s in zip(molop_solve(base, FIVE), molop_solve(scaled, FIVE)):
            assert b.beta == pytest.approx(s.beta, abs=1e-12)


class TestCompare:
    def test_total_order_on_betas(self):
        tuples = {
            "SS1": to_two_tuple(2.2, FIVE),
            "SS2": to_two_tuple(3.6, FIVE),
            "SS3": to_two_tuple(3.4, FIVE),
            "SS4": to_two_tuple(3.2, FIVE),
        }
        ranked = rank_by_centroid([(k, (v.beta,)) for k, v in tuples.items()], ["max"])
        assert ranked == ["SS2", "SS3", "SS4", "SS1"]

    def test_fixture_table_ranking_with_core_tiebreak(self):
        # printed overall performances: elective column first, core breaks ties
        table = {
            "SS1": (TwoTuple(2, 0.0), TwoTuple(3, 0.0)),
            "SS2": (TwoTuple(4, 0.0), TwoTuple(4, 0.33)),
            "SS3": (TwoTuple(3, 0.0), TwoTuple(3, 0.33)),
            "SS4": (TwoTuple(3, 0.0), TwoTuple(3, 0.0)),
        }
        items = [(label, (elective.beta, core.beta)) for label, (core, elective) in table.items()]
        assert rank_by_centroid(items, ["max", "max"]) == ["SS2", "SS3", "SS4", "SS1"]


class TestOverflow:
    def test_centered_middle_term_stays_inside(self):
        assert overflow_check(TwoTuple(3, 0.0), FIVE) == 0.0

    def test_translated_term_at_top_adjacent_position(self):
        four = OrdinalTermSet(("VP", "P", "A", "G"))
        protrusion = overflow_check(TwoTuple(3, 0.33), four)
        assert protrusion > 0.0
        assert protrusion == pytest.approx(0.33)

    def test_top_term_protrusion_equals_translation(self):
        assert overflow_check(TwoTuple(5, 0.4), FIVE) == pytest.approx(0.4)

    def test_bottom_term_negative_translation(self):
        assert overflow_check(TwoTuple(1, -0.25), FIVE) == pytest.approx(0.25)


class TestTermSet:
    def test_unique_labels_required(self):
        with pytest.raises(DomainError):
            OrdinalTermSet(("A", "A"))

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            FIVE.index("XX")
