import numpy as np
import pytest

from lingopt.fuzzy import DomainError
from lingopt.tsukamoto import (
    DECREASING,
    INCREASING,
    EqualityConstraint,
    MonotoneMf,
    NoRuleFiredError,
    TsukamotoRule,
    crisp_output,
    fixture,
    optimize,
)


class TestMonotoneMf:
    def test_linear_kinds(self):
        inc, dec = INCREASING, DECREASING
        assert inc(0.25) == 0.25
        assert dec(0.25) == 0.75
        assert inc.inverse(0.4) == 0.4
        assert dec.inverse(0.4) == pytest.approx(0.6)

    def test_custom_inverse_round_trip(self):
        xs = np.linspace(0, 1, 11)
        mf = MonotoneMf(xs, xs**2 * 0.9 + 0.05)
        for x in (0.1, 0.5, 0.9):
            assert mf.inverse(mf(x)) == pytest.approx(x, abs=1e-9)

    def test_non_monotone_rejected(self):
        with pytest.raises(DomainError, match="monotone"):
            MonotoneMf([0, 0.5, 1.0], [0.0, 1.0, 0.0])


class TestCrispOutput:
    def test_matches_closed_form_on_grid(self):
        # the two-rule system whose crisp objective is y1 + y2 - 2*y1*y2
        rules, _, _ = fixture("sm-solop")
        ys = np.linspace(0, 1, 101)
        worst = 0.0
        for y1 in ys:
            if y1 == 1.0:
                continue  # total firing is 1 - y1: the whole column is undefined
            for y2 in ys:
                (f,) = crisp_output(rules, (y1, y2))
                worst = max(worst, abs(f - (y1 + y2 - 2 * y1 * y2)))
        assert worst <= 1e-12

    def test_point_value(self):
        rules, _, _ = fixture("sm-solop")
        (f,) = crisp_output(rules, (0.25, 0.25))
        assert f == pytest.approx(0.375, abs=1e-12)

    def test_origin(self):
        rules, _, _ = fixture("sm-solop")
        (f,) = crisp_output(rules, (0.0, 0.0))
        assert f == 0.0

    def test_complementary_objectives(self):
        rules, _, _ = fixture("sm-molop")
        f1, f2 = crisp_output(rules, (0.5, 0.25))
        assert f2 == pytest.approx(1.0 - (0.5 + 0.25 - 2 * 0.5 * 0.25), abs=1e-12)
        assert f1 + f2 == pytest.approx(1.0, abs=1e-12)

    def test_complement_holds_across_grid(self):
        rules, _, _ = fixture("sm-molop")
        for y1 in np.linspace(0, 0.99, 34):
            for y2 in np.linspace(0, 0.99, 34):
                f1, f2 = crisp_output(rules, (y1, y2))
                assert f1 + f2 == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_firing_rejected(self):
        rules, _, _ = fixture("sm-solop")
        with pytest.raises(NoRuleFiredError):
            crisp_output(rules, (1.0, 1.0))

    def test_output_within_fired_inverse_hull(self):
        rules, _, _ = fixture("sm-molop")
        rng = np.random.default_rng(4)
        for _ in range(200):
            y = rng.uniform(0, 0.99, 2)
            firings = []
            for r in rules:
                alpha = float(r.antecedents[0](y[0]) * r.antecedents[1](y[1]))
                firings.append(alpha)
            for k, f in enumerate(crisp_output(rules, y)):
                inverses = [
                    float(r.consequents[k].inverse(a)) for r, a in zip(rules, firings) if a > 0
                ]
                assert min(inverses) - 1e-12 <= f <= max(inverses) + 1e-12


class TestOptimize:
    def test_single_objective_minimum(self):
        rules, constraint, directions = fixture("sm-solop")
        result = optimize(rules, constraint, directions)
        best_points = np.array(result.points)
        assert np.min(np.abs(best_points[:, 0] - 0.25)) <= 1e-3
        assert result.values[0][0] == pytest.approx(3 / 8, abs=1e-3)

    def test_max_min_compromise_finds_both_optima(self):
        rules, constraint, directions = fixture("sm-molop")
        result = optimize(rules, constraint, directions)
        pts = {tuple(round(v, 6) for v in p) for p in result.points}
        assert (0.5, 0.25) in pts
        assert (0.25, 0.5) in pts
        for values in result.values:
            assert values[0] == pytest.approx(0.5, abs=1e-3)
            assert values[1] == pytest.approx(0.5, abs=1e-3)

    def test_near_constant_objective_reports_every_grid_point(self):
        # exp-shaped antecedents make the firing product depend only on
        # y1 + y2, so the objective is constant along the constraint line up
        # to rounding: the membership functions are sampled on the step grid,
        # so no grid point meets an interpolation error
        xs = np.linspace(0, 1, 101)
        expish = MonotoneMf(xs, np.exp(xs) / np.e)
        rules = (TsukamotoRule((expish, expish), (INCREASING,)),)
        constraint = EqualityConstraint(1.0)
        result = optimize(rules, constraint, ("max",), step=1e-2)
        assert len(result.points) == 101

    def test_empty_feasible_set_rejected(self):
        rules, _, directions = fixture("sm-solop")
        with pytest.raises(DomainError):
            optimize(rules, EqualityConstraint(5.0), directions)

    def test_direction_count_checked(self):
        rules, constraint, _ = fixture("sm-solop")
        with pytest.raises(DomainError):
            optimize(rules, constraint, ("max", "min"))
