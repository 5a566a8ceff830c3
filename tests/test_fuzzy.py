import numpy as np
import pytest

from conftest import FouShape, alpha_cut, classify_fou, membership_grid_oracle, random_word
from lingopt.fuzzy import (
    DomainError,
    Interval,
    IT2Word,
    Trapezoid,
)
from lingopt.reasoning import Objective
from lingopt.similarity import rank_by_centroid
from lingopt.tsukamoto import fixture, optimize

SCALE = Interval(0.0, 10.0)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)

    def test_degenerate_allowed(self):
        iv = Interval(5.0, 5.0)
        assert (iv.lo, iv.hi) == (5.0, 5.0)


class TestTrapezoid:
    def test_vertex_ordering_enforced(self):
        with pytest.raises(DomainError):
            Trapezoid(0, 3, 2, 4)

    def test_height_range(self):
        with pytest.raises(DomainError):
            Trapezoid(0, 1, 2, 3, h=0.0)
        with pytest.raises(DomainError):
            Trapezoid(0, 1, 2, 3, h=1.5)

    def test_membership_piecewise(self):
        t = Trapezoid(1, 3, 5, 9, h=0.8)
        assert t.membership(0.5) == 0.0
        assert t.membership(2.0) == pytest.approx(0.4)
        assert t.membership(4.0) == pytest.approx(0.8)
        assert t.membership(7.0) == pytest.approx(0.4)
        assert t.membership(9.5) == 0.0

    def test_vertical_edge_membership(self):
        # a == b: plateau starts at the left vertex itself
        t = Trapezoid(0, 0, 2.04, 3.84)
        assert t.membership(0.0) == 1.0
        xs = np.array([0.0, 1.0, 3.0, 5.0])
        np.testing.assert_allclose(t.membership_grid(xs), [1.0, 1.0, (3.84 - 3) / 1.8, 0.0])

    def test_grid_matches_scalar(self):
        t = Trapezoid(1.2, 2.5, 6.0, 8.8, h=0.7)
        xs = np.linspace(0, 10, 101)
        np.testing.assert_allclose(t.membership_grid(xs), [t.membership(x) for x in xs])


def assert_grid_matches_oracle(t: Trapezoid, xs: np.ndarray) -> None:
    assert t.membership_grid(xs).tobytes() == membership_grid_oracle(t, xs).tobytes(), t


class TestMembershipGridOracle:
    """The index-range form writes the same bits as the mask form."""

    def test_random_words_on_grid_slices(self):
        rng = np.random.default_rng(24)
        for points in (101, 1001, 10001):
            grid = np.linspace(0.0, 10.0, points)
            for _ in range(100):
                w = random_word(rng)
                start, stop = np.sort(rng.integers(0, points + 1, 2))
                for t in (w.umf, w.lmf):
                    assert_grid_matches_oracle(t, grid)
                    assert_grid_matches_oracle(t, grid[start:stop])

    @pytest.mark.parametrize("vertices", [
        (0.0, 0.0, 2.04, 3.84), (6.44, 7.96, 10.0, 10.0), (2.0, 2.0, 5.0, 5.0), (3.0, 3.0, 3.0, 3.0),
        (4.0, 4.0, 4.0, 6.0), (1.0, 4.0, 4.0, 4.0), (0.0, 0.0, 10.0, 10.0), (2.05, 2.05, 7.95, 7.95),
    ])
    def test_vertical_edges(self, vertices):
        for h in (1.0, 0.55):
            assert_grid_matches_oracle(Trapezoid(*vertices, h), np.linspace(0.0, 10.0, 101))

    def test_vertices_on_grid_points(self):
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 10.0, 201)
        for _ in range(500):
            # repeated indices make vertical edges and empty ranges
            idx = np.sort(rng.integers(0, grid.size, 4))
            t = Trapezoid(*grid[idx].tolist(), rng.uniform(0.2, 1.0))
            assert_grid_matches_oracle(t, grid)
            assert_grid_matches_oracle(t, grid[idx[0]:idx[3] + 1])


class TestAlphaCut:
    def test_support_at_zero(self):
        # VP upper trapezoid: support is the full base
        cut = alpha_cut(Trapezoid(0, 0, 2.04, 3.84), 0.0)
        assert (cut.lo, cut.hi) == (0.0, 3.84)

    def test_core_at_height(self):
        cut = alpha_cut(Trapezoid(0, 0, 2.04, 3.84), 1.0)
        assert (cut.lo, cut.hi) == (0.0, 2.04)

    def test_half_height_interpolation(self):
        # hand interpolation at alpha = h/2: lo = 2 + .5*(4.99-2), hi = 7.91 - .5*(7.91-4.99)
        cut = alpha_cut(Trapezoid(2, 4.99, 4.99, 7.91, h=0.88), 0.44)
        assert cut.lo == pytest.approx(3.495)
        assert cut.hi == pytest.approx(6.45)

    def test_single_point_core_ends_never_cross(self):
        # d - (d - c) rounds one ulp below c here; the cut must still be [b, c]
        m = 0.11379094555050466
        cut = alpha_cut(Trapezoid(0.0, m, m, 1.0), 1.0)
        assert (cut.lo, cut.hi) == (m, m)

    def test_alpha_out_of_range_names_value(self):
        with pytest.raises(DomainError, match="0.9"):
            alpha_cut(Trapezoid(0, 1, 2, 3, h=0.8), 0.9)
        with pytest.raises(DomainError, match="-0.1"):
            alpha_cut(Trapezoid(0, 1, 2, 3), -0.1)


class TestClassifyFou:
    def test_fixture_shapes(self, hma):
        assert classify_fou(hma.word("VP"), SCALE) is FouShape.LEFT_SHOULDER
        assert classify_fou(hma.word("P"), SCALE) is FouShape.LEFT_SHOULDER
        assert classify_fou(hma.word("A"), SCALE) is FouShape.INTERIOR
        assert classify_fou(hma.word("G"), SCALE) is FouShape.RIGHT_SHOULDER
        assert classify_fou(hma.word("VG"), SCALE) is FouShape.RIGHT_SHOULDER

    def test_low_lmf_height_is_interior(self):
        # flat against the left end but not full height: not a shoulder
        w = IT2Word("x", Trapezoid(0, 0, 2, 3), Trapezoid(0, 0, 1.5, 2, h=0.8))
        assert classify_fou(w, SCALE) is FouShape.INTERIOR


class TestMembershipEnvelope:
    def test_outside_support_is_zero(self, hma):
        w = hma.word("VP")
        assert (w.lmf.membership(9.5), w.umf.membership(9.5)) == (0.0, 0.0)

    def test_plateau_lookup(self, hma):
        w = hma.word("A")
        assert (w.lmf.membership(5.0), w.umf.membership(5.0)) == (1.0, 1.0)

    def test_lmf_plateau_height(self, ia):
        w = ia.word("A")
        assert w.lmf.membership(4.99) == pytest.approx(0.88)
        assert w.umf.membership(4.99) == 1.0


class TestWordValidation:
    def test_lmf_exceeding_umf_rejected(self):
        with pytest.raises(DomainError, match="exceeds"):
            IT2Word("bad", Trapezoid(2, 3, 4, 5), Trapezoid(1, 3, 4, 5)).validate()

    def test_umf_height_must_be_one(self):
        w = IT2Word("bad", Trapezoid(1, 3, 4, 5, h=0.9), Trapezoid(2, 3, 4, 4.5, h=0.9))
        with pytest.raises(DomainError, match="umf height"):
            w.validate()


class TestDirection:
    def test_every_direction_check_refuses_up_alike(self):
        rules, constraint, _ = fixture("sm-solop")
        refusals = [
            lambda: Objective("f", direction="up"),
            lambda: rank_by_centroid([("a", (1.0,))], ["up"]),
            lambda: optimize(rules, constraint, ("up",)),
        ]
        messages = set()
        for refuse in refusals:
            with pytest.raises(DomainError) as info:
                refuse()
            messages.add(str(info.value))
        assert messages == {"direction must be 'max' or 'min', got 'up'"}
