"""Tsukamoto-inference baseline: crisp rule outputs and grid optimization.

Each rule fires at the product t-norm of its antecedent memberships; the
consequent membership functions are strictly monotone, so the rule output is
the consequent inverse at the firing level, and objectives are the
firing-weighted average of those inverses.  Optimization is a deliberate
exhaustive grid search along the equality-constraint line; this module is a
verification baseline, not a solver.  The search is evaluated as arrays: the
feasible grid is one (points, n) array and every objective is computed at
every point in one pass over the rules.  ``crisp_output`` runs that same
kernel on a single point.  Every membership function is one interpolated
sample table.  ``optimize`` scores a point by the smallest of
its direction-adjusted objective values (for one objective, that value) and
keeps every point within TIE_TOL of the best score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fuzzy import DomainError, NoRuleFiredError, check_direction

#: most points ``optimize`` may enumerate on the constraint; a finer step is refused
MAX_GRID_POINTS = 100_000
#: grid points scoring within this of the best are all reported as optima
TIE_TOL = 1e-9
#: the worked fixture systems ``fixture`` builds
FIXTURES = ("sm-solop", "sm-molop")


class GridStepError(DomainError):
    """The grid step is not positive, or so small that the feasible grid
    would hold more than MAX_GRID_POINTS points."""


class MonotoneMf:
    """Strictly monotone membership function, invertible by design: the
    piecewise-linear interpolation of samples (xs, mus), held at the end
    values outside them.  INCREASING (mu = x) and DECREASING (mu = 1 - x)
    are the two-point tables on [0, 1]."""

    def __init__(self, xs: Sequence[float], mus: Sequence[float]):
        xs = np.asarray(xs, dtype=float)
        mus = np.asarray(mus, dtype=float)
        if xs.size < 2 or xs.size != mus.size:
            raise DomainError("samples need matching xs/mus of length >= 2")
        if not np.all(np.diff(xs) > 0):
            raise DomainError("sample xs must be strictly increasing")
        d = np.diff(mus)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise DomainError("samples must be strictly monotone (invertible)")
        self._curve = (xs, mus)
        # np.interp needs increasing sample points, so a decreasing inverse reads them reversed
        self._inverse = (mus, xs) if mus[0] < mus[-1] else (mus[::-1], xs[::-1])

    def __call__(self, x):
        return np.interp(x, *self._curve)

    def inverse(self, alpha):
        return np.interp(alpha, *self._inverse)


INCREASING = MonotoneMf((0.0, 1.0), (0.0, 1.0))
DECREASING = MonotoneMf((0.0, 1.0), (1.0, 0.0))


@dataclass(frozen=True)
class TsukamotoRule:
    antecedents: tuple[MonotoneMf, ...]
    consequents: tuple[MonotoneMf, ...]  # one per objective


def _check_rules(rules: Sequence[TsukamotoRule]) -> tuple[int, int]:
    if not rules:
        raise DomainError("need at least one rule")
    n = len(rules[0].antecedents)
    q = len(rules[0].consequents)
    for r in rules:
        if len(r.antecedents) != n or len(r.consequents) != q:
            raise DomainError("all rules must share antecedent and consequent counts")
    return n, q


def _crisp_outputs(rules: Sequence[TsukamotoRule], ys: np.ndarray) -> np.ndarray:
    """Objective values at every row of ys, shape (points, objectives).

    One pass over the rules: firings are products of antecedent memberships
    taken left to right from 1.0, and firings and numerators are summed in
    rule order, so each row's floats equal a scalar evaluation of that point.
    """
    firings = []
    for r in rules:
        alpha = np.ones(len(ys))
        for j, mf in enumerate(r.antecedents):
            alpha = alpha * mf(ys[:, j])
        firings.append(alpha)
    total = sum(firings)
    unfired = np.flatnonzero(total == 0.0)
    if unfired.size:
        raise NoRuleFiredError(f"all rules fire at zero at y={ys[unfired[0]].tolist()}")
    q = len(rules[0].consequents)
    return np.column_stack(
        [sum(a * r.consequents[k].inverse(a) for a, r in zip(firings, rules)) / total for k in range(q)]
    )


def crisp_output(rules: Sequence[TsukamotoRule], y: Sequence[float]) -> list[float]:
    """Objective values at point y: alpha-weighted mean of consequent inverses."""
    n, _ = _check_rules(rules)
    if len(y) != n:
        raise DomainError(f"expected {n} decision values, got {len(y)}")
    return _crisp_outputs(rules, np.array([y], dtype=float))[0].tolist()


@dataclass(frozen=True)
class EqualityConstraint:
    """sum(y_i) = total with box bounds lo <= y_i <= hi."""

    total: float
    lo: float = 0.0
    hi: float = 1.0


@dataclass(frozen=True)
class OptimizeResult:
    points: tuple[tuple[float, ...], ...]  # all grid optima within TIE_TOL of best
    values: tuple[tuple[float, ...], ...]  # objective values at those points


def _check_step(c: EqualityConstraint, dims: int, step: float) -> None:
    if not (step > 0.0 and math.isfinite(step)):  # also rejects NaN
        raise GridStepError(f"grid step must be positive and finite, got {step}")
    # each free coordinate takes at most about (hi - lo) / step + 1 values
    points = math.prod([(c.hi - c.lo) / step + 1.0] * (dims - 1))  # inf on overflow
    if points > MAX_GRID_POINTS:
        raise GridStepError(
            f"grid step {step:g} would enumerate about {points:.3g} points, "
            f"more than the budget of {MAX_GRID_POINTS}"
        )


def _feasible_grid(c: EqualityConstraint, dims: int, step: float) -> np.ndarray:
    """Grid over the constraint manifold as a (points, dims) array in grid
    order; the last coordinate is eliminated as total minus the running sum."""
    if dims < 2:
        raise DomainError("need at least two decision variables")
    blocks = []

    def rec(prefix, remaining):
        s = sum(prefix)
        lo = max(c.lo, c.total - s - c.hi * (remaining - 1))
        hi = min(c.hi, c.total - s - c.lo * (remaining - 1))
        if hi < lo:
            return
        vs = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
        if remaining > 2:
            for v in vs.tolist():
                rec((*prefix, v), remaining - 1)
            return
        last = c.total - (s + vs)
        ok = (c.lo - 1e-12 <= last) & (last <= c.hi + 1e-12)
        last = np.clip(last, c.lo, c.hi)
        block = np.empty((int(ok.sum()), dims))
        block[:, :-2] = prefix
        block[:, -2] = vs[ok]
        block[:, -1] = last[ok]
        blocks.append(block)

    rec((), dims)
    return np.concatenate(blocks) if blocks else np.empty((0, dims))


def optimize(
    rules: Sequence[TsukamotoRule],
    constraint: EqualityConstraint,
    directions: Sequence[str],
    step: float = 1e-3,
) -> OptimizeResult:
    """Exhaustive grid optimization of the crisp objectives on the constraint.

    Single objective: optimize it in its stated direction.  Multiple
    objectives: maximize the minimum of the direction-adjusted values (the
    max-min compromise).  Returns every grid point within TIE_TOL of the best
    score, in grid order.  A step that is not positive and finite, or that
    would make the grid hold more than MAX_GRID_POINTS points, raises
    GridStepError before any point is made.
    The whole grid is evaluated at once by the ``crisp_output`` kernel.
    """
    n, q = _check_rules(rules)
    if len(directions) != q:
        raise DomainError(f"expected {q} directions, got {len(directions)}")
    for dr in directions:
        check_direction(dr)

    _check_step(constraint, n, step)
    points = _feasible_grid(constraint, n, step)
    if not len(points):
        raise DomainError("constraint set contains no feasible grid points")
    values = _crisp_outputs(rules, points)

    scores = np.where([dr == "min" for dr in directions], -values, values).min(axis=1)
    keep = np.flatnonzero(scores >= scores.max() - TIE_TOL)
    return OptimizeResult(
        points=tuple(map(tuple, points[keep].tolist())),
        values=tuple(map(tuple, values[keep].tolist())),
    )


# ---------------------------------------------------------------------------
# Worked fixture systems


def fixture(name: str):
    """Return (rules, constraint, directions) for a named fixture system.

    "sm-solop": one decreasing/one mixed rule, objective minimized on the
    line y1 + y2 = 1/2; its crisp objective has the closed form
    y1 + y2 - 2*y1*y2 with optimum 3/8 at (1/4, 1/4).

    "sm-molop": the two-objective complement system (f2 = 1 - f1) maximized
    max-min on y1 + y2 = 3/4; optima (1/2, 1/2) at (1/2, 1/4) and (1/4, 1/2).
    """
    if name not in FIXTURES:
        raise DomainError(f"unknown fixture {name!r}; have {', '.join(map(repr, FIXTURES))}")
    dec, inc = DECREASING, INCREASING
    if name == "sm-solop":
        rules = (
            TsukamotoRule((dec, dec), (dec,)),
            TsukamotoRule((dec, inc), (inc,)),
        )
        return rules, EqualityConstraint(0.5), ("min",)
    rules = (
        TsukamotoRule((dec, dec), (dec, inc)),
        TsukamotoRule((dec, inc), (inc, dec)),
    )
    return rules, EqualityConstraint(0.75), ("max", "max")
