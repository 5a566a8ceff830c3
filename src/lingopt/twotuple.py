"""2-tuple linguistic-model baseline.

A 2-tuple (s_i, alpha) encodes a real aggregation beta = i + alpha with
alpha in [-0.5, 0.5); terms are indexed 1..g and take part in arithmetic
directly.  Rounding is half-up throughout (round(1.5) = 2).  The overflow
check reproduces the scale-protrusion diagnosis for translated triangular
term membership functions, each of half-width one term spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .fuzzy import DomainError, LingoptError


class OutOfScaleError(LingoptError):
    """An aggregated beta falls outside the representable term range."""


@dataclass(frozen=True)
class OrdinalTermSet:
    """Ordered linguistic labels with 1-based indices."""

    terms: tuple[str, ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("term set must be nonempty")
        if len(set(self.terms)) != len(self.terms):
            raise DomainError(f"term labels must be unique, got {self.terms}")

    @property
    def g(self) -> int:
        return len(self.terms)

    def index(self, label: str) -> int:
        try:
            return self.terms.index(label) + 1
        except ValueError:
            raise DomainError(f"unknown term {label!r}; set has {list(self.terms)}") from None

    def label(self, index: int) -> str:
        if not 1 <= index <= self.g:
            raise DomainError(f"term index {index} outside 1..{self.g}")
        return self.terms[index - 1]


@dataclass(frozen=True)
class TwoTuple:
    index: int
    alpha: float

    def __post_init__(self):
        if not -0.5 <= self.alpha < 0.5:
            raise DomainError(f"symbolic translation must be in [-0.5, 0.5), got {self.alpha}")

    @property
    def beta(self) -> float:
        return self.index + self.alpha


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def to_two_tuple(beta: float, ts: OrdinalTermSet) -> TwoTuple:
    """beta -> (round-half-up index, residual translation)."""
    if beta < 0.5 or beta >= ts.g + 0.5:
        raise OutOfScaleError(
            f"beta={beta} outside the representable range [0.5, {ts.g + 0.5}) of a "
            f"{ts.g}-term set"
        )
    index = _round_half_up(beta)
    return TwoTuple(index, beta - index)


def solop_aggregate(indices: Sequence[int], ts: OrdinalTermSet) -> TwoTuple:
    """Arithmetic mean of antecedent term indices, as a 2-tuple."""
    if not indices:
        raise DomainError("solop_aggregate needs at least one index")
    return to_two_tuple(sum(indices) / len(indices), ts)


def molop_solve(
    rules: Sequence[tuple[Sequence[int], Sequence[int]]],
    ts: OrdinalTermSet,
) -> list[TwoTuple]:
    """Per-objective 2-tuples from (antecedent indices, consequent indices) rules.

    Rule firing is the product of its antecedent term indices; objective k
    aggregates the k-th consequent indices weighted by the firings.
    """
    if not rules:
        raise DomainError("molop_solve needs at least one rule")
    q = len(rules[0][1])
    firings = []
    for antecedents, consequents in rules:
        if len(consequents) != q:
            raise DomainError("every rule needs one consequent index per objective")
        alpha = 1.0
        for idx in antecedents:
            alpha *= idx
        firings.append(alpha)
    total = sum(firings)
    if total == 0:
        raise DomainError("all firings are zero")
    out = []
    for k in range(q):
        beta = sum(f * rule[1][k] for f, rule in zip(firings, rules)) / total
        out.append(to_two_tuple(beta, ts))
    return out


# ---------------------------------------------------------------------------
# Scale-overflow diagnosis for translated term MFs


def overflow_check(t: TwoTuple, ts: OrdinalTermSet) -> float:
    """How far, in index units, the translated triangle for (s_i, alpha) pokes
    past the nearer scale end; 0 inside the scale.

    Terms sit at positions 1..g (unit spacing) with symmetric triangular MFs
    of half-width one spacing, clipped to the scale [1, g]; end terms
    therefore have vertical outer edges.  Translating by alpha shifts the
    clipped shape whole, so any positive alpha on a term whose triangle
    already touches the top pokes past it by alpha * spacing.
    """
    lo, hi = 1.0, float(ts.g)
    left = max(t.index - 1.0, lo) + t.alpha
    right = min(t.index + 1.0, hi) + t.alpha
    return max(0.0, lo - left, right - hi)
