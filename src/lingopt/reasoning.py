"""Perceptual reasoning: rule firing, linguistic weighted average, decoding.

Inference runs in three steps.  ``fire_rules`` scores an input word vector
against each rule's antecedents: the minimum t-norm of pairwise Jaccard
similarities, a crisp number in [0, 1].  ``lwa`` combines the fired
consequent words through the linguistic weighted average.  With crisp
firings and trapezoidal FOUs the average is itself a trapezoid, computed
exactly from the vertices: the UMF is the firing-weighted average of the
consequent UMFs, and the LMF the weighted average of the consequent LMFs cut
at h, the smallest fired-consequent LMF height.  ``decode`` maps the output
FOU back to a codebook word.

Inputs, antecedents and decoded words all come from one codebook, so it is
sampled once per grid: ``Codebook.sampled`` keeps a ``SampledCodebook``,
which holds each word's memberships on the grid points of its support only,
its vertices as arrays indexed by word position, and a lazily filled V x V
matrix of Jaccard similarities, for every solve on that codebook and grid.
A solve compiles its rules to word positions: an (R, n) array of
antecedents, whose firings are one gather from the matrix and one minimum
per row, and per objective an (R,) array of consequent rows, which ``lwa``
averages as one firing-weighted array product.  ``auto`` consequents add
their synthesised vertices as rows of their own.  Only the output FOUs and
``auto`` consequents are sampled afresh, each on its own support.  ``fire``
and ``decode`` run the same code through ``Codebook.sampled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .codebook import Codebook, SampledCodebook
from .fuzzy import DomainError, IT2Word, NoRuleFiredError, Trapezoid, vertex_rows
from .similarity import (
    Centroid,
    Discretization,
    SampledWord,
    centroid_sampled,
    jaccard_sampled,
    sample_word,
)

AUTO = "auto"  # consequent synthesised from antecedents, kept as a raw FOU
AUTO_WORD = "auto-word"  # synthesised, then decoded to the nearest codebook word


@dataclass(frozen=True)
class Rule:
    """If-then rule: antecedent word names and one consequent per objective.

    A consequent entry is a codebook word name, or ``auto`` / ``auto-word``
    to synthesise it from the rule's own antecedents.
    """

    label: str
    antecedents: tuple[str, ...]
    consequents: tuple[str, ...]


@dataclass(frozen=True)
class Objective:
    """Named objective with an optimisation direction and, optionally, the
    antecedent slots (1-based, inclusive) that auto-synthesis draws from."""

    name: str
    direction: str = "max"
    slots: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise DomainError(f"objective direction must be max or min, got {self.direction!r}")


@dataclass(frozen=True)
class RuleBase:
    rules: tuple[Rule, ...]
    objectives: tuple[Objective, ...]

    def __post_init__(self):
        if not self.rules:
            raise DomainError("rule base must contain at least one rule")
        if not self.objectives:
            raise DomainError("rule base must declare at least one objective")
        n = len(self.rules[0].antecedents)
        q = len(self.objectives)
        for r in self.rules:
            if len(r.antecedents) != n:
                raise DomainError(f"rule {r.label!r}: expected {n} antecedents")
            if len(r.consequents) != q:
                raise DomainError(f"rule {r.label!r}: expected {q} consequents")


# ---------------------------------------------------------------------------
# Linguistic weighted average


@dataclass(frozen=True, eq=False)
class ConsequentRows:
    """Consequents compiled to vertex rows: rule ``i``'s consequent is row
    ``at[i]`` of the stacked UMF and LMF vertices (M, 4) and LMF heights (M,)."""

    umf: np.ndarray
    lmf: np.ndarray
    lmf_h: np.ndarray
    at: np.ndarray


def lwa(consequents: Union[Sequence[IT2Word], ConsequentRows], firings: Sequence[float]) -> IT2Word:
    """Linguistic weighted average of the fired consequents, as an exact trapezoid.

    Consequents whose firing is zero drop out; if all of them are zero there
    is nothing to average and NoRuleFiredError is raised rather than
    inventing a default word.  The fired rows are averaged as one
    firing-weighted array product per membership function.
    """
    rows = consequents
    if not isinstance(rows, ConsequentRows):
        rows = ConsequentRows(*vertex_rows(consequents), np.arange(len(consequents)))
    firings = np.asarray(firings, dtype=float)
    if firings.shape != rows.at.shape or not firings.size:
        raise DomainError("lwa needs matching, nonempty consequent and firing lists")
    if not (firings.min() >= 0.0 and firings.max() <= 1.0):  # NaN fails both
        bad = firings[~((firings >= 0.0) & (firings <= 1.0))][0]
        raise DomainError(f"firing level must lie in [0, 1], got {bad}")
    fired = firings.nonzero()[0]
    if not fired.size:
        raise NoRuleFiredError("all firings are zero")
    # only the fired rows enter the products: a zero-weight row would still
    # change the order in which they are summed
    weights = firings[fired]
    total = weights.sum()
    at = rows.at[fired]
    heights = rows.lmf_h[at]
    h = float(heights.min())
    # cut each LMF at h: b and c move to a + frac (b - a) and d + frac (c - d),
    # which is d - frac (d - c) to the last bit
    lmf = rows.lmf[at]
    ends = lmf[:, ::3]
    lmf[:, 1:3] = ends + (h / heights)[:, None] * (lmf[:, 1:3] - ends)

    def average(vertices: np.ndarray, height: float) -> Trapezoid:
        a, b, c, d = weights @ vertices / total
        # clamp against float noise in the averaged vertices
        b = min(max(b, a), d)
        c = min(max(c, b), d)
        return Trapezoid(a, b, c, d, height)

    return IT2Word("", average(rows.umf[at], 1.0), average(lmf, h))


# ---------------------------------------------------------------------------
# Firing and decoding


def fire_rules(rules: Sequence[Rule], inputs: Sequence[str], scb: SampledCodebook) -> np.ndarray:
    """Firing level of each rule: the minimum over its slots of the Jaccard
    similarity between input and antecedent word.

    The antecedents compile to an (R, n) array of word positions, and every
    slot's similarity is read from the sampled codebook's matrix of word
    pairs, so each (input, antecedent) pair is compared once per codebook
    and grid, however many slots, rules and solves share it.
    """
    n = len(inputs)
    antecedents = [r.antecedents for r in rules]
    if set(map(len, antecedents)) - {n}:
        rule = next(r for r in rules if len(r.antecedents) != n)
        raise DomainError(f"rule {rule.label!r} expects {len(rule.antecedents)} inputs, got {n}")
    if not n:
        raise DomainError("rules need at least one antecedent to fire")
    positions = scb.positions(chain(inputs, *antecedents))
    return scb.similarities(positions[:n], positions[n:].reshape(len(rules), n)).min(axis=1)


def fire(rule: Rule, inputs: Sequence[str], cb: Codebook, d: Optional[Discretization] = None) -> float:
    """Minimum t-norm of slotwise Jaccard similarities between input and antecedents."""
    return float(fire_rules([rule], inputs, cb.sampled(d))[0])


def decode(fou: IT2Word, cb: Codebook, d: Optional[Discretization] = None) -> str:
    """Name of the codebook word the FOU is most Jaccard-similar to.  Exact
    ties go to the later (larger-centroid) vocabulary word."""
    scb = cb.sampled(d)
    return _decode_jaccard(sample_word(fou, scb.d), scb)


def _best(names: Sequence[str], scores: Sequence[float]) -> str:
    """Name with the highest score.  Scores within 1e-12 of the best so far
    tie, and a tie goes to the later (larger-centroid) word."""
    best, best_score = None, -np.inf
    for name, score in zip(names, scores):
        if best is None or score > best_score + 1e-12:
            best, best_score = name, score
        elif score >= best_score - 1e-12:
            best = name
    return best


def _decode_jaccard(s: SampledWord, scb: SampledCodebook) -> str:
    return _best(scb.names, [jaccard_sampled(s, w) for w in scb.words])


def _decode_mean(mean: float, cb: Codebook) -> str:
    return _best(cb.names, [-abs(w.centroid.mean - mean) for w in cb.words])


# ---------------------------------------------------------------------------
# Consequent synthesis


@dataclass(frozen=True, eq=False)
class SynthesizedConsequent:
    fou: IT2Word
    centroid: Centroid
    word: str  # nearest codebook word by centroid mean


def synthesize_consequent(
    antecedents: Sequence[str], cb: Codebook, d: Optional[Discretization] = None
) -> SynthesizedConsequent:
    """Equal-weight LWA of the antecedent words, decoded to the nearest word.

    The raw FOU is what a single-objective rule uses as its consequent; the
    decoded name is what a multi-objective rule writes into the rule base.
    """
    if not antecedents:
        raise DomainError("synthesize_consequent needs at least one antecedent")
    scb = cb.sampled(d)
    fou = lwa(ConsequentRows(*scb.rows, scb.positions(antecedents)), np.ones(len(antecedents)))
    centroid = centroid_sampled(sample_word(fou, scb.d))
    return SynthesizedConsequent(fou.with_centroid(centroid), centroid, _decode_mean(centroid.mean, cb))


def _consequent_rows(rules: Sequence[Rule], k: int, objective: Objective, cb: Codebook,
                     scb: SampledCodebook) -> ConsequentRows:
    """The rules' k-th consequents as rows of the codebook's vertex arrays;
    the FOUs synthesised for ``auto`` entries are rows appended after them."""
    names = [r.consequents[k] for r in rules]
    synthesized = []  # (rule position, raw FOU) of each ``auto`` entry
    for i, (rule, entry) in enumerate(zip(rules, names)):
        if entry in (AUTO, AUTO_WORD):
            slots = objective.slots or range(1, len(rule.antecedents) + 1)
            synth = synthesize_consequent([rule.antecedents[j - 1] for j in slots], cb, scb.d)
            names[i] = synth.word
            if entry == AUTO:
                synthesized.append((i, synth.fou))
    at, rows = scb.positions(names), scb.rows
    if synthesized:
        where, fous = zip(*synthesized)
        at[list(where)] = len(scb.names) + np.arange(len(fous))
        rows = (np.concatenate(pair) for pair in zip(rows, vertex_rows(fous)))
    return ConsequentRows(*rows, at)


# ---------------------------------------------------------------------------
# End-to-end solvers


@dataclass(frozen=True, eq=False)
class PrOutput:
    """Inference result for one objective: output FOU, centroid, decoded
    word and the firing level of every rule."""

    fou: IT2Word
    centroid: Centroid
    decoded: str
    firings: tuple[float, ...]


def _finish(fou: IT2Word, firings: tuple[float, ...], scb: SampledCodebook) -> PrOutput:
    s = sample_word(fou, scb.d)
    centroid = centroid_sampled(s)
    return PrOutput(
        fou=fou.with_centroid(centroid),
        centroid=centroid,
        decoded=_decode_jaccard(s, scb),
        firings=firings,
    )


def solve_molop(
    rb: RuleBase, inputs: Sequence[str], cb: Codebook, d: Optional[Discretization] = None
) -> list[PrOutput]:
    """Fire every rule once, then combine per objective with the shared firings."""
    scb = cb.sampled(d)
    firings = fire_rules(rb.rules, inputs, scb)
    if not firings.any():
        raise NoRuleFiredError(
            f"no rule fired for input {list(inputs)}; refusing to emit a default word"
        )
    levels = tuple(firings.tolist())
    return [
        _finish(lwa(_consequent_rows(rb.rules, k, objective, cb, scb), firings), levels, scb)
        for k, objective in enumerate(rb.objectives)
    ]


def solve_solop(
    rb: RuleBase, inputs: Sequence[str], cb: Codebook, d: Optional[Discretization] = None
) -> PrOutput:
    if len(rb.objectives) != 1:
        raise DomainError(f"solve_solop needs exactly one objective, got {len(rb.objectives)}")
    return solve_molop(rb, inputs, cb, d)[0]
