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
for every solve on that codebook and grid.  Firing looks each (input,
antecedent) pair up in that sampling's table of Jaccard similarities, which
computes a pair the first time it is asked for.  Only the output FOUs and
``auto`` consequents are sampled afresh, each on its own support.  ``fire``
and ``decode`` run the same code through ``Codebook.sampled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .codebook import Codebook, SampledCodebook
from .fuzzy import DomainError, IT2Word, NoRuleFiredError, Trapezoid
from .similarity import (
    Centroid,
    Discretization,
    SampledWord,
    centroid_ekm_from_samples,
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


def lwa(consequents: Sequence[IT2Word], firings: Sequence[float]) -> IT2Word:
    """Linguistic weighted average of the fired consequents, as an exact trapezoid.

    Consequents whose firing is zero drop out; if all of them are zero there
    is nothing to average and NoRuleFiredError is raised rather than
    inventing a default word.
    """
    if len(consequents) != len(firings) or not consequents:
        raise DomainError("lwa needs matching, nonempty consequent and firing lists")
    for f in firings:
        if not 0.0 <= f <= 1.0:  # also rejects NaN
            raise DomainError(f"firing level must lie in [0, 1], got {f}")
    fired = [(c, f) for c, f in zip(consequents, firings) if f > 0.0]
    if not fired:
        raise NoRuleFiredError("all firings are zero")
    weights = np.array([f for _, f in fired], dtype=float)
    total = weights.sum()
    h = min(c.lmf.h for c, _ in fired)

    def lmf_cut(t: Trapezoid) -> tuple[float, float, float, float]:
        frac = h / t.h
        return (t.a, t.a + frac * (t.b - t.a), t.d - frac * (t.d - t.c), t.d)

    def average(rows, height: float) -> Trapezoid:
        a, b, c, d = weights @ np.array(rows) / total
        # clamp against float noise in the averaged vertices
        b = min(max(b, a), d)
        c = min(max(c, b), d)
        return Trapezoid(a, b, c, d, height)

    umf = average([c.umf.vertices for c, _ in fired], 1.0)
    lmf = average([lmf_cut(c.lmf) for c, _ in fired], h)
    return IT2Word("", umf, lmf)


# ---------------------------------------------------------------------------
# Firing and decoding


def fire_rules(rules: Sequence[Rule], inputs: Sequence[str], scb: SampledCodebook) -> list[float]:
    """Firing level of each rule: the minimum over its slots of the Jaccard
    similarity between input and antecedent word.

    The similarities come from the sampled codebook's table of word pairs,
    so each (input, antecedent) pair is compared once per codebook and grid,
    however many slots, rules and solves share it.
    """
    firings = []
    for rule in rules:
        if len(inputs) != len(rule.antecedents):
            raise DomainError(
                f"rule {rule.label!r} expects {len(rule.antecedents)} inputs, got {len(inputs)}"
            )
        firings.append(min(scb.similarity(x, a) for x, a in zip(inputs, rule.antecedents)))
    return firings


def fire(rule: Rule, inputs: Sequence[str], cb: Codebook, d: Optional[Discretization] = None) -> float:
    """Minimum t-norm of slotwise Jaccard similarities between input and antecedents."""
    return fire_rules([rule], inputs, cb.sampled(d))[0]


def decode(
    fou: IT2Word,
    cb: Codebook,
    d: Optional[Discretization] = None,
    method: str = "jaccard",
) -> str:
    """Name of the codebook word the FOU resembles most.

    ``jaccard`` picks the highest-similarity word; ``centroid`` the word with
    the nearest centroid mean.  Exact ties go to the later (larger-centroid)
    vocabulary word in both modes.
    """
    if method == "jaccard":
        scb = cb.sampled(d)
        return _decode_jaccard(sample_word(fou, scb.d), scb)
    if method == "centroid":
        return _decode_mean(_centroid(sample_word(fou, d or cb.discretization())).mean, cb)
    raise DomainError(f"unknown decode method {method!r}")


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


def _centroid(s: SampledWord) -> Centroid:
    return centroid_ekm_from_samples(s.xs, s.lower, s.upper)


# ---------------------------------------------------------------------------
# Consequent synthesis


@dataclass(frozen=True, eq=False)
class SynthesizedConsequent:
    fou: IT2Word
    centroid: Centroid
    word: str  # nearest codebook word by centroid mean


def synthesize_consequent(
    antecedents: Sequence[Union[str, IT2Word]],
    cb: Codebook,
    d: Optional[Discretization] = None,
) -> SynthesizedConsequent:
    """Equal-weight LWA of the antecedent words, decoded to the nearest word.

    The raw FOU is what a single-objective rule uses as its consequent; the
    decoded name is what a multi-objective rule writes into the rule base.
    """
    if not antecedents:
        raise DomainError("synthesize_consequent needs at least one antecedent")
    d = d or cb.discretization()
    words = [cb.word(a) if isinstance(a, str) else a for a in antecedents]
    fou = lwa(words, [1.0] * len(words))
    centroid = _centroid(sample_word(fou, d))
    return SynthesizedConsequent(fou.with_centroid(centroid), centroid, _decode_mean(centroid.mean, cb))


def resolve_consequent(rule: Rule, k: int, objective: Objective, cb: Codebook,
                       d: Optional[Discretization] = None) -> IT2Word:
    """Concrete IT2 word for the k-th consequent of a rule."""
    entry = rule.consequents[k]
    if entry in (AUTO, AUTO_WORD):
        slots = objective.slots or tuple(range(1, len(rule.antecedents) + 1))
        names = [rule.antecedents[i - 1] for i in slots]
        synth = synthesize_consequent(names, cb, d)
        if entry == AUTO_WORD:
            return cb.word(synth.word)
        return synth.fou
    return cb.word(entry)


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


def _finish(fou: IT2Word, firings, scb: SampledCodebook) -> PrOutput:
    s = sample_word(fou, scb.d)
    centroid = _centroid(s)
    return PrOutput(
        fou=fou.with_centroid(centroid),
        centroid=centroid,
        decoded=_decode_jaccard(s, scb),
        firings=tuple(firings),
    )


def solve_molop(
    rb: RuleBase, inputs: Sequence[str], cb: Codebook, d: Optional[Discretization] = None
) -> list[PrOutput]:
    """Fire every rule once, then combine per objective with the shared firings."""
    scb = cb.sampled(d)
    firings = fire_rules(rb.rules, inputs, scb)
    if all(f == 0.0 for f in firings):
        raise NoRuleFiredError(
            f"no rule fired for input {list(inputs)}; refusing to emit a default word"
        )
    outputs = []
    for k, objective in enumerate(rb.objectives):
        consequents = [resolve_consequent(r, k, objective, cb, scb.d) for r in rb.rules]
        outputs.append(_finish(lwa(consequents, firings), firings, scb))
    return outputs


def solve_solop(
    rb: RuleBase, inputs: Sequence[str], cb: Codebook, d: Optional[Discretization] = None
) -> PrOutput:
    if len(rb.objectives) != 1:
        raise DomainError(f"solve_solop needs exactly one objective, got {len(rb.objectives)}")
    return solve_molop(rb, inputs, cb, d)[0]
