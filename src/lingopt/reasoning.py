"""Perceptual reasoning: rule firing, linguistic weighted average, decoding.

Inference runs in three steps.  ``fire_rules`` scores an input word vector
against each rule's antecedents: the minimum t-norm of slotwise Jaccard
similarities, a crisp number in [0, 1].  ``lwa`` combines the fired
consequent words through the linguistic weighted average.  With crisp
firings and trapezoidal FOUs the average is itself a trapezoid, computed
exactly from the vertices: the UMF is the firing-weighted average of the
consequent UMFs, and the LMF the weighted average of the consequent LMFs cut
at h, the smallest fired-consequent LMF height.  A solve decodes the output
FOU to the codebook word it is most Jaccard-similar to.

Inputs, antecedents and decoded words all come from one codebook, so it is
sampled once per grid: ``Codebook.sampled`` keeps a ``SampledCodebook``,
which holds the words' memberships as two dense (V, N) arrays, their
vertices as arrays indexed by word position, and a lazily filled V x V
matrix of Jaccard similarities, for every solve on that codebook and grid.
A solve compiles its rules to word positions: an (R, n) array of
antecedents, whose firings are one gather from the matrix and one minimum
per row, and per objective an (R,) array of consequent rows, which ``lwa``
averages as one firing-weighted array product.  An ``auto`` consequent is
the equal-weight average of its antecedents' codebook rows; an objective's
``auto`` entries are taken as one batch by the kernel ``lwa`` uses, and each
adds its average as a row.  An ``auto-word`` entry takes the row of the word
``synthesize_consequent`` decodes: the one whose centroid is nearest that of
the same average.  Only the output FOUs and the ``auto-word`` averages are
sampled afresh, each on its own support.  A decode scores an output against
every word at once, by the kernel that fills the matrix's rows, reading the
dense arrays over the output's support and only the rows of the words from
the first to the last that meets it; the others score 0.  ``fire`` runs the
same code for one rule through ``Codebook.sampled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .codebook import Codebook, SampledCodebook
from .fuzzy import DomainError, IT2Word, NoRuleFiredError, Trapezoid, check_direction, vertex_rows
from .similarity import Centroid, Discretization, centroid_ekm_from_samples, sample_word

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
        check_direction(self.direction)


@dataclass(frozen=True)
class RuleBase:
    """Rules sharing one antecedent count n >= 1 and one consequent per
    objective; every objective slot lies in 1..n."""

    rules: tuple[Rule, ...]
    objectives: tuple[Objective, ...]

    def __post_init__(self):
        if not self.rules:
            raise DomainError("rule base must contain at least one rule")
        if not self.objectives:
            raise DomainError("rule base must declare at least one objective")
        n = len(self.rules[0].antecedents)
        q = len(self.objectives)
        if not n:
            raise DomainError("rules must have at least one antecedent")
        for r in self.rules:
            if len(r.antecedents) != n:
                raise DomainError(f"rule {r.label!r}: expected {n} antecedents")
            if len(r.consequents) != q:
                raise DomainError(f"rule {r.label!r}: expected {q} consequents")
        for o in self.objectives:
            for slot in o.slots or ():
                if not 1 <= slot <= n:
                    raise DomainError(
                        f"objective {o.name!r}: slot {slot} is outside the {n} antecedents of the rules"
                    )


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


def _average_rows(weights: np.ndarray, umf: np.ndarray, lmf: np.ndarray,
                  lmf_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LWA arithmetic over a leading batch axis: average ``b`` is the
    ``weights``-weighted average of the rows ``umf[b]`` and ``lmf[b]``
    (R, 4), each LMF first cut at ``h[b]``, the smallest of ``lmf_h[b]``.

    ``lmf`` is cut in place.  Returns the averaged UMF and LMF vertices as
    one (2, B, 4) array and the heights ``h`` as a (B,) array.
    """
    h = lmf_h.min(axis=1)
    # cut each LMF at h: b and c move to a + frac (b - a) and d + frac (c - d),
    # which is d - frac (d - c) to the last bit
    ends = lmf[..., ::3]
    lmf[..., 1:3] = ends + (h[:, None] / lmf_h)[..., None] * (lmf[..., 1:3] - ends)
    out = np.empty((2, len(h), 4))
    np.matmul(weights, umf, out=out[0])
    np.matmul(weights, lmf, out=out[1])
    out /= weights.sum()
    # clamp against float noise in the averaged vertices, b into [a, d] and
    # then c into [b, d]: a running maximum orders a <= b <= c, and b and c
    # are then capped at d
    np.maximum.accumulate(out[..., :3], axis=-1, out=out[..., :3])
    np.minimum(out[..., 1:3], out[..., 3:], out=out[..., 1:3])
    return out, h


def lwa(consequents: Union[Sequence[IT2Word], ConsequentRows], firings: Sequence[float]) -> IT2Word:
    """Linguistic weighted average of the fired consequents, as an exact trapezoid.

    Consequents whose firing is zero drop out; if all of them are zero there
    is nothing to average and NoRuleFiredError is raised rather than
    inventing a default word.  The fired rows are averaged as a batch of
    one by ``_average_rows``, the kernel ``auto`` consequents share.
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
    at = rows.at[fired][None]
    out, h = _average_rows(firings[fired], rows.umf[at], rows.lmf[at], rows.lmf_h[at])
    umf, lmf = out[:, 0].tolist()
    return IT2Word("", Trapezoid(*umf, 1.0), Trapezoid(*lmf, float(h[0])))


# ---------------------------------------------------------------------------
# Firing and decoding


def fire_rules(rules: Sequence[Rule], inputs: Sequence[str], scb: SampledCodebook) -> np.ndarray:
    """Firing level of each rule: the minimum over its slots of the Jaccard
    similarity between input and antecedent word.

    The antecedents compile to an (R, n) array of word positions, and every
    slot's similarity is read from the sampled codebook's similarity
    matrix, so each input word's row is computed once per codebook and
    grid, however many slots, rules and solves share it.
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


def _best(names: Sequence[str], scores: Sequence[float]) -> str:
    """Name with the highest score.  Scores within 1e-12 of the best so far
    tie, and a tie goes to the later (larger-centroid) word."""
    best, top = None, -np.inf
    for name, score in zip(names, scores):
        if best is None or score > top + 1e-12:
            best, top = name, score
        elif score >= top - 1e-12:
            best = name
    return best


def _decode_mean(mean: float, cb: Codebook) -> str:
    """The word whose centroid mean (``Codebook.centroid_means``) is nearest ``mean``."""
    return _best(cb.names, [-abs(m - mean) for m in cb.centroid_means])


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
    s = sample_word(fou, scb.d)
    centroid = centroid_ekm_from_samples(s.xs, s.lower, s.upper)
    return SynthesizedConsequent(fou, centroid, _decode_mean(centroid.mean, cb))


def _consequent_rows(rules: Sequence[Rule], k: int, objective: Objective, cb: Codebook,
                     scb: SampledCodebook) -> ConsequentRows:
    """The rules' k-th consequents as rows of the codebook's vertex arrays.

    Both synthesised kinds draw on the antecedents at the objective's slots.
    An ``auto-word`` entry takes the row of the word ``synthesize_consequent``
    decodes.  The ``auto`` entries are averaged as one equal-weight batch,
    and each entry's average is a row appended after the codebook's.
    """
    names = [r.consequents[k] for r in rules]
    slots = np.subtract(objective.slots or range(1, len(rules[0].antecedents) + 1), 1)
    auto = []  # rule positions of the ``auto`` entries
    for i, entry in enumerate(names):
        if entry == AUTO_WORD:
            names[i] = synthesize_consequent([rules[i].antecedents[s] for s in slots], cb, scb.d).word
        elif entry == AUTO:
            auto.append(i)
            names[i] = rules[i].antecedents[0]  # any codebook word: its row is replaced below
    umf, lmf, lmf_h = scb.rows
    at = scb.positions(names)
    if not auto:
        return ConsequentRows(umf, lmf, lmf_h, at)
    words = scb.positions(chain.from_iterable(rules[i].antecedents for i in auto))
    words = words.reshape(len(auto), -1)[:, slots]  # (E, s)
    out, h = _average_rows(np.ones(len(slots)), umf[words], lmf[words], lmf_h[words])
    at[auto] = len(umf) + np.arange(len(auto))
    umf, lmf = np.concatenate((umf, out[0])), np.concatenate((lmf, out[1]))
    return ConsequentRows(umf, lmf, np.concatenate((lmf_h, h)), at)


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
    centroid = centroid_ekm_from_samples(s.xs, s.lower, s.upper)
    return PrOutput(fou=fou, centroid=centroid, decoded=_best(scb.names, scb.scores(s).tolist()),
                    firings=firings)


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

