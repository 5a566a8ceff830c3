"""Problem bundles: rule bases, alternatives and ranking wiring, plus the
student-performance case-study fixtures shared by every engine.

Bundle file grammar (whitespace separated, ``#`` starts a comment)::

    problem v1
    codebook = paper-hma
    terms = VP P A G VG
    objective = overall max slots 1-5
    ranking = overall
    rule SS1 | VP P A A P | auto
    alternative SS1 | rules = SS1 | input = VP P A A P

A consequent entry is a word name, ``auto`` (the rule keeps the raw FOU
synthesised from its antecedents) or ``auto-word`` (the synthesised FOU is
decoded to the nearest codebook word first).  ``slots`` name the 1-based
antecedent positions an objective's auto-synthesis draws from, as a comma
list of slots and low-high ranges; a repeated slot weights that slot.  Rule
and alternative labels are single tokens.  Header lines and each
alternative's ``rules``/``input`` fields are read by ``codebook.add_field``,
which refuses an unknown key and one given twice; ``objective`` is the one
header key that may repeat.  A rule label, an alternative label or a rule
within one alternative given twice is refused as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from .codebook import Codebook, CodebookError, add_field, file_lines, load_source
from .fuzzy import DomainError, LingoptError
from .reasoning import (
    AUTO,
    AUTO_WORD,
    Objective,
    PrOutput,
    Rule,
    RuleBase,
    solve_molop,
)
from .similarity import Discretization, rank_by_centroid
from .twotuple import OrdinalTermSet, TwoTuple, molop_solve, solop_aggregate


class ProblemError(LingoptError, ValueError):
    """A problem bundle is malformed."""


class EngineMismatchError(LingoptError, ValueError):
    """A well-formed bundle was handed to an engine that cannot solve it."""


def _check_label(kind: str, label: str) -> None:
    # a report writes a label as one whitespace-separated cell
    if label.split() != [label]:
        raise ProblemError(f"{kind} labels must be single tokens, got {label!r}")


@dataclass(frozen=True)
class Alternative:
    label: str
    rules: tuple[Rule, ...]
    input: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class ProblemBundle:
    name: str
    objectives: tuple[Objective, ...]
    alternatives: tuple[Alternative, ...]
    ranking: tuple[str, ...]  # objective names in tie-break priority order
    terms: tuple[str, ...]
    codebook_id: str = "paper-hma"
    # the terms' scale and each alternative's rules under the objectives, validated on construction
    term_set: OrdinalTermSet = field(init=False, repr=False, compare=False)
    rule_bases: tuple[RuleBase, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "term_set", OrdinalTermSet(self.terms))
        except DomainError as e:
            raise ProblemError(f"terms: {e}") from None
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ProblemError(f"duplicate objective names: {names}")
        if not self.ranking:
            raise ProblemError("ranking needs at least one objective")
        if len(set(self.ranking)) != len(self.ranking):
            raise ProblemError(f"ranking lists an objective twice: {list(self.ranking)}")
        for r in self.ranking:
            if r not in names:
                raise ProblemError(f"ranking references unknown objective {r!r}")
        if not self.alternatives:
            raise ProblemError("bundle needs at least one alternative")
        labels = [alt.label for alt in self.alternatives]
        if len(set(labels)) != len(labels):
            raise ProblemError(f"duplicate alternative labels: {labels}")
        rule_bases = []
        for alt in self.alternatives:
            _check_label("alternative", alt.label)
            for rule in alt.rules:
                _check_label("rule", rule.label)
            try:
                rule_bases.append(RuleBase(alt.rules, self.objectives))
            except DomainError as e:
                raise ProblemError(f"alternative {alt.label!r}: {e}") from None
            if alt.input is not None and len(alt.input) != len(alt.rules[0].antecedents):
                raise ProblemError(
                    f"alternative {alt.label!r}: input length does not match antecedents"
                )
        object.__setattr__(self, "rule_bases", tuple(rule_bases))


# ---------------------------------------------------------------------------
# Solving a bundle with each engine


@dataclass(frozen=True, eq=False)
class BundleResult:
    outputs: dict[str, list[Union[PrOutput, TwoTuple]]]  # label -> one output per objective
    ranking: list[str]


def _ranked(bundle: ProblemBundle, outputs: dict[str, list], score: Callable[[object], float]) -> BundleResult:
    """Rank the alternatives by the scores of their outputs on every ranking
    objective in priority order, each in its own direction."""
    names = [o.name for o in bundle.objectives]
    ks = [names.index(r) for r in bundle.ranking]
    items = [(label, [score(outs[k]) for k in ks]) for label, outs in outputs.items()]
    return BundleResult(outputs, rank_by_centroid(items, [bundle.objectives[k].direction for k in ks]))


def solve_pr_bundle(
    bundle: ProblemBundle,
    cb: Codebook,
    d: Optional[Discretization] = None,
) -> BundleResult:
    """Perceptual reasoning ranked by centroid mean; an unknown word is a ProblemError naming its alternative."""
    outputs: dict[str, list[PrOutput]] = {}
    for alt, rb in zip(bundle.alternatives, bundle.rule_bases):
        if alt.input is None:
            raise EngineMismatchError(
                f"alternative {alt.label!r} has no input vector to fire the rules with"
            )
        try:
            outputs[alt.label] = solve_molop(rb, alt.input, cb, d)
        except CodebookError as e:
            raise ProblemError(f"alternative {alt.label!r}: {e}") from None
    return _ranked(bundle, outputs, lambda o: o.centroid.mean)


def solve_two_tuple_bundle(bundle: ProblemBundle) -> BundleResult:
    """2-tuple baseline over the same bundle, ranked by beta.

    Single objective: the alternative's input indices are averaged.  Multiple
    objectives: rule firings are products of antecedent indices and the
    explicit consequent indices are aggregated; auto consequents cannot be
    used here because the baseline has no word models to synthesise from.
    A word that is not a term is a ProblemError naming its alternative.
    """
    ts = bundle.term_set
    outputs: dict[str, list[TwoTuple]] = {}
    single = len(bundle.objectives) == 1
    for alt in bundle.alternatives:
        if single and alt.input is None:
            raise EngineMismatchError(f"alternative {alt.label!r} has no input vector")
        try:
            if single:
                slots = bundle.objectives[0].slots or range(1, len(alt.input) + 1)
                indices = [ts.index(alt.input[i - 1]) for i in slots]
            else:
                rules = []
                for rule in alt.rules:
                    if AUTO in rule.consequents or AUTO_WORD in rule.consequents:
                        raise EngineMismatchError(
                            f"rule {rule.label!r}: the 2-tuple engine needs explicit "
                            "consequent words, not auto synthesis"
                        )
                    rules.append(([ts.index(a) for a in rule.antecedents],
                                  [ts.index(c) for c in rule.consequents]))
        except DomainError as e:
            raise ProblemError(f"alternative {alt.label!r}: {e}") from None
        outputs[alt.label] = [solop_aggregate(indices, ts)] if single else molop_solve(rules, ts)
    return _ranked(bundle, outputs, lambda t: t.beta)


# ---------------------------------------------------------------------------
# Case-study fixtures

TERMS = ("VP", "P", "A", "G", "VG")

# subject-wise performances, mid-semester test: 5 core subjects then 2 electives
MST_WORDS = {
    "SS1": ("VP", "P", "A", "A", "P", "P", "A"),
    "SS2": ("G", "VG", "A", "A", "A", "VG", "A"),
    "SS3": ("G", "G", "G", "P", "A", "P", "A"),
    "SS4": ("P", "A", "G", "A", "G", "A", "A"),
}
# end-semester test
EST_WORDS = {
    "SS1": ("VP", "P", "VP", "P", "A", "A", "A"),
    "SS2": ("G", "G", "G", "A", "A", "VG", "VG"),
    "SS3": ("G", "G", "VG", "A", "A", "P", "P"),
    "SS4": ("A", "A", "G", "P", "P", "P", "A"),
}
# consequent words per (student, test): equal-weight synthesis of the core /
# elective antecedents, decoded against the HMA codebook; the same words are
# reused verbatim when solving with other codebooks
MOLOP_CONSEQUENTS = {
    ("SS1", "mst"): ("P", "A"),
    ("SS1", "est"): ("P", "A"),
    ("SS2", "mst"): ("G", "G"),
    ("SS2", "est"): ("G", "VG"),
    ("SS3", "mst"): ("A", "A"),
    ("SS3", "est"): ("G", "P"),
    ("SS4", "mst"): ("A", "A"),
    ("SS4", "est"): ("A", "A"),
}

STUDENTS = ("SS1", "SS2", "SS3", "SS4")


def case_solop() -> ProblemBundle:
    """Rank the students on core-subject performance in the mid-semester test."""
    alternatives = []
    for s in STUDENTS:
        core = MST_WORDS[s][:5]
        alternatives.append(Alternative(s, (Rule(s, core, (AUTO,)),), core))
    return ProblemBundle(
        name="case-solop",
        objectives=(Objective("overall", "max"),),
        alternatives=tuple(alternatives),
        ranking=("overall",),
        terms=TERMS,
    )


def case_molop() -> ProblemBundle:
    """Rank the students on core and elective performance across both tests."""
    alternatives = []
    for s in STUDENTS:
        rules = (
            Rule(f"{s}-mst", MST_WORDS[s], MOLOP_CONSEQUENTS[(s, "mst")]),
            Rule(f"{s}-est", EST_WORDS[s], MOLOP_CONSEQUENTS[(s, "est")]),
        )
        alternatives.append(Alternative(s, rules, MST_WORDS[s]))
    return ProblemBundle(
        name="case-molop",
        objectives=(
            Objective("core", "max", tuple(range(1, 6))),
            Objective("elective", "max", (6, 7)),
        ),
        alternatives=tuple(alternatives),
        ranking=("elective", "core"),
        terms=TERMS,
    )


def sm_toy() -> ProblemBundle:
    """Two-rule, two-objective toy system on a small/big vocabulary."""
    rules = (
        Rule("R1", ("S", "S"), ("S", "B")),
        Rule("R2", ("S", "B"), ("B", "S")),
    )
    return ProblemBundle(
        name="sm-toy",
        objectives=(Objective("f1", "max"), Objective("f2", "max")),
        alternatives=(Alternative("system", rules, None),),
        ranking=("f1",),
        terms=("S", "B"),
    )


_FIXTURES = {"case-solop": case_solop, "case-molop": case_molop, "sm-toy": sm_toy}


def load_problem(source: Union[str, Path]) -> ProblemBundle:
    """Load a bundle from a fixture id or a problem file."""
    return load_source(source, _FIXTURES, parse_problem, "problem", ProblemError)


# ---------------------------------------------------------------------------
# Text format


def _parse_slots(spec: str, antecedents: int) -> tuple[int, ...]:
    """Expand a slot spec such as ``1-3,5``.  Each range end is checked
    against ``antecedents``, the most any rule has, before the range is
    expanded, so a huge range is refused rather than built.  A range
    written high to low is refused; a slot may repeat."""
    slots: list[int] = []
    for part in spec.split(","):
        lo, dash, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError:
            raise ProblemError(f"bad slot spec {spec!r}") from None
        if lo > hi:
            raise ProblemError(f"slot spec {spec!r}: range {part!r} runs from high to low")
        if hi > antecedents:
            raise ProblemError(
                f"slot spec {spec!r}: slot {hi} is past the {antecedents} antecedents of the rules"
            )
        slots.extend(range(lo, hi + 1))
    if not slots or any(s < 1 for s in slots):
        raise ProblemError(f"bad slot spec {spec!r}")
    return tuple(slots)


def parse_problem(text: str) -> ProblemBundle:
    header: dict[str, str] = {}
    objective_specs: list[list[str]] = []  # name, direction[, "slots", slot spec]
    rules: dict[str, Rule] = {}
    alternatives: list[Alternative] = []
    for line in file_lines(text, "problem v1", ProblemError):
        if line.startswith("rule "):
            parts = [p.strip() for p in line[5:].split("|")]
            if len(parts) != 3:
                raise ProblemError(f"rule line needs 'label | antecedents | consequents': {line!r}")
            label = parts[0]
            _check_label("rule", label)
            if label in rules:
                raise ProblemError(f"duplicate rule label {label!r}")
            rules[label] = Rule(label, tuple(parts[1].split()), tuple(parts[2].split()))
        elif line.startswith("alternative "):
            label, *parts = (p.strip() for p in line[12:].split("|"))
            fields: dict[str, str] = {}
            for part in parts:
                add_field(fields, part, ("rules", "input"), f"alternative {label!r}", ProblemError)
            refs = fields.get("rules", "").split()
            for ref in refs:
                if ref not in rules:
                    raise ProblemError(f"alternative {label!r} references unknown rule {ref!r}")
            if len(set(refs)) != len(refs):
                raise ProblemError(f"alternative {label!r} lists a rule twice: {fields['rules']!r}")
            input_vec = tuple(fields["input"].split()) if "input" in fields else None
            alternatives.append(Alternative(label, tuple(rules[ref] for ref in refs), input_vec))
        elif line.partition("=")[0].strip() == "objective":  # the one repeatable header key
            value = line.partition("=")[2].strip()
            spec = value.split()
            if not (len(spec) == 2 or len(spec) == 4 and spec[2] == "slots"):
                raise ProblemError(f"bad objective line: {value!r}")
            objective_specs.append(spec)
        else:
            add_field(header, line, ("name", "codebook", "terms", "ranking"), "problem", ProblemError)
    if "terms" not in header:
        raise ProblemError("problem file must declare terms")
    # slot specs wait for the rules, whose antecedent count bounds them
    most = max((len(r.antecedents) for r in rules.values()), default=0)
    objectives = []
    for objective, direction, *rest in objective_specs:
        slots = _parse_slots(rest[1], most) if rest else None
        try:
            objectives.append(Objective(objective, direction, slots))
        except DomainError as e:
            raise ProblemError(f"objective {objective!r}: {e}") from None
    if not objectives:
        raise ProblemError("problem file must declare at least one objective")
    ranking = tuple(header["ranking"].split()) if "ranking" in header else (objectives[0].name,)
    return ProblemBundle(header.get("name", "unnamed"), tuple(objectives), tuple(alternatives), ranking,
                         tuple(header["terms"].split()), header.get("codebook", "paper-hma"))
