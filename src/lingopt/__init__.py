"""Linguistic optimization: perceptual reasoning over IT2 fuzzy word models,
with 2-tuple and Tsukamoto baselines and the shared student-performance
case-study fixtures."""

from inspect import ismodule as _ismodule

from .fuzzy import (
    DomainError,
    Interval,
    IT2Word,
    LingoptError,
    NoRuleFiredError,
    Trapezoid,
)
from .similarity import (
    Centroid,
    DegenerateWordError,
    Discretization,
    centroid_ekm,
    jaccard,
    rank_by_centroid,
)
from .codebook import (
    Codebook,
    CodebookError,
    DataIntervalSet,
    EndpointSpec,
    SampledCodebook,
    load_codebook,
    sample_person_fou,
)
from .reasoning import (
    Objective,
    PrOutput,
    Rule,
    RuleBase,
    fire,
    fire_rules,
    lwa,
    solve_molop,
    synthesize_consequent,
)
from .twotuple import (
    OrdinalTermSet,
    OutOfScaleError,
    TwoTuple,
    molop_solve,
    overflow_check,
    solop_aggregate,
    to_two_tuple,
)
from .tsukamoto import (
    EqualityConstraint,
    MonotoneMf,
    TsukamotoRule,
    crisp_output,
    optimize,
)
from .problems import (
    Alternative,
    EngineMismatchError,
    ProblemBundle,
    ProblemError,
    case_molop,
    case_solop,
    load_problem,
    solve_pr_bundle,
    solve_two_tuple_bundle,
)

__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not _ismodule(value))
