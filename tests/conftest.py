import math

import numpy as np
import pytest

from lingopt.codebook import load_codebook
from lingopt.fuzzy import IT2Word, Trapezoid, alpha_cut


@pytest.fixture(scope="session")
def hma():
    return load_codebook("paper-hma")


@pytest.fixture(scope="session")
def ia():
    return load_codebook("paper-ia")


def random_trapezoid(rng: np.random.Generator, lo=0.0, hi=10.0, h=None) -> Trapezoid:
    a, b, c, d = np.sort(rng.uniform(lo, hi, 4))
    return Trapezoid(a, b, c, d, h if h is not None else rng.uniform(0.2, 1.0))


def random_word(rng: np.random.Generator, lo=0.0, hi=10.0) -> IT2Word:
    """Random valid IT2 word: LMF drawn inside the UMF by construction."""
    a, b, c, d = np.sort(rng.uniform(lo, hi, 4))
    m = 0.5 * (b + c)
    lmf = Trapezoid(
        rng.uniform(a, b),
        rng.uniform(b, m),
        rng.uniform(m, c),
        rng.uniform(c, d),
        rng.uniform(0.3, 1.0),
    )
    w = IT2Word("w", Trapezoid(a, b, c, d, 1.0), lmf)
    w.validate()
    return w


def assert_alpha_cuts_are_weighted_averages(out: IT2Word, words, firings, levels=101, tol=1e-12):
    """LWA oracle: at each of ``levels`` alpha levels, the output's cut is the
    firing-weighted average of the fired consequents' cuts; UMF on [0, 1],
    LMF on [0, h]."""
    fired = [(w, f) for w, f in zip(words, firings) if f > 0.0]
    total = sum(f for _, f in fired)
    for attr, top in (("umf", 1.0), ("lmf", out.lmf.h)):
        for alpha in np.linspace(0.0, top, levels):
            cut = alpha_cut(getattr(out, attr), alpha)
            cuts = [(alpha_cut(getattr(w, attr), alpha), f) for w, f in fired]
            assert cut.lo == pytest.approx(sum(c.lo * f for c, f in cuts) / total, abs=tol)
            assert cut.hi == pytest.approx(sum(c.hi * f for c, f in cuts) / total, abs=tol)


def jaccard_oracle(a: IT2Word, b: IT2Word, d) -> float:
    """Jaccard oracle: the sum-ratio over every point of ``d.grid()``, from
    scalar ``Trapezoid.membership`` values, summed exactly."""
    num, den = [], []
    for x in d.grid().tolist():
        ua, ub = a.umf.membership(x), b.umf.membership(x)
        la, lb = a.lmf.membership(x), b.lmf.membership(x)
        num += [min(ua, ub), min(la, lb)]
        den += [max(ua, ub), max(la, lb)]
    total = math.fsum(den)
    return math.fsum(num) / total if total else 0.0


def _interp(x: float, xs, fs) -> float:
    """Piecewise-linear interpolation through (xs, fs), xs increasing, flat outside."""
    if x <= xs[0]:
        return fs[0]
    if x >= xs[-1]:
        return fs[-1]
    j = max(i for i in range(len(xs) - 1) if xs[i] <= x)
    return fs[j] + (x - xs[j]) / (xs[j + 1] - xs[j]) * (fs[j + 1] - fs[j])


def monotone_oracle(spec, x: float) -> float:
    """Membership on [0, 1] of a monotone MF spec: ("increasing",),
    ("decreasing",) or ("custom", xs, mus)."""
    x = min(max(x, 0.0), 1.0)
    if spec[0] == "increasing":
        return x
    if spec[0] == "decreasing":
        return 1.0 - x
    return _interp(x, spec[1], spec[2])


def monotone_inverse_oracle(spec, alpha: float) -> float:
    if spec[0] == "increasing":
        return alpha
    if spec[0] == "decreasing":
        return 1.0 - alpha
    xs, mus = spec[1], spec[2]
    if mus[0] < mus[-1]:
        return _interp(alpha, mus, xs)
    return _interp(alpha, mus[::-1], xs[::-1])


def tsukamoto_oracle(rules, y):
    """Tsukamoto objective values at point ``y`` from plain floats, or None
    when every rule fires at zero.  ``rules`` is a list of (antecedent specs,
    consequent specs) as taken by ``monotone_oracle``."""
    firings = [math.prod(monotone_oracle(s, yi) for s, yi in zip(ants, y)) for ants, _ in rules]
    total = math.fsum(firings)
    if total == 0.0:
        return None
    q = len(rules[0][1])
    return [
        math.fsum(a * monotone_inverse_oracle(cons[k], a) for a, (_, cons) in zip(firings, rules)) / total
        for k in range(q)
    ]


def assert_report_matches(expected: str, actual: str, num_tol: float = 0.05):
    """Token-by-token comparison: numeric fields within num_tol, text exact."""
    exp_lines = expected.strip().splitlines()
    act_lines = actual.strip().splitlines()
    assert len(exp_lines) == len(act_lines), (
        f"line count differs: expected {len(exp_lines)}, got {len(act_lines)}\n{actual}"
    )
    for ln, (el, al) in enumerate(zip(exp_lines, act_lines), 1):
        etoks, atoks = el.split(), al.split()
        assert len(etoks) == len(atoks), f"line {ln}: {el!r} vs {al!r}"
        for et, at in zip(etoks, atoks):
            try:
                ev, av = float(et), float(at)
            except ValueError:
                assert et == at, f"line {ln}: text field {at!r} != expected {et!r}"
            else:
                assert abs(ev - av) <= num_tol, (
                    f"line {ln}: numeric field {av} differs from expected {ev} "
                    f"by more than {num_tol}"
                )
