import math
from enum import Enum

import numpy as np
import pytest

from lingopt.codebook import Codebook, load_codebook
from lingopt.fuzzy import TOL, DomainError, Interval, IT2Word, NoRuleFiredError, Trapezoid
from lingopt.problems import ProblemBundle
from lingopt.reasoning import AUTO, AUTO_WORD, _best
from lingopt.similarity import Centroid, SampledWord, centroid_ekm_from_samples, jaccard, sample_word


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


def translate(t: Trapezoid, offset: float) -> Trapezoid:
    return Trapezoid(t.a + offset, t.b + offset, t.c + offset, t.d + offset, t.h)


class FouShape(Enum):
    INTERIOR = "interior"
    LEFT_SHOULDER = "left-shoulder"
    RIGHT_SHOULDER = "right-shoulder"


def classify_fou(w: IT2Word, scale: Interval, tol: float = 1e-9) -> FouShape:
    """Shape oracle: a shoulder has both trapezoids flat against the
    corresponding scale end and a lower membership function of full height."""
    full_height = abs(w.lmf.h - 1.0) <= tol
    left = all(abs(v - scale.lo) <= tol for v in (w.umf.a, w.umf.b, w.lmf.a, w.lmf.b))
    if left and full_height:
        return FouShape.LEFT_SHOULDER
    right = all(abs(v - scale.hi) <= tol for v in (w.umf.c, w.umf.d, w.lmf.c, w.lmf.d))
    if right and full_height:
        return FouShape.RIGHT_SHOULDER
    return FouShape.INTERIOR


def membership_grid_oracle(t: Trapezoid, xs: np.ndarray) -> np.ndarray:
    """``Trapezoid.membership_grid`` in its mask form: each of the ranges
    [a, b), [b, c] and (c, d] is found by comparing every point, in any
    order, and written through a boolean mask."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    out[(xs >= t.b) & (xs <= t.c)] = t.h
    if t.b > t.a:
        rise = (xs >= t.a) & (xs < t.b)
        out[rise] = t.h * (xs[rise] - t.a) / (t.b - t.a)
    if t.d > t.c:
        fall = (xs > t.c) & (xs <= t.d)
        out[fall] = t.h * (t.d - xs[fall]) / (t.d - t.c)
    return out


def centroid_brute(w: IT2Word, d) -> Centroid:
    """Centroid oracle: exhaustive switch-point enumeration on ``d.grid()``.

    The extreme values of sum(x*w)/sum(w) over w in [lower, upper] are
    attained by single-switch assignments; this evaluates every switch
    position directly.  Zero-mass grid points are dropped first.
    """
    xs = d.grid()
    lo, hi = w.lmf.membership_grid(xs), w.umf.membership_grid(xs)
    keep = hi > 0.0
    xs, lo, hi = xs[keep], lo[keep], hi[keep]
    n = xs.size
    # prefix[k] = sum over the first k points
    pref_x_hi = np.concatenate([[0.0], np.cumsum(xs * hi)])
    pref_hi = np.concatenate([[0.0], np.cumsum(hi)])
    pref_x_lo = np.concatenate([[0.0], np.cumsum(xs * lo)])
    pref_lo = np.concatenate([[0.0], np.cumsum(lo)])
    # left endpoint: upper weights below the switch, lower above
    num_l = pref_x_hi + (pref_x_lo[n] - pref_x_lo)
    den_l = pref_hi + (pref_lo[n] - pref_lo)
    # right endpoint: lower weights below the switch, upper above
    num_r = pref_x_lo + (pref_x_hi[n] - pref_x_hi)
    den_r = pref_lo + (pref_hi[n] - pref_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios_l = np.where(den_l > 0, num_l / den_l, np.inf)
        ratios_r = np.where(den_r > 0, num_r / den_r, -np.inf)
    return Centroid(float(ratios_l.min()), float(ratios_r.max()))


def alpha_cut(t: Trapezoid, alpha: float) -> Interval:
    """Horizontal cut of ``t`` at level ``alpha``.

    Returns [a + (alpha/h)(b - a), d - (alpha/h)(d - c)].  At alpha = 0 this
    is the support, at alpha = h the core [b, c].  Each end is clamped to
    the core so that rounding never makes the ends cross (b == c, alpha = h).
    """
    if alpha < 0.0 or alpha > t.h + TOL:
        raise DomainError(f"alpha={alpha} outside [0, {t.h}] for cut of height-{t.h} trapezoid")
    alpha = min(alpha, t.h)
    frac = alpha / t.h
    return Interval(min(t.a + frac * (t.b - t.a), t.b), max(t.d - frac * (t.d - t.c), t.c))


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


def exact_jaccard(a, b) -> float:
    """Jaccard oracle without a grid: the ratio of the integrals of
    min(UMF_a, UMF_b) + min(LMF_a, LMF_b) and of the maxima.  The real line is
    split at every vertex of the four trapezoids, where each membership is
    linear between splits, and again where two memberships cross, so min and
    max are linear on every piece and integrate exactly as width times the
    value at the piece's midpoint.  Reads only scalar ``Trapezoid.membership``."""
    xs = sorted(set(a.umf.vertices + a.lmf.vertices + b.umf.vertices + b.lmf.vertices))
    lo, hi = [], []
    for p, q in ((a.umf, b.umf), (a.lmf, b.lmf)):
        for x0, x1 in zip(xs, xs[1:]):
            # p - q is linear inside (x0, x1); a vertical edge may sit at either
            # end, so its end values come from the points a quarter in
            u, v = x0 + 0.25 * (x1 - x0), x0 + 0.75 * (x1 - x0)
            du, dv = p.membership(u) - q.membership(u), p.membership(v) - q.membership(v)
            e0, e1 = du - 0.5 * (dv - du), dv + 0.5 * (dv - du)
            cuts = [x0, x1]
            if e0 * e1 < 0.0:
                cuts.insert(1, x0 + (x1 - x0) * e0 / (e0 - e1))
            for s0, s1 in zip(cuts, cuts[1:]):
                m = 0.5 * (s0 + s1)
                fp, fq = p.membership(m), q.membership(m)
                lo.append((s1 - s0) * min(fp, fq))
                hi.append((s1 - s0) * max(fp, fq))
    return math.fsum(lo) / math.fsum(hi)


def _moments(t: Trapezoid, lo: float, hi: float) -> tuple[float, float]:
    """The integrals of mu and of x * mu over [lo, hi] for trapezoid ``t``,
    exactly: on each of its three pieces mu is linear, so both integrands
    are at most quadratic and the closed forms below hold.  A vertical edge
    is a piece of zero width and adds nothing."""
    m0, m1 = 0.0, 0.0
    for (x0, y0), (x1, y1) in (((t.a, 0.0), (t.b, t.h)), ((t.b, t.h), (t.c, t.h)), ((t.c, t.h), (t.d, 0.0))):
        p, q = max(x0, lo), min(x1, hi)
        if q <= p:
            continue
        yp = y0 + (y1 - y0) * (p - x0) / (x1 - x0)
        yq = y0 + (y1 - y0) * (q - x0) / (x1 - x0)
        m0 += (q - p) * (yp + yq) / 2.0
        m1 += (q - p) * (yp * (2.0 * p + q) + yq * (p + 2.0 * q)) / 6.0
    return m0, m1


def exact_centroid(w: IT2Word) -> Centroid:
    """Centroid oracle without a grid: continuous Karnik-Mendel.  The left
    end is the root of the decreasing function of the switch point s

        km(s) = int_{x<s} (x - s) UMF + int_{x>s} (x - s) LMF,

    and the right end the root of the same function with UMF and LMF
    swapped.  Each is found by bisection on the UMF support, from moments
    that ``_moments`` integrates exactly from the vertices and heights."""
    lo, hi = w.umf.a, w.umf.d

    def km(s: float, below: Trapezoid, above: Trapezoid) -> float:
        b0, b1 = _moments(below, lo, s)
        a0, a1 = _moments(above, s, hi)
        return (b1 - s * b0) + (a1 - s * a0)

    def root(below: Trapezoid, above: Trapezoid) -> float:
        left, right = lo, hi
        while True:
            mid = 0.5 * (left + right)
            if not left < mid < right:
                return mid
            if km(mid, below, above) > 0.0:
                left = mid
            else:
                right = mid

    return Centroid(root(w.umf, w.lmf), root(w.lmf, w.umf))


def lwa_oracle(words, firings) -> IT2Word:
    """LWA oracle: the fired words and their LMF cuts gathered row by row in
    Python lists, then averaged by the same array product as the engine, so
    the two agree to the last bit."""
    for f in firings:
        if not 0.0 <= f <= 1.0:
            raise DomainError(f"firing level must lie in [0, 1], got {f}")
    fired = [(w, f) for w, f in zip(words, firings) if f > 0.0]
    if not fired:
        raise NoRuleFiredError("all firings are zero")
    weights = np.array([f for _, f in fired])
    total = weights.sum()
    h = min(w.lmf.h for w, _ in fired)
    cuts = [(t.a, t.a + h / t.h * (t.b - t.a), t.d - h / t.h * (t.d - t.c), t.d) for t in (w.lmf for w, _ in fired)]

    def average(rows, height: float) -> Trapezoid:
        a, b, c, d = weights @ np.array(rows) / total
        b = min(max(b, a), d)
        c = min(max(c, b), d)
        return Trapezoid(a, b, c, d, height)

    return IT2Word("", average([w.umf.vertices for w, _ in fired], 1.0), average(cuts, h))


def nearest_mean_oracle(mean: float, cb) -> str:
    """Word whose centroid mean is nearest; within 1e-12 is a tie, and a tie
    goes to the later word."""
    best, best_gap = None, np.inf
    for w in cb.words:
        gap = abs(w.centroid.mean - mean)
        if best is None or gap < best_gap - 1e-12:
            best, best_gap = w.name, gap
        elif gap <= best_gap + 1e-12:
            best = w.name
    return best


def jaccard_pairwise(a: SampledWord, b: SampledWord) -> float:
    """Jaccard oracle for two words sampled on one grid, independent of the
    dense kernel: the minima are summed over the overlap of the two
    supports only, and sum max(p, q) = sum p + sum q - sum min(p, q)."""
    start = max(a.start, b.start)
    stop = min(a.start + a.xs.size, b.start + b.xs.size)
    num = 0.0
    if start < stop:
        sa = slice(start - a.start, stop - a.start)
        sb = slice(start - b.start, stop - b.start)
        num = float(
            np.minimum(a.upper[sa], b.upper[sb]).sum() + np.minimum(a.lower[sa], b.lower[sb]).sum()
        )
    den = a.mass + b.mass - num
    return num / den if den > 0.0 else 0.0


def decode(fou: IT2Word, cb, d=None) -> str:
    """The decode a solve runs, for one FOU: its sample scored against ``cb.sampled(d)``."""
    scb = cb.sampled(d)
    return _best(scb.names, scb.scores(sample_word(fou, scb.d)).tolist())


def decode_oracle(s, cb, d):
    """Decode oracle, one word at a time: ``jaccard_pairwise`` of the sampled
    output ``s`` against each word sampled afresh on ``d``.  Within 1e-12 of
    the best so far is a tie, and a tie goes to the later word.  Returns the
    decoded name and every word's score."""
    scores = [jaccard_pairwise(s, sample_word(w, d)) for w in cb.words]
    best, best_score = None, -np.inf
    for name, score in zip(cb.names, scores):
        if best is None or score > best_score + 1e-12:
            best, best_score = name, score
        elif score >= best_score - 1e-12:
            best = name
    return best, scores


def solve_oracle(rules, objectives, inputs, cb, d):
    """Perceptual-reasoning oracle, one rule at a time: a rule fires at the
    minimum of its slots' ``jaccard`` values, each computed from freshly
    sampled words; each objective's consequents are resolved rule by rule
    (``auto`` entries synthesised by ``lwa_oracle``) and averaged by
    ``lwa_oracle``.  Returns the firings and each objective's output FOU."""
    firings = []
    for rule in rules:
        if len(rule.antecedents) != len(inputs):
            raise DomainError(f"rule {rule.label!r} expects {len(rule.antecedents)} inputs")
        firings.append(min(jaccard(cb.word(x), cb.word(a), d) for x, a in zip(inputs, rule.antecedents)))
    if not any(firings):
        raise NoRuleFiredError("no rule fired")
    fous = []
    for k, objective in enumerate(objectives):
        words = []
        for rule in rules:
            entry = rule.consequents[k]
            if entry in (AUTO, AUTO_WORD):
                slots = objective.slots or range(1, len(rule.antecedents) + 1)
                fou = lwa_oracle([cb.word(rule.antecedents[j - 1]) for j in slots], [1.0] * len(slots))
                if entry == AUTO_WORD:
                    s = sample_word(fou, d)
                    fou = cb.word(nearest_mean_oracle(centroid_ekm_from_samples(s.xs, s.lower, s.upper).mean, cb))
                words.append(fou)
            else:
                words.append(cb.word(entry))
        fous.append(lwa_oracle(words, firings))
    return firings, fous


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


def format_codebook(cb: Codebook) -> str:
    """``cb`` as a ``codebook v1`` file that ``parse_codebook`` reads back."""
    lines = ["codebook v1", f"scale = {cb.scale.lo:g} {cb.scale.hi:g}"]
    for w in cb.words:
        lines.append("")
        lines.append(f"word {w.name}")
        # float() first: the repr of a numpy scalar is not a number the parser reads
        lines.append("umf = " + " ".join(repr(float(v)) for v in w.umf.vertices))
        lines.append("lmf = " + " ".join(repr(float(v)) for v in (*w.lmf.vertices, w.lmf.h)))
        if w.centroid is not None:
            c = w.centroid
            lines.append("centroid = " + " ".join(repr(float(v)) for v in (c.cl, c.cr, c.mean)))
    return "\n".join(lines) + "\n"



def _format_slots(slots: tuple[int, ...]) -> str:
    """A slot tuple as a slot spec: a range where the slots run one by one."""
    if list(slots) == list(range(slots[0], slots[-1] + 1)):
        return f"{slots[0]}-{slots[-1]}" if len(slots) > 1 else str(slots[0])
    return ",".join(str(s) for s in slots)


def format_problem(bundle: ProblemBundle) -> str:
    """``bundle`` as a ``problem v1`` file that ``parse_problem`` reads back."""
    lines = [
        "problem v1",
        f"name = {bundle.name}",
        f"codebook = {bundle.codebook_id}",
        "terms = " + " ".join(bundle.terms),
    ]
    for o in bundle.objectives:
        if o.slots:
            lines.append(f"objective = {o.name} {o.direction} slots {_format_slots(o.slots)}")
        else:
            lines.append(f"objective = {o.name} {o.direction}")
    lines.append("ranking = " + " ".join(bundle.ranking))
    seen = set()
    for alt in bundle.alternatives:
        for r in alt.rules:
            if r.label in seen:
                continue
            seen.add(r.label)
            lines.append(
                f"rule {r.label} | " + " ".join(r.antecedents) + " | " + " ".join(r.consequents)
            )
    for alt in bundle.alternatives:
        parts = [alt.label, "rules = " + " ".join(r.label for r in alt.rules)]
        if alt.input is not None:
            parts.append("input = " + " ".join(alt.input))
        lines.append("alternative " + " | ".join(parts))
    return "\n".join(lines) + "\n"


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
