"""Seeded synthetic inputs for the ``pr-scale`` and ``synth-fine`` workloads.

Everything here is plain numpy and text: the program under test only ever
sees the ``codebook v1`` / ``problem v1`` text these functions return.

Two traps shape the generator:

* ``_finish_load`` rejects a vocabulary whose centroid means are not
  nondecreasing, so words are sorted by centroid mean (computed here on a
  fine grid, independently of the program) and redrawn until neighbouring
  means are far enough apart that the program's coarser grid cannot swap them.
* Random 5-slot rules against random inputs usually all fire at zero, which
  is a ``NoRuleFiredError``.  Each alternative's rules are drawn around one
  profile of word indices, and its input is one of its own rules'
  antecedents, so at least that rule fires at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALE = (0.0, 10.0)
SLOTS = 5
MIN_MEAN_GAP = 0.01  # far above the ~3e-3 centroid error of a 1001-point grid
SPREAD = 6  # rule antecedents sit within this many words of the alternative's profile


@dataclass(frozen=True)
class Shape:
    """Input size of one synthetic workload."""

    words: int
    alternatives: int
    rules: tuple[int, ...]  # rule count per alternative, cycled
    auto: bool  # auto consequents on per-objective slot subsets, else explicit words


def _trap(xs: np.ndarray, a: float, b: float, c: float, d: float, h: float) -> np.ndarray:
    out = np.zeros_like(xs)
    out[(xs >= b) & (xs <= c)] = h
    if b > a:
        m = (xs >= a) & (xs < b)
        out[m] = h * (xs[m] - a) / (b - a)
    if d > c:
        m = (xs > c) & (xs <= d)
        out[m] = h * (d - xs[m]) / (d - c)
    return out


def centroid_mean(umf, lmf, points: int = 10001) -> float:
    """Midpoint of the centroid interval, by exhaustive switch-point search."""
    xs = np.linspace(*SCALE, points)
    hi, lo = _trap(xs, *umf, 1.0), _trap(xs, *lmf)
    keep = hi > 0
    xs, hi, lo = xs[keep], hi[keep], lo[keep]
    z = np.zeros(1)
    px_hi, p_hi = np.concatenate([z, np.cumsum(xs * hi)]), np.concatenate([z, np.cumsum(hi)])
    px_lo, p_lo = np.concatenate([z, np.cumsum(xs * lo)]), np.concatenate([z, np.cumsum(lo)])
    cl = ((px_hi + px_lo[-1] - px_lo) / (p_hi + p_lo[-1] - p_lo)).min()
    cr = ((px_lo + px_hi[-1] - px_hi) / (p_lo + p_hi[-1] - p_hi)).max()
    return 0.5 * (cl + cr)


def _draw_word(rng: np.random.Generator, center: float):
    lo, hi = SCALE
    core = rng.uniform(0.1, 0.8)
    b, c = center - core, center + core
    a, d = b - rng.uniform(0.8, 2.5), c + rng.uniform(0.8, 2.5)
    a, b, c, d = (float(np.clip(v, lo, hi)) for v in (a, b, c, d))
    mid = 0.5 * (b + c)
    # the LMF rises no earlier and peaks no lower than the concave UMF, so it
    # stays inside it at every vertex, which is where validate() looks
    lmf = (rng.uniform(a, b), rng.uniform(b, mid), rng.uniform(mid, c), rng.uniform(c, d))
    return (a, b, c, d), (*(float(v) for v in lmf), float(rng.uniform(0.5, 1.0)))


def codebook_words(rng: np.random.Generator, n: int):
    """``n`` nested IT2 trapezoid words sorted by centroid mean, named W00.."""
    lo, hi = SCALE
    while True:
        step = (hi - lo) / n
        words = [_draw_word(rng, lo + (i + 0.5) * step + rng.uniform(-0.2, 0.2) * step) for i in range(n)]
        means = [centroid_mean(umf, lmf) for umf, lmf in words]
        order = np.argsort(means)
        if np.diff(np.sort(means)).min() >= MIN_MEAN_GAP:
            return [(f"W{i:02d}", *words[j]) for i, j in enumerate(order)]


def codebook_text(words, seed: int) -> str:
    lines = ["codebook v1", f"scale = {SCALE[0]:g} {SCALE[1]:g}", "encoder = synthetic",
             "generator = pcg64", f"seed = {seed}"]
    for name, umf, lmf in words:
        lines += ["", f"word {name}", "umf = " + " ".join(map(repr, umf)),
                  "lmf = " + " ".join(map(repr, lmf))]
    return "\n".join(lines) + "\n"


def problem_text(rng: np.random.Generator, names: list[str], shape: Shape, label: str) -> str:
    v = len(names)
    if shape.auto:
        objectives = ["objective = o1 max slots 1-3", "objective = o2 max slots 4-5"]
    else:
        objectives = ["objective = o1 max", "objective = o2 max"]
    lines = ["problem v1", f"name = {label}", "codebook = synthetic", "terms = " + " ".join(names),
             *objectives, "ranking = o1 o2"]
    alternatives = []
    for k in range(shape.alternatives):
        alt = f"A{k + 1:02d}"
        profile = rng.integers(0, v, SLOTS)
        labels, antecedents = [], []
        for r in range(shape.rules[k % len(shape.rules)]):
            ante = np.clip(profile + rng.integers(-SPREAD, SPREAD + 1, SLOTS), 0, v - 1)
            if shape.auto:
                cons = ["auto", "auto"]
            else:
                near = [ante[:3].mean(), ante[3:].mean()]
                cons = [names[int(np.clip(round(m) + rng.integers(-2, 3), 0, v - 1))] for m in near]
            labels.append(f"{alt}-R{r + 1:03d}")
            antecedents.append(ante)
            lines.append(f"rule {labels[-1]} | " + " ".join(names[i] for i in ante) + " | " + " ".join(cons))
        chosen = antecedents[int(rng.integers(len(antecedents)))]
        alternatives.append(f"alternative {alt} | rules = {' '.join(labels)} | input = "
                            + " ".join(names[i] for i in chosen))
    return "\n".join(lines + alternatives) + "\n"


def generate(shape: Shape, seed: int, label: str) -> tuple[str, str]:
    """(codebook text, problem text) for one seed."""
    rng = np.random.default_rng(seed)
    words = codebook_words(rng, shape.words)
    return codebook_text(words, seed), problem_text(rng, [w[0] for w in words], shape, label)
