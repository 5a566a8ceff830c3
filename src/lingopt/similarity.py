"""Jaccard similarity, centroid type-reduction (EKM + exhaustive oracle), ranking.

All the numeric work happens on a shared uniform grid described by a
``Discretization``.  The Jaccard measure used throughout is the standard
sum-ratio form for interval type-2 sets:

    sm(A, B) = (sum min(uA, uB) + sum min(lA, lB))
             / (sum max(uA, uB) + sum max(lA, lB))

with u/l the upper and lower memberships sampled on the grid.  A word is
sampled only on the grid points of its support (``sample_word``), where its
memberships can be nonzero; ``jaccard_sampled`` is the one kernel that
compares two such samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fuzzy import DomainError, Interval, IT2Word, LingoptError, TOL


class DegenerateWordError(LingoptError):
    """The word has no membership mass on the grid; its centroid is undefined."""


@dataclass(frozen=True)
class Centroid:
    """Centroid interval [cl, cr] of an IT2 set plus its midpoint."""

    cl: float
    cr: float

    def __post_init__(self):
        if self.cl > self.cr + TOL:
            raise DomainError(f"centroid requires cl <= cr, got [{self.cl}, {self.cr}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.cl + self.cr)


@dataclass(frozen=True)
class Discretization:
    """Uniform sampling grid over a scale. 1001 points on [0, 10] by default."""

    points: int = 1001
    scale: Interval = field(default_factory=lambda: Interval(0.0, 10.0))

    def __post_init__(self):
        if self.points < 3:
            raise DomainError(f"discretization needs >= 3 points, got {self.points}")

    def grid(self) -> np.ndarray:
        return _grid_cached(self.points, self.scale.lo, self.scale.hi)


@functools.lru_cache(maxsize=64)
def _grid_cached(points: int, lo: float, hi: float) -> np.ndarray:
    xs = np.linspace(lo, hi, points)
    xs.setflags(write=False)
    return xs


DEFAULT_GRID = Discretization()


def _check_on_scale(w: IT2Word, d: Discretization) -> None:
    if w.umf.a < d.scale.lo - TOL or w.umf.d > d.scale.hi + TOL:
        raise DomainError(
            f"word {w.name!r} support [{w.umf.a}, {w.umf.d}] exceeds scale "
            f"[{d.scale.lo}, {d.scale.hi}]"
        )


@dataclass(frozen=True, eq=False)
class SampledWord:
    """A word's lower and upper memberships on the grid points of its support.

    Grid points outside the support have zero membership, so they are not
    stored: ``xs`` is the slice of the grid from index ``start`` on, and
    ``mass`` is the sum of both membership arrays.
    """

    start: int
    xs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mass: float


def sample_word(w: IT2Word, d: Discretization = DEFAULT_GRID) -> SampledWord:
    """Sample the word on the grid points of its support (the union of the
    UMF and LMF supports; for a valid word, the UMF support)."""
    _check_on_scale(w, d)
    grid = d.grid()
    start = int(np.searchsorted(grid, min(w.umf.a, w.lmf.a), side="left"))
    stop = int(np.searchsorted(grid, max(w.umf.d, w.lmf.d), side="right"))
    xs = grid[start:stop]
    lower, upper = w.lmf.membership_grid(xs), w.umf.membership_grid(xs)
    return SampledWord(start, xs, lower, upper, float(upper.sum() + lower.sum()))


def jaccard_sampled(a: SampledWord, b: SampledWord) -> float:
    """Jaccard measure of two words sampled on the same grid.

    The minima are nonzero only where both supports overlap, and
    sum max(p, q) = sum p + sum q - sum min(p, q), so the denominator
    follows from the two masses.
    """
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
    if den <= 0.0:
        return 0.0
    return num / den


def jaccard(a: IT2Word, b: IT2Word, d: Discretization = DEFAULT_GRID) -> float:
    """Similarity in [0, 1]; 1 iff the FOUs coincide on the grid; symmetric."""
    return jaccard_sampled(sample_word(a, d), sample_word(b, d))


# ---------------------------------------------------------------------------
# Centroid type-reduction


def _prepare_samples(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    mass = upper > 0.0
    if not mass.any():
        raise DegenerateWordError("all-zero membership: centroid undefined")
    # zero-mass points cannot influence any weighted average; dropping them
    # keeps every partial denominator strictly positive
    return xs[mass], lower[mass], upper[mass]


def centroid_brute_from_samples(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> Centroid:
    """Exhaustive switch-point enumeration of the centroid endpoints.

    The extreme values of sum(x*w)/sum(w) over w in [lower, upper] are
    attained by single-switch assignments; this evaluates every switch
    position directly and is the oracle the iterative routine is checked
    against.
    """
    xs, lo, hi = _prepare_samples(xs, lower, upper)
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


def _ekm_endpoint(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray, right: bool) -> float:
    """One enhanced Karnik-Mendel iteration (left or right endpoint)."""
    n = xs.size
    k = int(round(n / (1.7 if right else 2.4)))
    k = min(max(k, 1), n - 1)
    if right:
        a = float(np.dot(xs[:k], lower[:k]) + np.dot(xs[k:], upper[k:]))
        b = float(lower[:k].sum() + upper[k:].sum())
    else:
        a = float(np.dot(xs[:k], upper[:k]) + np.dot(xs[k:], lower[k:]))
        b = float(upper[:k].sum() + lower[k:].sum())
    y = a / b
    for _ in range(n):
        k_new = int(np.searchsorted(xs, y, side="right"))
        k_new = min(max(k_new, 1), n - 1)
        if k_new == k:
            return y
        sgn = 1.0 if k_new > k else -1.0
        s = slice(min(k, k_new), max(k, k_new))
        delta_x = float(np.dot(xs[s], upper[s] - lower[s]))
        delta_w = float((upper[s] - lower[s]).sum())
        if right:
            a -= sgn * delta_x
            b -= sgn * delta_w
        else:
            a += sgn * delta_x
            b += sgn * delta_w
        y = a / b
        k = k_new
    return y


def centroid_ekm_from_samples(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> Centroid:
    xs, lo, hi = _prepare_samples(xs, lower, upper)
    if np.allclose(lo, hi, atol=0.0):
        # type-1 degeneracy: both endpoints collapse to sum(x*u)/sum(u)
        c = float(np.dot(xs, hi) / hi.sum())
        return Centroid(c, c)
    cl = _ekm_endpoint(xs, lo, hi, right=False)
    cr = _ekm_endpoint(xs, lo, hi, right=True)
    return Centroid(cl, cr)


def centroid_ekm(w: IT2Word, d: Discretization = DEFAULT_GRID) -> Centroid:
    """Centroid interval of the word via the enhanced Karnik-Mendel iteration."""
    xs = d.grid()
    return centroid_ekm_from_samples(xs, w.lmf.membership_grid(xs), w.umf.membership_grid(xs))


def centroid_brute(w: IT2Word, d: Discretization = DEFAULT_GRID) -> Centroid:
    xs = d.grid()
    return centroid_brute_from_samples(xs, w.lmf.membership_grid(xs), w.umf.membership_grid(xs))


# ---------------------------------------------------------------------------
# Ranking


def rank_by_centroid(
    items: Sequence[tuple[str, float, Optional[float]]],
    direction: str = "max",
    tol: float = 1e-9,
) -> list[str]:
    """Order labels by their primary score, breaking exact ties on the
    tiebreak score.  Remaining ties keep input order.

    A score is a centroid mean for perceptual reasoning and a beta for the
    2-tuple baseline.  ``direction`` is "max" (best = largest score, the
    default) or "min".
    """
    if not items:
        raise DomainError("rank_by_centroid needs at least one item")
    if direction not in ("max", "min"):
        raise DomainError(f"direction must be 'max' or 'min', got {direction!r}")
    sign = 1.0 if direction == "max" else -1.0

    def better(i: int, j: int) -> int:
        pi, pj = sign * items[i][1], sign * items[j][1]
        if abs(pi - pj) > tol:
            return -1 if pi > pj else 1
        ti, tj = items[i][2], items[j][2]
        if ti is not None and tj is not None and abs(ti - tj) > tol:
            return -1 if sign * ti > sign * tj else 1
        return -1 if i < j else 1  # stable

    order = sorted(range(len(items)), key=functools.cmp_to_key(better))
    return [items[i][0] for i in order]
