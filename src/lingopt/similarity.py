"""Jaccard similarity, centroid type-reduction (enhanced Karnik-Mendel), ranking.

All the numeric work happens on a shared uniform grid described by a
``Discretization``.  The Jaccard measure used throughout is the standard
sum-ratio form for interval type-2 sets:

    sm(A, B) = (sum min(uA, uB) + sum min(lA, lB))
             / (sum max(uA, uB) + sum max(lA, lB))

with u/l the upper and lower memberships sampled on the grid.  ``sample_word``
is the only way a word is put on a grid: on the points of its support, where
its memberships can be nonzero.  ``jaccard_rows``, the one Jaccard kernel,
scores such a sample against dense (V, N) rows over its support; firing,
decoding and ``jaccard`` all run it, so they agree to the last bit.  A decode
reads only the rows whose words can meet the sample (``SampledCodebook.scores``).
``centroid_ekm_from_samples`` reduces a sample to its centroid interval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fuzzy import DomainError, Interval, IT2Word, LingoptError, TOL, check_direction

DEFAULT_POINTS = 1001  # grid points of a ``Discretization`` unless a caller asks for others
RANK_TOL = 1e-9  # scores closer than this tie on one objective in ``rank_by_centroid``
# most grid columns ``jaccard_rows`` takes the minima of at once; every support
# on a grid of up to 10001 points fits in one chunk
JACCARD_CHUNK = 16384


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
    """Uniform sampling grid over a scale, DEFAULT_POINTS points on [0, 10] by default."""

    points: int = DEFAULT_POINTS
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


def sample_word(w: IT2Word, d: Discretization) -> SampledWord:
    """Sample the word on the grid points of its support (the union of the
    UMF and LMF supports; for a valid word, the UMF support)."""
    _check_on_scale(w, d)
    grid = d.grid()
    start = int(grid.searchsorted(min(w.umf.a, w.lmf.a), side="left"))
    stop = int(grid.searchsorted(max(w.umf.d, w.lmf.d), side="right"))
    xs = grid[start:stop]
    lower, upper = w.lmf.membership_grid(xs), w.umf.membership_grid(xs)
    return SampledWord(start, xs, lower, upper, float(upper.sum() + lower.sum()))


def jaccard_rows(upper: np.ndarray, lower: np.ndarray, mass: np.ndarray, s: SampledWord) -> np.ndarray:
    """Jaccard measure of ``s`` against each dense row of ``upper`` and
    ``lower`` (V, N), whose sums are ``mass``.  The minima are nonzero only
    on the support of ``s``, and sum max(p, q) = sum p + sum q - sum min(p, q),
    so the denominator follows from the masses; where it is not positive the
    score is 0, and a row whose support misses that of ``s`` scores +0.0.
    The minima are summed in chunks of at most JACCARD_CHUNK columns in one
    reused buffer, so a call's memory does not grow with the support."""
    k = s.xs.size
    buf = np.empty((len(mass), min(k, JACCARD_CHUNK)))
    num = np.zeros(len(mass))
    for lo in range(0, k, JACCARD_CHUNK):
        hi = min(lo + JACCARD_CHUNK, k)
        cols, out = slice(s.start + lo, s.start + hi), buf[:, :hi - lo]
        num += np.minimum(upper[:, cols], s.upper[lo:hi], out=out).sum(axis=1)
        num += np.minimum(lower[:, cols], s.lower[lo:hi], out=out).sum(axis=1)
    den = mass + s.mass - num
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def jaccard(a: IT2Word, b: IT2Word, d: Discretization) -> float:
    """Similarity in [0, 1]; 1 iff the FOUs coincide on the grid.  The sums
    run over ``a``'s support, so it is symmetric only up to rounding."""
    sa, sb = sample_word(a, d), sample_word(b, d)
    rows = np.zeros((2, 1, d.points))
    rows[:, 0, sb.start:sb.start + sb.xs.size] = sb.upper, sb.lower
    return float(jaccard_rows(rows[0], rows[1], np.array([sb.mass]), sa)[0])


# ---------------------------------------------------------------------------
# Centroid type-reduction


def _prepare_samples(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    mass = upper > 0.0
    if not mass.any():
        raise DegenerateWordError("all-zero membership: centroid undefined")
    # zero-mass points cannot influence any weighted average; trimming them off
    # both ends (views, no copies) keeps every partial denominator positive: the
    # left end's sums hold the first sample's ``upper``, the right end's the last
    run = slice(int(mass.argmax()), mass.size - int(mass[::-1].argmax()))
    return xs[run], lower[run], upper[run]


def _ekm_endpoint(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray, gap: np.ndarray, right: bool) -> float:
    """One enhanced Karnik-Mendel iteration.  The left end weights the points
    below the switch by ``upper`` and those above by ``lower``; the right end
    swaps the two.  ``gap`` is ``upper - lower``, which both ends share."""
    n = xs.size
    k = int(round(n / (1.7 if right else 2.4)))
    k = min(max(k, 1), n - 1)
    below, above = (lower, upper) if right else (upper, lower)
    a = float(np.dot(xs[:k], below[:k]) + np.dot(xs[k:], above[k:]))
    b = float(below[:k].sum() + above[k:].sum())
    y = a / b
    for _ in range(n):
        k_new = int(xs.searchsorted(y, side="right"))
        k_new = min(max(k_new, 1), n - 1)
        if k_new == k:
            break
        sgn = (1.0 if k_new > k else -1.0) * (-1.0 if right else 1.0)
        s = slice(min(k, k_new), max(k, k_new))
        a += sgn * float(np.dot(xs[s], gap[s]))
        b += sgn * float(gap[s].sum())
        y = a / b
        k = k_new
    return y


def centroid_ekm_from_samples(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> Centroid:
    """Centroid interval of memberships sampled at increasing ``xs``, by enhanced Karnik-Mendel."""
    xs, lo, hi = _prepare_samples(xs, lower, upper)
    if xs.size == 1:
        # one point carries all the mass, so both ends of the centroid are it
        return Centroid(float(xs[0]), float(xs[0]))
    # the test of np.allclose(lo, hi, atol=0.0), by the same float operations
    # (the samples are finite and hi > 0), after scalar probes at the first,
    # middle and last samples, one of which almost every IT2 output fails
    probes = (0, xs.size // 2, -1)
    if all(abs(lo[i] - hi[i]) <= 1e-5 * hi[i] for i in probes) and (np.abs(lo - hi) <= 1e-5 * hi).all():
        # type-1 degeneracy: both endpoints collapse to sum(x*u)/sum(u)
        c = float(np.dot(xs, hi) / hi.sum())
        ends = (c, c)
    else:
        gap = hi - lo
        ends = (_ekm_endpoint(xs, lo, hi, gap, right=False), _ekm_endpoint(xs, lo, hi, gap, right=True))
    # rounding can carry a weighted average past the samples
    first, last = float(xs[0]), float(xs[-1])
    cl, cr = (min(max(y, first), last) for y in ends)
    return Centroid(cl, cr)


def centroid_ekm(w: IT2Word, d: Discretization) -> Centroid:
    """Centroid interval of the word on the grid ``d``."""
    s = sample_word(w, d)
    return centroid_ekm_from_samples(s.xs, s.lower, s.upper)


# ---------------------------------------------------------------------------
# Ranking


def rank_by_centroid(items: Sequence[tuple[str, Sequence[float]]], directions: Sequence[str]) -> list[str]:
    """Order labels by their scores, one score per ranking objective.

    A score is a centroid mean for perceptual reasoning and a beta for the
    2-tuple baseline; ``directions`` holds "max" (best = largest score) or
    "min" for each objective.  Labels are sorted on the first objective;
    scores within RANK_TOL of a group's first member form one group, and each
    group is sorted the same way on the next objective.  The tolerance only
    decides which labels the next objective may reorder, so two labels keep
    their input order only when all their scores are equal, and the grouping
    is the same for every input order.
    """
    if not items:
        raise DomainError("rank_by_centroid needs at least one item")
    for direction in directions:
        check_direction(direction)
    if not directions or any(len(scores) != len(directions) for _, scores in items):
        raise DomainError("rank_by_centroid needs one score per direction for every item")
    groups = [list(range(len(items)))]  # item positions, best group first
    for k, direction in enumerate(directions):
        sign = 1.0 if direction == "max" else -1.0
        split = []
        for group in groups:
            group = sorted(group, key=lambda i: -sign * items[i][1][k])
            first = 0
            for j in range(1, len(group) + 1):
                if j == len(group) or abs(items[group[j]][1][k] - items[group[first]][1][k]) > RANK_TOL:
                    split.append(group[first:j])
                    first = j
        groups = split
    return [items[i][0] for group in groups for i in group]
