"""Interval type-2 fuzzy set primitives: intervals, trapezoids, IT2 words.

Every engine in the package is built on the same three value types: a plain
``Interval``, a ``Trapezoid`` membership function with an explicit height,
and an ``IT2Word`` pairing an upper and a lower trapezoid.  All of them are
immutable; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .similarity import Centroid

#: comparison tolerance for vertex, height and scale-end checks
TOL = 1e-9


class LingoptError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LingoptError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class NoRuleFiredError(LingoptError):
    """Every rule fired at zero; the inferred output would be undefined."""


def check_direction(direction: str) -> None:
    """Refuse an optimisation direction other than "max" or "min"."""
    if direction not in ("max", "min"):
        raise DomainError(f"direction must be 'max' or 'min', got {direction!r}")


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Trapezoid:
    """Trapezoidal membership function with vertices a <= b <= c <= d and height h.

    Membership is 0 outside [a, d], rises linearly on [a, b] to h, equals h
    on [b, c] and falls linearly back to 0 on [c, d].  Degenerate edges
    (a == b or c == d) are legal and denote vertical sides.
    """

    a: float
    b: float
    c: float
    d: float
    h: float = 1.0

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise DomainError(
                f"trapezoid vertices must be ordered, got ({self.a}, {self.b}, {self.c}, {self.d})"
            )
        if not 0.0 < self.h <= 1.0:
            raise DomainError(f"trapezoid height must be in (0, 1], got {self.h}")

    @property
    def vertices(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def membership(self, x: float) -> float:
        if x < self.a or x > self.d:
            return 0.0
        if self.b <= x <= self.c:
            return self.h
        if x < self.b:
            return self.h * (x - self.a) / (self.b - self.a)
        return self.h * (self.d - x) / (self.d - self.c)

    def membership_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership at increasing ``xs``; handles vertical edges
        exactly.  The points fall in index ranges [a, b), [b, c] and (c, d],
        found by bisection, and each ramp is computed in place in ``out``."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        i, j = xs.searchsorted((self.a, self.b))
        k, m = xs.searchsorted((self.c, self.d), side="right")
        out[j:k] = self.h
        if j > i:  # a rising edge, so b > a
            rise = np.subtract(xs[i:j], self.a, out=out[i:j])
            rise *= self.h
            rise /= self.b - self.a
        if m > k:
            fall = np.subtract(self.d, xs[k:m], out=out[k:m])
            fall *= self.h
            fall /= self.d - self.c
        return out


@dataclass(frozen=True)
class IT2Word:
    """An interval type-2 fuzzy set given by an upper and a lower trapezoid.

    The UMF must be normal (height 1) and must contain the LMF pointwise.
    ``centroid`` is a cache filled in by the codebook loader.
    """

    name: str
    umf: Trapezoid
    lmf: Trapezoid
    centroid: Optional["Centroid"] = None

    def validate(self) -> None:
        """Raise DomainError if the word breaks an IT2 invariant."""
        if abs(self.umf.h - 1.0) > TOL:
            raise DomainError(f"word {self.name!r}: umf height must be 1, got {self.umf.h}")
        if self.lmf.h > 1.0 + TOL:
            raise DomainError(f"word {self.name!r}: lmf height must be <= 1, got {self.lmf.h}")
        if self.lmf.a < self.umf.a - TOL or self.lmf.d > self.umf.d + TOL:
            raise DomainError(f"word {self.name!r}: lmf support exceeds umf support")
        # piecewise-linear containment only needs checking at the kinks of both curves
        for x in set(self.umf.vertices) | set(self.lmf.vertices):
            lo, hi = self.lmf.membership(x), self.umf.membership(x)
            if lo > hi + 1e-7:
                raise DomainError(
                    f"word {self.name!r}: lmf membership {lo:.6f} exceeds umf {hi:.6f} at x={x}"
                )


def vertex_rows(words: Sequence[IT2Word]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words' UMF and LMF vertices as (M, 4) arrays and their LMF heights
    as an (M,) array, one row per word in order."""
    umf = np.array([w.umf.vertices for w in words], dtype=float).reshape(-1, 4)
    lmf = np.array([w.lmf.vertices for w in words], dtype=float).reshape(-1, 4)
    return umf, lmf, np.array([w.lmf.h for w in words], dtype=float)
