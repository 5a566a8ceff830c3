"""Codebooks: vocabularies of IT2 word models, plus end-point interval sampling.

Two codebooks for the student-performance vocabulary ship as embedded
fixtures under the ids ``paper-hma`` and ``paper-ia`` (HMA- and IA-encoded
word models, transcribed verbatim).  The interval-data encoders themselves
(HMA / EIA / IA) are deliberately not implemented here: ``encode_word`` is a
pluggable seam, and the built-in "fixture-passthrough" encoder refuses to
run so nobody mistakes the fixtures for regenerable output.

Codebook file grammar (whitespace separated, ``#`` starts a comment)::

    codebook v1
    scale = 0 10
    encoder = HMA
    generator = pcg64     # optional, names the RNG behind any sampled data
    seed = 7              # optional

    word VP
    umf = 0 0 2.04 3.84
    lmf = 0 0 2.04 3.04 1.0
    centroid = 1.29 1.52 1.41   # optional; recomputed and checked on load

End-point spec files use the same framing with ``endpoints v1`` and per-word
``left = lo hi`` / ``right = lo hi`` lines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .fuzzy import DomainError, Interval, IT2Word, LingoptError, Trapezoid
from .similarity import (
    Centroid,
    Discretization,
    SampledWord,
    centroid_ekm,
    jaccard_sampled,
    sample_word,
)

GENERATOR_NAME = "pcg64"  # numpy default_rng
CENTROID_CACHE_TOL = 0.05  # fixture centroids are printed to 2 decimals


class CodebookError(LingoptError, ValueError):
    """A codebook file or fixture violates an invariant."""


class EndpointSpecError(LingoptError, ValueError):
    """An end-point interval specification is unusable."""


class EncoderError(LingoptError):
    """No usable interval-data encoder is registered."""


@dataclass(frozen=True)
class EndpointSpec:
    """Left and right end-point intervals elicited for one word."""

    word: str
    left: Interval
    right: Interval

    def __post_init__(self):
        if self.left.lo > self.right.hi:
            raise EndpointSpecError(
                f"word {self.word!r}: left interval starts above right interval end"
            )


@dataclass(frozen=True)
class DataIntervalSet:
    """Sampled (L_i, R_i) pairs standing in for one virtual subject each."""

    word: str
    pairs: tuple[tuple[float, float], ...]
    seed: Optional[int] = None

    def __post_init__(self):
        for l, r in self.pairs:
            if l > r:
                raise DomainError(f"word {self.word!r}: data interval with L={l} > R={r}")


@dataclass(frozen=True)
class Codebook:
    """Ordered vocabulary of IT2 words on a fixed scale.

    The instance keeps two derived caches outside equality, hashing and
    ``repr``: a name -> position map, and the ``SampledCodebook`` for the
    grid ``sampled`` was last asked for.  The codebook and its words are
    immutable, so neither can go stale; ``dataclasses.replace`` builds a new
    instance, which starts without a sampling.
    """

    scale: Interval
    words: tuple[IT2Word, ...]
    encoder_tag: str = "external"
    generator: Optional[str] = None
    seed: Optional[int] = None
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    _sampled: Optional[SampledCodebook] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = {w.name: i for i, w in enumerate(self.words)}
        if len(positions) != len(self.words):
            raise CodebookError(f"duplicate word names in codebook: {list(self.names)}")
        object.__setattr__(self, "_positions", positions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(w.name for w in self.words)

    def _position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise _unknown_word(name, self.names) from None

    def word(self, name: str) -> IT2Word:
        return self.words[self._position(name)]

    def index(self, name: str) -> int:
        """1-based position of the word in the vocabulary order."""
        return self._position(name) + 1

    def discretization(self, points: int = 1001) -> Discretization:
        return Discretization(points=points, scale=self.scale)

    def sampled(self, d: Optional[Discretization] = None) -> SampledCodebook:
        """The words sampled on ``d`` (default: this codebook's grid).

        The sampling is kept for the grid last asked for and returned again
        while ``d`` stays equal, so repeated solves share it and its table
        of pair similarities.  One slot bounds the memory to one grid.
        """
        d = d or self.discretization()
        scb = self._sampled
        if scb is None or scb.d != d:
            scb = SampledCodebook(self, d)
            object.__setattr__(self, "_sampled", scb)
        return scb


def _unknown_word(name: str, names: Sequence[str]) -> CodebookError:
    return CodebookError(f"unknown word {name!r}; codebook has {list(names)}")


class SampledCodebook:
    """A codebook's words sampled once on one grid, with the Jaccard
    similarities of the word pairs compared so far.

    Each word is stored as a ``SampledWord``: its memberships on the grid
    points of its support only.  Building it runs the on-scale check of
    ``jaccard`` on every word, so a grid that does not cover the codebook
    raises ``DomainError`` here.  Pair similarities are computed on first
    use, not for all V x V pairs up front.

    It holds no reference to the codebook that keeps it: that would be a
    cycle, and a dropped codebook would wait for the cyclic garbage
    collector instead of being freed at once.
    """

    def __init__(self, cb: Codebook, d: Discretization):
        self.names, self.d = cb.names, d
        self._positions = cb._positions
        self.words = tuple(sample_word(w, d) for w in cb.words)  # vocabulary order
        self.pairs: dict[tuple[str, str], float] = {}

    def __getitem__(self, name: str) -> SampledWord:
        try:
            return self.words[self._positions[name]]
        except KeyError:
            raise _unknown_word(name, self.names) from None

    def similarity(self, x: str, y: str) -> float:
        """Jaccard similarity of words ``x`` and ``y``, computed once per pair."""
        try:
            return self.pairs[x, y]
        except KeyError:
            sim = self.pairs[x, y] = jaccard_sampled(self[x], self[y])
            return sim


# ---------------------------------------------------------------------------
# Person-FOU sampling

MAX_RESAMPLE = 1000


def sample_person_fou(spec: EndpointSpec, n: int = 50, seed: int = 0) -> DataIntervalSet:
    """Draw ``n`` data intervals uniformly from the spec's end-point intervals.

    Deterministic for a given (spec, n, seed): L values are drawn first as a
    block, then R values, from a single pcg64 stream; any pair with L > R is
    redrawn (both ends) from the same stream, up to MAX_RESAMPLE attempts.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    ls = rng.uniform(spec.left.lo, spec.left.hi, n)
    rs = rng.uniform(spec.right.lo, spec.right.hi, n)
    for i in np.flatnonzero(ls > rs):
        for _ in range(MAX_RESAMPLE):
            l = rng.uniform(spec.left.lo, spec.left.hi)
            r = rng.uniform(spec.right.lo, spec.right.hi)
            if l <= r:
                ls[i], rs[i] = l, r
                break
        else:
            raise EndpointSpecError(
                f"word {spec.word!r}: could not draw L <= R in {MAX_RESAMPLE} attempts"
            )
    pairs = tuple((float(l), float(r)) for l, r in zip(ls, rs))
    return DataIntervalSet(spec.word, pairs, seed=seed)


# ---------------------------------------------------------------------------
# Encoders (pluggable; fixtures are the supported path)

Encoder = Callable[[DataIntervalSet, Interval], IT2Word]

_ENCODERS: dict[str, Encoder] = {}


def register_encoder(name: str, fn: Encoder) -> None:
    _ENCODERS[name] = fn


def encode_word(
    data: DataIntervalSet,
    encoder: str = "fixture-passthrough",
    scale: Interval = Interval(0.0, 10.0),
) -> IT2Word:
    """Turn sampled data intervals into a word model via a registered encoder."""
    if encoder == "fixture-passthrough" and encoder not in _ENCODERS:
        raise EncoderError(
            "no interval-to-FOU encoder is bundled: the HMA/EIA/IA data-processing "
            "algorithms are external. Load a fixture codebook ('paper-hma', "
            "'paper-ia') or register_encoder() an implementation."
        )
    if encoder not in _ENCODERS:
        raise EncoderError(f"encoder {encoder!r} is not registered")
    return _ENCODERS[encoder](data, scale)


# ---------------------------------------------------------------------------
# Embedded fixtures: the two student-performance codebooks and the
# end-point intervals they were elicited from.

_SCALE = Interval(0.0, 10.0)

# name, umf(a b c d), lmf(a b c d), lmf height, centroid (cl, cr, mean as printed)
_HMA_ROWS = [
    ("VP", (0.00, 0.00, 2.04, 3.84), (0.00, 0.00, 2.04, 3.04), 1.00, (1.29, 1.52, 1.41)),
    ("P", (0.00, 0.00, 4.53, 5.92), (0.00, 0.00, 4.53, 5.65), 1.00, (2.56, 2.63, 2.6)),
    ("A", (1.14, 2.99, 7.03, 8.94), (1.85, 2.99, 7.03, 8.22), 1.00, (4.83, 5.22, 5.02)),
    ("G", (3.5, 5.46, 10.0, 10.0), (4.23, 5.46, 10.0, 10.0), 1.00, (7.2, 7.4, 7.3)),
    ("VG", (6.44, 7.96, 10.0, 10.0), (6.82, 7.96, 10.0, 10.0), 1.00, (8.56, 8.67, 8.61)),
]

_IA_ROWS = [
    ("VP", (0.00, 0.00, 0.27, 3.91), (0.00, 0.00, 0.18, 2.63), 1.00, (0.88, 1.34, 1.11)),
    ("P", (0.00, 0.00, 0.94, 7.16), (0.00, 0.00, 0.43, 5.8), 1.00, (1.93, 2.48, 2.2)),
    ("A", (0.79, 4.6, 5.39, 9.15), (2.0, 4.99, 4.99, 7.91), 0.88, (4.43, 5.52, 4.97)),
    ("G", (2.87, 9.06, 10.0, 10.0), (4.1, 9.58, 10.0, 10.0), 1.00, (7.53, 8.04, 7.79)),
    ("VG", (6.13, 9.73, 10.0, 10.0), (7.34, 9.81, 10.0, 10.0), 1.00, (8.67, 9.11, 8.89)),
]

WORD_LONG_NAMES = {
    "VP": "Very Poor",
    "P": "Poor",
    "A": "Average",
    "G": "Good",
    "VG": "Very Good",
}

# end-point intervals used to rate student performance: (left lo hi, right lo hi)
STUDENT_ENDPOINTS = [
    EndpointSpec("VP", Interval(0.0, 0.0), Interval(2.0, 3.0)),
    EndpointSpec("P", Interval(0.0, 0.5), Interval(4.5, 5.5)),
    EndpointSpec("A", Interval(2.0, 3.0), Interval(7.0, 8.0)),
    EndpointSpec("G", Interval(4.5, 5.5), Interval(9.5, 10.0)),
    EndpointSpec("VG", Interval(7.0, 8.0), Interval(10.0, 10.0)),
]

FIXTURE_IDS = ("paper-hma", "paper-ia")


def _rows_to_codebook(rows, encoder_tag: str) -> Codebook:
    words = []
    for name, umf, lmf, h, (cl, cr, mean) in rows:
        words.append(
            IT2Word(
                name=name,
                umf=Trapezoid(*umf, h=1.0),
                lmf=Trapezoid(*lmf, h=h),
                centroid=Centroid(cl, cr),
            )
        )
    return _finish_load(Codebook(scale=_SCALE, words=tuple(words), encoder_tag=encoder_tag))


def _finish_load(cb: Codebook) -> Codebook:
    """Validate invariants and fill/check centroid caches."""
    disc = cb.discretization()
    out = []
    for w in cb.words:
        try:
            w.validate()
        except DomainError as e:
            raise CodebookError(str(e)) from e
        if w.umf.a < cb.scale.lo - 1e-9 or w.umf.d > cb.scale.hi + 1e-9:
            raise CodebookError(f"word {w.name!r}: support outside scale")
        computed = centroid_ekm(w, disc)
        if w.centroid is None:
            w = w.with_centroid(computed)
        elif (
            abs(w.centroid.cl - computed.cl) > CENTROID_CACHE_TOL
            or abs(w.centroid.cr - computed.cr) > CENTROID_CACHE_TOL
        ):
            warnings.warn(
                f"word {w.name!r}: cached centroid [{w.centroid.cl}, {w.centroid.cr}] differs "
                f"from recomputed [{computed.cl:.4f}, {computed.cr:.4f}] by more than "
                f"{CENTROID_CACHE_TOL}",
                stacklevel=3,
            )
        out.append(w)
    means = [w.centroid.mean for w in out]
    for prev, cur, w in zip(means, means[1:], out[1:]):
        if cur < prev - 1e-9:
            raise CodebookError(
                f"word {w.name!r}: centroid mean {cur:.4f} breaks the nondecreasing "
                f"vocabulary order (previous {prev:.4f})"
            )
    return Codebook(cb.scale, tuple(out), cb.encoder_tag, cb.generator, cb.seed)


def load_codebook(source: Union[str, Path]) -> Codebook:
    """Load a codebook from a fixture id ('paper-hma' / 'paper-ia') or a file."""
    if source == "paper-hma":
        return _rows_to_codebook(_HMA_ROWS, "HMA")
    if source == "paper-ia":
        return _rows_to_codebook(_IA_ROWS, "IA")
    path = Path(source)
    if not path.exists():
        raise CodebookError(f"no such codebook fixture or file: {source!r}")
    return parse_codebook(path.read_text())


# ---------------------------------------------------------------------------
# Text format


def clean_lines(text: str) -> list[str]:
    """Non-empty lines of a text file with ``#`` comments stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_kv(line: str) -> tuple[str, str]:
    if "=" not in line:
        raise CodebookError(f"expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _floats(value: str, n: int, where: str) -> list[float]:
    parts = value.split()
    if len(parts) != n:
        raise CodebookError(f"{where}: expected {n} numbers, got {value!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise CodebookError(f"{where}: {e}") from e
    for p, v in zip(parts, values):
        if not math.isfinite(v):
            raise CodebookError(f"{where}: {p!r} is not a finite number")
    return values


def parse_codebook(text: str) -> Codebook:
    lines = clean_lines(text)
    if not lines or lines[0] != "codebook v1":
        raise CodebookError("codebook file must start with 'codebook v1'")
    scale = _SCALE
    encoder_tag = "external"
    generator = None
    seed = None
    words: list[IT2Word] = []
    record: Optional[dict] = None

    def flush():
        nonlocal record
        if record is None:
            return
        name = record["name"]
        if "umf" not in record or "lmf" not in record:
            raise CodebookError(f"word {name!r}: missing umf or lmf line")
        umf = _floats(record["umf"], 4, f"word {name!r} umf")
        n_lmf = 5 if len(record["lmf"].split()) == 5 else 4
        lmf_vals = _floats(record["lmf"], n_lmf, f"word {name!r} lmf")
        h = lmf_vals[4] if len(lmf_vals) == 5 else 1.0
        centroid = None
        if "centroid" in record:
            cl, cr, _mean = _floats(record["centroid"], 3, f"word {name!r} centroid")
            centroid = Centroid(cl, cr)
        try:
            words.append(
                IT2Word(name, Trapezoid(*umf, h=1.0), Trapezoid(*lmf_vals[:4], h=h), centroid)
            )
        except DomainError as e:
            raise CodebookError(f"word {name!r}: {e}") from e
        record = None

    for line in lines[1:]:
        if line.startswith("word "):
            flush()
            name = line[5:].strip()
            if not name or any(ch.isspace() for ch in name):
                raise CodebookError(f"word names must be single tokens, got {name!r}")
            record = {"name": name}
        elif record is not None:
            key, value = _parse_kv(line)
            record[key] = value
        else:
            key, value = _parse_kv(line)
            if key == "scale":
                lo, hi = _floats(value, 2, "scale")
                scale = Interval(lo, hi)
            elif key == "encoder":
                encoder_tag = value
            elif key == "generator":
                generator = value
            elif key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise CodebookError(f"seed must be an integer, got {value!r}") from None
            else:
                raise CodebookError(f"unknown header key {key!r}")
    flush()
    if not words:
        raise CodebookError("codebook file has no words")
    return _finish_load(Codebook(scale, tuple(words), encoder_tag, generator, seed))


def format_codebook(cb: Codebook) -> str:
    lines = ["codebook v1", f"scale = {cb.scale.lo:g} {cb.scale.hi:g}", f"encoder = {cb.encoder_tag}"]
    if cb.generator:
        lines.append(f"generator = {cb.generator}")
    if cb.seed is not None:
        lines.append(f"seed = {cb.seed}")
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


def save_codebook(cb: Codebook, path: Union[str, Path]) -> None:
    Path(path).write_text(format_codebook(cb))


def parse_endpoint_specs(text: str) -> list[EndpointSpec]:
    lines = clean_lines(text)
    if not lines or lines[0] != "endpoints v1":
        raise EndpointSpecError("end-point file must start with 'endpoints v1'")
    scale = _SCALE
    specs: list[EndpointSpec] = []
    record: Optional[dict] = None

    def flush():
        nonlocal record
        if record is None:
            return
        name = record["name"]
        if "left" not in record or "right" not in record:
            raise EndpointSpecError(f"word {name!r}: missing left or right interval")
        l_lo, l_hi = _floats(record["left"], 2, f"word {name!r} left")
        r_lo, r_hi = _floats(record["right"], 2, f"word {name!r} right")
        for bound in (l_lo, l_hi, r_lo, r_hi):
            if bound < scale.lo - 1e-9 or bound > scale.hi + 1e-9:
                raise EndpointSpecError(
                    f"word {name!r}: bound {bound} outside scale [{scale.lo}, {scale.hi}]"
                )
        specs.append(EndpointSpec(name, Interval(l_lo, l_hi), Interval(r_lo, r_hi)))
        record = None

    for line in lines[1:]:
        if line.startswith("word "):
            flush()
            record = {"name": line[5:].strip()}
        elif record is not None:
            key, value = _parse_kv(line)
            record[key] = value
        else:
            key, value = _parse_kv(line)
            if key != "scale":
                raise EndpointSpecError(f"unknown header key {key!r}")
            lo, hi = _floats(value, 2, "scale")
            scale = Interval(lo, hi)
    flush()
    if not specs:
        raise EndpointSpecError("end-point file has no words")
    return specs


def format_data_intervals(sets: Sequence[DataIntervalSet], seed: int) -> str:
    lines = ["data-intervals v1", f"generator = {GENERATOR_NAME}", f"seed = {seed}"]
    for ds in sets:
        lines.append("")
        lines.append(f"word {ds.word}")
        if ds.seed is not None:
            lines.append(f"seed = {ds.seed}")
        for l, r in ds.pairs:
            lines.append(f"pair = {l!r} {r!r}")
    return "\n".join(lines) + "\n"
