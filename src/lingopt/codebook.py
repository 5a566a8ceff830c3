"""Codebooks: vocabularies of IT2 word models, plus end-point interval sampling.

Two codebooks for the student-performance vocabulary ship as embedded
fixtures under the ids ``paper-hma`` and ``paper-ia`` (HMA- and IA-encoded
word models, transcribed verbatim).  They are inputs to the engines: the
interval-data encoders that produced them (HMA / EIA / IA) are not part of
this package, which only draws data intervals from end-point specs.

Codebook and end-point files share one framing, read by ``_read_records``
(whitespace separated, ``#`` starts a comment): a magic line, ``key = value``
header lines, then a ``word NAME`` line per word followed by that word's
``key = value`` lines.  A word named twice is refused.  Every field line, in
these files and in problem files, goes through ``add_field``, which refuses
a line without ``=``, a key the section does not know and a key given twice.
``load_source`` is the one fixture-or-file lookup, behind ``load_codebook``,
``problems.load_problem`` and the CLI's ``sample --spec``; it reads at most
``MAX_FILE_BYTES`` of a file and refuses a larger one.  A codebook file::

    codebook v1
    scale = 0 10
    encoder = HMA         # optional, as are generator and seed: read, not kept
    generator = pcg64
    seed = 7              # must be an integer

    word VP
    umf = 0 0 2.04 3.84
    lmf = 0 0 2.04 3.04 1.0
    centroid = 1.29 1.52 1.41   # optional; recomputed and checked on load

An end-point file has the magic line ``endpoints v1``, an optional ``scale``
and per-word ``left = lo hi`` / ``right = lo hi`` lines.  Both kinds refuse a
scale end beyond 1e300 in magnitude.

A loaded codebook arrives sampled on its default grid: each word is sampled
once, which refuses a word off the scale, and its centroid is computed from
that sample; a word with no mass on that grid, or a cached centroid more
than 0.05 away from the computed one, is refused.  The samples are kept as
two dense V x N arrays beside a V x V similarity matrix, so a codebook of V
words on an N-point grid is refused when V x N or V x V exceeds
``MAX_CELLS``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from .fuzzy import DomainError, Interval, IT2Word, LingoptError, Trapezoid, vertex_rows
from .similarity import (DEFAULT_POINTS, Centroid, DegenerateWordError, Discretization, SampledWord,
                         centroid_ekm, centroid_ekm_from_samples, jaccard_rows, sample_word)

GENERATOR_NAME = "pcg64"  # numpy default_rng
CENTROID_CACHE_TOL = 0.05  # fixture centroids are printed to 2 decimals
MAX_SCALE_END = 1e300  # 1e6 grid points x 1e300 stays finite, and so does hi - lo
MAX_GRID = 1_000_001  # largest --grid accepted; the accuracy reference grid has 100001 points
MAX_CELLS = 25 * MAX_GRID  # most V x N (or V x V) cells in a sampled codebook's arrays: 200 MB each
MAX_FILE_BYTES = 16 * 2**20  # largest codebook, problem or end-point file read

_T = TypeVar("_T")


class CodebookError(LingoptError, ValueError):
    """A codebook file or fixture violates an invariant."""


class EndpointSpecError(LingoptError, ValueError):
    """An end-point interval specification is unusable."""


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
    seed: int

    def __post_init__(self):
        for l, r in self.pairs:
            if l > r:
                raise DomainError(f"word {self.word!r}: data interval with L={l} > R={r}")


@dataclass(frozen=True)
class Codebook:
    """Ordered vocabulary of IT2 words on a fixed scale.

    The instance keeps three derived caches outside equality, hashing and
    ``repr``: a name -> position map, the ``SampledCodebook`` for the grid
    ``sampled`` was last asked for, and the ``centroid_means``.  The codebook
    and its words are immutable, so none can go stale.  A loaded codebook
    starts with the sampling on its default grid; ``dataclasses.replace``
    builds a new instance, which starts without either.
    """

    scale: Interval
    words: tuple[IT2Word, ...]
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

    def word(self, name: str) -> IT2Word:
        try:
            return self.words[self._positions[name]]
        except KeyError:
            raise _unknown_word(name, self.names) from None

    def discretization(self, points: int = DEFAULT_POINTS) -> Discretization:
        return Discretization(points=points, scale=self.scale)

    def sampled(self, d: Optional[Discretization] = None) -> SampledCodebook:
        """The words sampled on ``d`` (default: this codebook's grid).

        The sampling is kept for the grid last asked for and returned again
        while ``d`` stays equal, so repeated solves share it and its matrix
        of similarities.  One slot bounds the memory to one grid.
        """
        d = d or self.discretization()
        scb = self._sampled
        if scb is None or scb.d != d:
            scb = SampledCodebook(self, d)
            object.__setattr__(self, "_sampled", scb)
        return scb

    @functools.cached_property
    def centroid_means(self) -> tuple[float, ...]:
        """Each word's centroid mean, in vocabulary order.  A word without a
        centroid (a codebook built in code) gets the one the loader would
        fill, from a sampling of its own on the default grid."""
        d = self.discretization()
        return tuple((w.centroid or centroid_ekm(w, d)).mean for w in self.words)


def _unknown_word(name: str, names: Sequence[str]) -> CodebookError:
    return CodebookError(f"unknown word {name!r}; codebook has {list(names)}")


class SampledCodebook:
    """A codebook's words sampled once on one grid, as arrays indexed by
    word position, with a V x V matrix of the Jaccard similarities computed
    so far.

    ``upper`` and ``lower`` hold the words' memberships as two dense (V, N)
    arrays, zero outside each word's support, and ``mass`` the (V,) sums of
    both rows, so a decode scores every word in one array operation.  They
    are the only copy: ``words`` holds each word as a ``SampledWord`` whose
    memberships are views of its rows over its support.  Building it
    refuses more than ``MAX_CELLS`` cells in the (V, N) or the (V, V) array
    before allocating any, then runs the on-scale check of ``sample_word``
    on every word, so a grid that does not cover the codebook raises
    ``DomainError`` here.  ``starts`` and ``stops`` bound each word's support
    as a range of grid indices.  ``rows`` stacks the words' UMF and LMF vertices
    as (V, 4) arrays and their LMF heights as a (V,) array.  Row x of
    ``jaccard`` is NaN until word x is first an input, then filled whole by
    ``scores``: firing and decoding run one kernel, and no row is filled
    up front.

    It holds no reference to the codebook that keeps it: that would be a
    cycle, and a dropped codebook would wait for the cyclic garbage
    collector instead of being freed at once.
    """

    def __init__(self, cb: Codebook, d: Discretization):
        v = len(cb.words)
        cells = v * max(v, d.points)  # in the larger of the (V, N) and the (V, V) arrays
        if cells > MAX_CELLS:
            raise DomainError(
                f"{v} words on a {d.points}-point grid need {cells} cells in one array, more than "
                f"the budget of {MAX_CELLS}"
            )
        self.names, self.d = cb.names, d
        self._positions = cb._positions
        self.upper, self.lower = np.zeros((v, d.points)), np.zeros((v, d.points))
        self.words = tuple(map(self._store, range(v), cb.words))  # vocabulary order
        self.mass = np.array([s.mass for s in self.words])
        self.starts = tuple(s.start for s in self.words)
        self.stops = tuple(s.start + s.xs.size for s in self.words)
        self.rows = vertex_rows(cb.words)  # (umf, lmf, lmf_h), the rows an LWA averages
        self.jaccard = np.full((v, v), np.nan)

    def _store(self, v: int, w: IT2Word) -> SampledWord:
        """Sample ``w`` into row ``v``; the sample returned views that row."""
        s = sample_word(w, self.d)
        support = slice(s.start, s.start + s.xs.size)
        self.upper[v, support], self.lower[v, support] = s.upper, s.lower
        return replace(s, lower=self.lower[v, support], upper=self.upper[v, support])

    def positions(self, names: Iterable[str]) -> np.ndarray:
        """Vocabulary positions of ``names``, in order."""
        try:
            return np.array(list(map(self._positions.__getitem__, names)), dtype=np.intp)
        except KeyError as e:
            raise _unknown_word(e.args[0], self.names) from None

    def similarities(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Jaccard similarities of the input words at positions ``xs`` to
        the words at ``ys`` (broadcast together); an input word's row is
        filled the first time it is asked for."""
        for x in set(xs[np.isnan(self.jaccard[xs, 0])].tolist()):
            self.jaccard[x] = self.scores(self.words[x])
        return self.jaccard[xs, ys]

    def scores(self, s: SampledWord) -> np.ndarray:
        """Jaccard similarity of ``s`` to every word, in vocabulary order.  The
        kernel runs on the rows from the first to the last word whose support
        meets that of ``s``; the other scores are +0.0, as the kernel's are."""
        start, stop = s.start, s.start + s.xs.size
        meets = [v for v, (a, b) in enumerate(zip(self.starts, self.stops)) if a < stop and b > start]
        band = slice(meets[0], meets[-1] + 1) if meets else slice(0)
        out = np.zeros(len(self.mass))
        out[band] = jaccard_rows(self.upper[band], self.lower[band], self.mass[band], s)
        return out


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

# end-point intervals used to rate student performance: (left lo hi, right lo hi)
STUDENT_ENDPOINTS = [
    EndpointSpec("VP", Interval(0.0, 0.0), Interval(2.0, 3.0)),
    EndpointSpec("P", Interval(0.0, 0.5), Interval(4.5, 5.5)),
    EndpointSpec("A", Interval(2.0, 3.0), Interval(7.0, 8.0)),
    EndpointSpec("G", Interval(4.5, 5.5), Interval(9.5, 10.0)),
    EndpointSpec("VG", Interval(7.0, 8.0), Interval(10.0, 10.0)),
]

_FIXTURES = {
    "paper-hma": lambda: _rows_to_codebook(_HMA_ROWS),
    "paper-ia": lambda: _rows_to_codebook(_IA_ROWS),
}
FIXTURE_IDS = tuple(_FIXTURES)


def _rows_to_codebook(rows) -> Codebook:
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
    return _finish_load(Codebook(scale=_SCALE, words=tuple(words)))


def _finish_load(cb: Codebook) -> Codebook:
    """Validate the words; fill or check their centroids from the kept sampling."""
    try:
        for w in cb.words:
            w.validate()
        scb = cb.sampled()  # refuses a word off the scale
    except DomainError as e:
        raise CodebookError(str(e)) from e
    out = []
    for w, s in zip(cb.words, scb.words):
        try:
            computed = centroid_ekm_from_samples(s.xs, s.lower, s.upper)
        except DegenerateWordError:
            raise CodebookError(
                f"word {w.name!r} has no mass on the {scb.d.points}-point grid over "
                f"[{cb.scale.lo:g}, {cb.scale.hi:g}]"
            ) from None
        if w.centroid is None:
            w = replace(w, centroid=computed)
        elif (
            abs(w.centroid.cl - computed.cl) > CENTROID_CACHE_TOL
            or abs(w.centroid.cr - computed.cr) > CENTROID_CACHE_TOL
        ):
            raise CodebookError(
                f"word {w.name!r}: cached centroid [{w.centroid.cl}, {w.centroid.cr}] differs "
                f"from recomputed [{computed.cl:.4f}, {computed.cr:.4f}] by more than "
                f"{CENTROID_CACHE_TOL}"
            )
        out.append(w)
    means = [w.centroid.mean for w in out]
    for prev, cur, w in zip(means, means[1:], out[1:]):
        if cur < prev - 1e-9:
            raise CodebookError(
                f"word {w.name!r}: centroid mean {cur:.4f} breaks the nondecreasing "
                f"vocabulary order (previous {prev:.4f})"
            )
    loaded = Codebook(cb.scale, tuple(out))
    object.__setattr__(loaded, "_sampled", scb)  # nothing in it depends on the centroids
    return loaded


def load_codebook(source: Union[str, Path]) -> Codebook:
    """Load a codebook from a fixture id ('paper-hma' / 'paper-ia') or a file."""
    return load_source(source, _FIXTURES, parse_codebook, "codebook", CodebookError)


def load_source(source: Union[str, Path], fixtures: Mapping[str, Callable[[], _T]],
                parse: Callable[[str], _T], kind: str, error: type[LingoptError]) -> _T:
    """The fixture ``source`` names, built by its entry in ``fixtures``, or
    ``parse`` of the UTF-8 text of the file it names, less a leading
    byte-order mark; otherwise ``error``, also for a file larger than
    ``MAX_FILE_BYTES`` and for a FIFO or socket, which could block forever."""
    if source in fixtures:
        return fixtures[source]()
    path = Path(source)
    if not path.exists():
        raise error(f"no such {kind} fixture or file: {source!r}")
    if path.is_fifo() or path.is_socket():
        raise error(f"{kind} file {source!r} is a FIFO or socket, not a regular file")
    with path.open("rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise error(f"{kind} file {source!r} is larger than {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise error(f"{kind} file {source!r} is not UTF-8 text: byte {e.start} cannot be decoded") from None
    return parse(text)


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


def file_lines(text: str, magic: str, error: type[LingoptError]) -> list[str]:
    """The clean lines of a file after its first line, which must be ``magic``."""
    lines = clean_lines(text)
    if not lines or lines[0] != magic:
        raise error(f"{magic.split()[0]} file must start with {magic!r}")
    return lines[1:]


def add_field(fields: dict[str, str], line: str, known: Collection[str], where: str,
              error: type[LingoptError]) -> None:
    """Add the ``key = value`` line ``line`` to ``fields``, the fields of the
    section ``where``.  A line without ``=``, a key not in ``known`` and a key
    already in ``fields`` raise ``error``."""
    key, eq, value = (part.strip() for part in line.partition("="))
    if not eq:
        raise error(f"{where}: expected 'key = value', got {line!r}")
    if key not in known:
        raise error(f"{where}: unknown key {key!r}")
    if key in fields:
        raise error(f"{where}: key {key!r} given twice")
    fields[key] = value


def _read_records(text: str, magic: str, header_keys: Collection[str], word_keys: Collection[str],
                  error: type[LingoptError]) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """The header fields of a codebook or end-point file, and each word's
    fields by name in file order.  A wrong magic line, a word named twice or
    a bad field line (see ``add_field``) raises ``error``."""
    header: dict[str, str] = {}
    records: dict[str, dict[str, str]] = {}
    fields, known, where = header, header_keys, "header"
    for line in file_lines(text, magic, error):
        if not line.startswith("word "):
            add_field(fields, line, known, where, error)
            continue
        name = line[5:].strip()
        if not name or any(ch.isspace() for ch in name):
            raise error(f"word names must be single tokens, got {name!r}")
        if name in records:
            raise error(f"word {name!r} is named twice")
        fields, known, where = {}, word_keys, f"word {name!r}"
        records[name] = fields
    return header, records


def _floats(value: str, n: int, where: str, error: type[LingoptError]) -> list[float]:
    parts = value.split()
    if len(parts) != n:
        raise error(f"{where}: expected {n} numbers, got {value!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise error(f"{where}: {e}") from e
    for p, v in zip(parts, values):
        if not math.isfinite(v):
            raise error(f"{where}: {p!r} is not a finite number")
    return values


def _interval(value: str, where: str, error: type[LingoptError]) -> Interval:
    lo, hi = _floats(value, 2, where, error)
    if lo > hi:
        raise error(f"{where}: interval {value!r} has lo > hi")
    return Interval(lo, hi)


def _scale(header: dict[str, str], error: type[LingoptError]) -> Interval:
    """The header's ``scale`` line, or [0, 10] without one.  Its ends are
    bounded so that sums over a million grid points stay finite."""
    if "scale" not in header:
        return _SCALE
    scale = _interval(header["scale"], "scale", error)
    if max(-scale.lo, scale.hi) > MAX_SCALE_END:
        raise error(f"scale: ends must lie within +-{MAX_SCALE_END:g}, got {header['scale']!r}")
    return scale


def _parse_word(name: str, fields: dict[str, str]) -> IT2Word:
    if "umf" not in fields or "lmf" not in fields:
        raise CodebookError(f"word {name!r}: missing umf or lmf line")
    umf = _floats(fields["umf"], 4, f"word {name!r} umf", CodebookError)
    n_lmf = 5 if len(fields["lmf"].split()) == 5 else 4
    lmf = _floats(fields["lmf"], n_lmf, f"word {name!r} lmf", CodebookError)
    h = lmf[4] if n_lmf == 5 else 1.0
    try:
        centroid = None
        if "centroid" in fields:
            cl, cr, _mean = _floats(fields["centroid"], 3, f"word {name!r} centroid", CodebookError)
            centroid = Centroid(cl, cr)
        return IT2Word(name, Trapezoid(*umf, h=1.0), Trapezoid(*lmf[:4], h=h), centroid)
    except DomainError as e:
        raise CodebookError(f"word {name!r}: {e}") from e


def parse_codebook(text: str) -> Codebook:
    header, records = _read_records(
        text, "codebook v1", ("scale", "encoder", "generator", "seed"), ("umf", "lmf", "centroid"),
        CodebookError,
    )
    scale = _scale(header, CodebookError)
    try:
        int(header.get("seed", 0))
    except ValueError:
        raise CodebookError(f"seed must be an integer, got {header['seed']!r}") from None
    words = tuple(_parse_word(name, fields) for name, fields in records.items())
    if not words:
        raise CodebookError("codebook file has no words")
    return _finish_load(Codebook(scale, words))


def parse_endpoint_specs(text: str) -> list[EndpointSpec]:
    header, records = _read_records(text, "endpoints v1", ("scale",), ("left", "right"), EndpointSpecError)
    scale = _scale(header, EndpointSpecError)
    specs: list[EndpointSpec] = []
    for name, fields in records.items():
        if "left" not in fields or "right" not in fields:
            raise EndpointSpecError(f"word {name!r}: missing left or right interval")
        left = _interval(fields["left"], f"word {name!r} left", EndpointSpecError)
        right = _interval(fields["right"], f"word {name!r} right", EndpointSpecError)
        for bound in (left.lo, left.hi, right.lo, right.hi):
            if bound < scale.lo - 1e-9 or bound > scale.hi + 1e-9:
                raise EndpointSpecError(
                    f"word {name!r}: bound {bound} outside scale [{scale.lo}, {scale.hi}]"
                )
        specs.append(EndpointSpec(name, left, right))
    if not specs:
        raise EndpointSpecError("end-point file has no words")
    return specs


def format_data_intervals(sets: Sequence[DataIntervalSet], seed: int) -> str:
    lines = ["data-intervals v1", f"generator = {GENERATOR_NAME}", f"seed = {seed}"]
    for ds in sets:
        lines.append("")
        lines.append(f"word {ds.word}")
        lines.append(f"seed = {ds.seed}")
        for l, r in ds.pairs:
            lines.append(f"pair = {l!r} {r!r}")
    return "\n".join(lines) + "\n"
