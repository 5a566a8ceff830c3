"""Layer spans recorded from outside the package.

Each layer of ``lingopt`` is timed by wrapping its entry points where they
are looked up: the wrapper replaces the function object in every loaded
``lingopt`` module that holds it (``from .similarity import jaccard`` makes a
second binding in ``reasoning``), and methods are replaced on their class.
Nothing under ``src/`` is edited.

A span is (name, start, end, parent, query id).  Spans of one layer never
nest inside each other: a call made while the same layer is already open is
part of that open span.  Spans are kept in memory until ``fold`` adds them to
the per-layer totals, scaled to the reference host speed; those of the
set-up and of the first ``keep_queries`` queries are kept whole, unscaled,
for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer name -> entry points as "module:qualname"; a layer whose entry points
# have all disappeared is reported as absent rather than failing the run
LAYERS = {
    "cli": ["lingopt.cli:main"],
    "codebook.load": ["lingopt.codebook:load_codebook", "lingopt.codebook:_finish_load"],
    "codebook.parse": ["lingopt.codebook:parse_codebook"],
    "codebook.sample": ["lingopt.codebook:sample_person_fou"],
    "codebook.word": ["lingopt.codebook:Codebook.word"],
    "problems.parse": ["lingopt.problems:parse_problem"],
    "problems.solve_pr": ["lingopt.problems:solve_pr_bundle"],
    "problems.solve_two_tuple": ["lingopt.problems:solve_two_tuple_bundle"],
    "reasoning.fire": ["lingopt.reasoning:fire"],
    "reasoning.synthesize": ["lingopt.reasoning:synthesize_consequent"],
    "reasoning.lwa": ["lingopt.reasoning:lwa"],
    "reasoning.decode": ["lingopt.reasoning:decode", "lingopt.reasoning:_decode_sampled",
                         "lingopt.reasoning:_decode_mean"],
    "similarity.jaccard": ["lingopt.similarity:jaccard"],
    "similarity.centroid": ["lingopt.similarity:centroid_ekm", "lingopt.similarity:centroid_brute",
                            "lingopt.similarity:centroid_ekm_from_samples",
                            "lingopt.similarity:centroid_brute_from_samples"],
    "similarity.rank": ["lingopt.similarity:rank_by_centroid"],
    "fuzzy.membership_grid": ["lingopt.fuzzy:Trapezoid.membership_grid"],
    "tsukamoto.optimize": ["lingopt.tsukamoto:optimize"],
    "tsukamoto.crisp_output": ["lingopt.tsukamoto:crisp_output"],
}

SETUP = -1  # query id of the spans recorded while setting up


def _resolve(target: str):
    """(owner, attribute, function) for "module:qualname", or None if gone."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    def __init__(self, keep_queries: int = 3):
        self.keep_queries = keep_queries
        self.present: set[str] = set()
        self.kept: list[tuple] = []  # whole spans of the set-up and first queries
        self.queries = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)  # inclusive time
        self.self_s: dict[str, float] = defaultdict(float)  # minus child spans
        self.setup_s: dict[str, float] = defaultdict(float)
        self.samples = 0  # membership values computed
        self.distinct = 0  # distinct (trapezoid, N) pairs, counted per query
        self.fired = 0  # rule firings above zero
        self._query = SETUP
        self._spans: list[list] = []
        self._open: list[int] = []
        self._depth: dict[str, list[int]] = {}
        self._pairs: set = set()
        self._kept_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for target in targets:
                found = _resolve(target)
                if found is not None:
                    self.present.add(name)
                    self._patch(*found, self._wrap(name, found[2]))

    def _patch(self, owner, attr, fn, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "lingopt":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        hook = {"fuzzy.membership_grid": self._on_grid, "reasoning.fire": self._on_fire}.get(name)
        clock = time.perf_counter
        spans, open_ = self._spans, self._open
        depth = self._depth.setdefault(name, [0])  # shared by the layer's entry points

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, open_[-1] if open_ else None, self._query]
            spans.append(span)
            open_.append(len(spans) - 1)
            depth[0] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[0] = 0
                open_.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _on_grid(self, args, result) -> None:
        if self._query == SETUP:
            return
        self.samples += len(result)
        self._pairs.add((args[0], len(result)))

    def _on_fire(self, args, result) -> None:
        if self._query == SETUP:
            return
        self.fired += getattr(result, "hi", result) > 0

    # -- queries -----------------------------------------------------------

    def begin(self, query_id: int) -> None:
        """Open the root span of a query."""
        self._query = query_id
        if len(self._kept_ids) < self.keep_queries:
            self._kept_ids.add(query_id)
        self._spans.append(["query", time.perf_counter(), 0.0, None, query_id])
        self._open.append(len(self._spans) - 1)

    def end(self) -> float:
        """Close the query's root span; return its duration in seconds."""
        root = self._spans[self._open.pop()]
        root[2] = time.perf_counter()
        self.queries += 1
        self.distinct += len(self._pairs)
        self._pairs.clear()
        self._query = SETUP
        return root[2] - root[1]

    def fold(self, scale: float) -> None:
        """Add the spans recorded so far to the totals, times multiplied by ``scale``."""
        spans = self._spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] is not None:
                covered[s[3]] += s[2] - s[1]
        for s, child in zip(spans, covered):
            name, dur = s[0], (s[2] - s[1]) * scale
            if s[4] == SETUP:
                self.setup_s[name] += dur
                continue
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child * scale
        index = {}  # position in spans -> position in kept
        for i, s in enumerate(spans):
            if s[4] == SETUP or s[4] in self._kept_ids:
                index[i] = len(self.kept)
                self.kept.append((s[0], s[1], s[2], index.get(s[3]), s[4]))
        spans.clear()
