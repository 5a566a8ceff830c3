"""Host speed, measured by a fixed calibration kernel.

On a shared host the speed of one core swings by up to 1.9x within seconds
and stays shifted for minutes with other tenants' load,
so raw wall times of the same code differ far more between runs than any
change worth detecting.  The benchmark times this kernel before each pass
over its queries and after every 50 ms of queries, and rescales each group's
wall times to the reference speed: ``s * REFERENCE_S / kernel_s``, with the
mean of the kernel runs around the group.  The kernel is fixed code of
the benchmark's own, never the program's, so a slower program still reads
slower.  It mixes the two kinds of work the program does, small-array numpy
calls and Python object churn, which the host's slow phases hit differently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# kernel seconds at the reference speed: roughly this kernel on an
# uncontended core of a 2.1 GHz Xeon with numpy 2.4
REFERENCE_S = 2.5e-3

_XS = np.linspace(0.0, 10.0, 1001)


@dataclass(frozen=True)
class _Box:
    lo: float
    hi: float


def _kernel() -> float:
    xs, total = _XS, 0.0
    for i in range(40):
        a = 1.0 + 0.01 * i
        m = np.zeros_like(xs)
        m[(xs >= a) & (xs <= a + 3.0)] = 1.0
        rise = (xs >= a - 1.0) & (xs < a)
        m[rise] = xs[rise] - (a - 1.0)
        total += float(np.minimum(m, 0.5).sum() / np.maximum(m, 0.5).sum())
    boxes = {}
    for i in range(3000):
        b = _Box(i * 0.5, i * 0.5 + 1.0)
        boxes[i % 64] = b
        total += b.hi - b.lo
    return total


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor taking wall times measured between two kernel runs to the reference speed."""
    return REFERENCE_S / ((before_s + after_s) / 2)
