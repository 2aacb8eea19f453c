"""A frozen reference kernel that gauges how fast the host runs right now.

On a shared host the same code runs up to half again slower for minutes
at a time, so raw pass times of one workload spread by 15-30% between
runs. The benchmark brackets every timed pass with a run of this kernel
and reports pass times in units of the kernel's duration ("ref"), which
cancels the host's speed.

The kernel does what the benchmark's workloads spend their time on at the
commit that introduced it: frozen dataclasses of Minkowski 4-vectors
validated on construction, pairings in Python floats, small numpy linear
algebra, and formatting floats into CSV text. It imports nothing from
hypfol, so no change to the program moves it. Do not change it: every
normalized metric is measured in its units.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_GRAM = np.array([[2.0, 0.5], [0.5, 1.0]])
_STACK = np.arange(16.0).reshape(8, 2)


@dataclass(frozen=True)
class _Vec:
    v: np.ndarray

    def __post_init__(self):
        a = np.array(self.v, dtype=float)
        if a.shape != (4,) or not np.all(np.isfinite(a)):
            raise ValueError("bad 4-vector")
        if abs(a[1] * a[1] + a[2] * a[2] + a[3] * a[3] - a[0] * a[0]) > 1e12:
            raise ValueError("4-vector out of range")
        a.flags.writeable = False
        object.__setattr__(self, "v", a)


def _kernel() -> float:
    acc = 0.0
    for i in range(1000):
        x = _Vec((1.0 + 1e-3 * i, 0.1, 0.2, 0.3))
        y = _Vec(0.5 * x.v + 1.0)
        acc += x.v[1] * y.v[1] + x.v[2] * y.v[2] + x.v[3] * y.v[3] - x.v[0] * y.v[0]
        acc += float(np.linalg.norm(y.v - x.v))
        if i % 10 == 0:
            acc += float(np.linalg.eigh(_GRAM)[0][0]) + float(np.linalg.svd(_STACK, compute_uv=False)[0])
    out = io.StringIO()
    for i in range(4000):
        r = 1.0 + i / 4000.0
        out.write(f"{r!r},{r * 0.7!r},{acc / r!r}\n")
    return acc + len(out.getvalue())


def measure() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
