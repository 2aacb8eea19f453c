"""Seeded workload recipes and the closed forms the oracles share.

A workload is a fixed list of CLI commands. The seed draws the spiral
pitches (and, for ``scan-csv``, the base tilt); the program sees only the
generated argv. Grids are fixed per workload so that every seed does the
same amount of sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

ALPHA0 = math.pi / 4.0
DELTA = 0.1
#: the README crossing example: the spiral leaves over (r, t) = (2, 0) and
#: (2, 2 pi) both start at the polar point of radius 2, so the squared
#: distance from that point has two zero minima on the chart
CROSSING_LAMBDA = 0.0711
CROSSING_R = 2.0

#: parameter rectangles of the three families, as the CLI builds them
DOMAINS = {
    "vertical": ((-1.0, 1.0), (-1.0, 1.0)),
    "plane-normal": ((-1.0, 1.0), (-1.0, 1.0)),
    "prop": ((1.0, 3.0), (-DELTA, 2.0 * math.pi + DELTA)),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the inputs its oracle needs."""

    kind: str
    family: str | None
    grid: tuple[int, int]
    lam: float | None = None
    alpha0: float = ALPHA0
    base_r: float | None = None  # base point at polar radius base_r, angle 0

    @property
    def samples(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("json", "csv") if self.kind in ("gauss", "scan-lambda") else ("json",)

    @property
    def argv(self) -> list[str]:
        argv = [self.kind]
        if self.family is not None:
            argv += ["--family", self.family]
        if self.family in (None, "prop"):
            argv += ["--alpha0", repr(self.alpha0), "--delta", repr(DELTA)]
        if self.lam is not None:
            argv += ["--lambda", repr(self.lam)]
        if self.base_r is not None:
            r = self.base_r
            argv += ["--base-point", repr(math.cosh(r)), repr(math.sinh(r)), "0.0", "0.0"]
        return argv + ["--grid", f"{self.grid[0]}x{self.grid[1]}"]

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major grid axes over the family's parameter rectangle."""
        (a0, a1), (b0, b1) = DOMAINS[self.family or "prop"]
        return np.linspace(a0, a1, self.grid[0]), np.linspace(b0, b1, self.grid[1])


def spiral_margin(lam: float, alpha0: float, r, t):
    """Closed-form definiteness margin ``sinh(2r) sin(2 tilt) - lam`` of the spiral chart."""
    return np.sinh(2.0 * r) * np.sin(2.0 * (alpha0 + lam * (t - r))) - lam


def lambda_max(alpha0: float, grid: tuple[int, int]) -> float:
    """Largest pitch keeping the closed-form margin positive on the grid, by bisection."""
    r, t = Command("classify", "prop", grid).axes()
    r, t = r[:, None], t[None, :]

    def positive(lam: float) -> bool:
        return bool(spiral_margin(lam, alpha0, r, t).min() > 0.0)

    lo, hi = 0.0, 1.0
    while positive(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo


def classify_mix(rng: random.Random) -> list[Command]:
    # The pitch lambda_max itself puts the grid corner (r, t) = (1, 2 pi + delta)
    # on the zero of the margin, which is the only way a grid reaches the
    # classifier's "kernel" branch; the other prop pitches give the
    # "definite" and "cone" branches and the two closed families "flat".
    grid = (12, 12)
    lmax = lambda_max(ALPHA0, grid)
    s1, s2 = rng.uniform(0.3, 0.7), rng.uniform(1.5, 4.0)
    return [
        Command("classify", "vertical", grid),
        Command("classify", "plane-normal", grid),
        Command("classify", "prop", grid, lam=s1 * lmax),
        Command("classify", "prop", grid, lam=lmax),
        Command("classify", "prop", grid, lam=s2 * lmax),
    ]


def endpoint_mix(rng: random.Random) -> list[Command]:
    grid = (14, 14)
    s = rng.uniform(0.3, 0.7)
    return [
        Command("gauss", "vertical", grid),
        Command("gauss", "plane-normal", grid),
        Command("gauss", "prop", grid, lam=s * lambda_max(ALPHA0, grid)),
        Command("critical", "prop", (40, 40), lam=CROSSING_LAMBDA, base_r=CROSSING_R),
        Command("critical", "plane-normal", (24, 24)),
    ]


def scan_csv(rng: random.Random) -> list[Command]:
    return [Command("scan-lambda", None, (300, 300), alpha0=rng.uniform(0.5, 1.0))]


WORKLOADS = {
    "classify-mix": classify_mix,
    "endpoint-mix": endpoint_mix,
    "scan-csv": scan_csv,
}


def build(name: str, seed: int) -> list[Command]:
    return WORKLOADS[name](random.Random(seed))
