"""Closed-form study families of geodesic charts and fields.

Three families exercise the classifier across its verdict range:

* ``vertical_family``      - all geodesics asymptotic to a single ideal
  point (the vertical lines of the half-space model).  Both neutral forms
  vanish identically on the chart: almost semidefinite, endpoint maps of
  rank 0.
* ``plane_normal_family``  - geodesics crossing a totally geodesic plane
  orthogonally.  The cross form vanishes but the Killing form is positive:
  semidefinite, endpoint maps of rank 2.
* the spiral family        - geodesics seeded along an annulus in a totally
  geodesic plane, tilted away from the tangent direction by an angle that
  advances linearly in the polar angle minus the radius.  For small pitch
  the cross form is definite on the chart even though the family is not a
  foliation: the leaves over ``t = 0`` and ``t = 2 pi`` pass through the
  same points of the annulus.  The definiteness margin has the closed form
  ``sinh(2 r) sin(2 alpha) - pitch``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError
from .foliation import FoliationChart
from .geodesics import asymptote_directions
from .lorentz import cosh_sinhc

#: ideal endpoint of the vertical family, the half-space point at infinity,
#: as its null vector (read-only)
VERTICAL_END = np.array((1.0, 0.0, 0.0, 1.0))
VERTICAL_END.flags.writeable = False


def vertical_family() -> tuple[Callable[[np.ndarray], np.ndarray], FoliationChart]:
    """Unit field (an array map, ``foliation.field_checks``) and chart of
    the geodesics asymptotic to ``VERTICAL_END``.

    The chart is parametrized on ``[-1, 1]^2`` by the horosphere through the
    base point (``z = 1`` in the half-space model); its map is polynomial in the
    parameters.
    """

    def arrays(a, b):
        s = a * a + b * b
        foot = np.stack((1.0 + 0.5 * s, a, b, 0.5 * s), axis=-1)
        # the horosphere <n, p> = -1 makes the asymptote direction n - p
        return foot, VERTICAL_END - foot

    def field(points):
        return asymptote_directions(points, VERTICAL_END)

    return field, FoliationChart(arrays=arrays, domain=((-1.0, 1.0), (-1.0, 1.0)), name="vertical")


_E3 = np.array([0.0, 0.0, 0.0, 1.0])


def plane_normal_family() -> tuple[Callable[[np.ndarray], np.ndarray], FoliationChart]:
    """Geodesics orthogonal to the totally geodesic plane ``x3 = 0``, charted
    on ``[-1, 1]^2`` by the tangent vector at the base point of their feet.

    The field at ``p`` is the velocity of the normal geodesic through the
    foot of the perpendicular from ``p`` to the plane, oriented toward the
    positive side.
    """

    def field(points):
        # x3 q + s e3, with q = (x0, x1, x2, 0) / s the foot of the perpendicular
        # and s^2 = 1 + x3^2, is (x3 p + e3) / s
        x3 = points[:, 3:]
        return (x3 * points + _E3) / np.sqrt(1.0 + x3 * x3)

    def arrays(a, b):
        # the foot is exp(a e1 + b e2) from the base point
        ch, sc = cosh_sinhc(a * a + b * b)
        foot = np.stack((ch, sc * a, sc * b, np.zeros_like(ch)), axis=-1)
        return foot, np.broadcast_to(_E3, foot.shape)

    return field, FoliationChart(arrays=arrays, domain=((-1.0, 1.0), (-1.0, 1.0)), name="plane-normal")


# ---------------------------------------------------------------------------
# the spiral family


@dataclass(frozen=True)
class SpiralParams:
    """Parameters of the spiral family.

    ``alpha0`` is the tilt at ``t = r`` (radians, in ``(0, pi/2)``), ``lam``
    the pitch of the tilt advance, ``delta`` the angular overhang of the
    parameter rectangle ``[1, 3] x [-delta, 2 pi + delta]``.
    """

    alpha0: float = math.pi / 4.0
    lam: float = 0.1
    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.alpha0 < math.pi / 2.0:
            raise GeometryError("alpha0 must lie in (0, pi/2)")
        if self.lam <= 0.0:
            raise GeometryError("lam must be positive")
        if self.delta <= 0.0:
            raise GeometryError("delta must be positive")
        # the grid spans 2 pi + 2 delta in t, and the margin reads sin(2 tilt)
        ends = (self.tilt(3.0, -self.delta), self.tilt(1.0, 2.0 * math.pi + self.delta))
        if not all(math.isfinite(2.0 * x) for x in (*ends, math.pi + self.delta)):
            raise GeometryError(f"the tilt overflows on the parameter rectangle at lam {self.lam!r}, delta {self.delta!r}")

    @property
    def rect(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((1.0, 3.0), (-self.delta, 2.0 * math.pi + self.delta))

    def tilt(self, r: float, t: float) -> float:
        return self.alpha0 + self.lam * (t - r)


def spiral_chart(params: SpiralParams) -> FoliationChart:
    """Chart of the geodesics seeded by the spiral directions over the annulus."""

    def arrays(r, t):
        c, s = np.cos(t), np.sin(t)
        alpha = params.tilt(r, t)
        sh, ca, zero = np.sinh(r), np.cos(alpha), np.zeros_like(c)
        foot = np.stack((np.cosh(r), sh * c, sh * s, zero), axis=-1)
        direction = np.stack((zero, -s * ca, c * ca, np.sin(alpha)), axis=-1)
        return foot, direction

    return FoliationChart(arrays=arrays, domain=params.rect, name="prop")


def definiteness_margin(r, t, params: SpiralParams):
    """``sinh(2r) sin(2 tilt) - lam``; positive iff the cross form is
    definite at the sample (pitch positive).  ``r`` and ``t`` may be
    arrays that broadcast together."""
    return np.sinh(2.0 * r) * np.sin(2.0 * params.tilt(r, t)) - params.lam


@dataclass(frozen=True)
class LambdaScan:
    """Result of scanning for the largest pitch with positive margin on the rectangle."""

    lambda_max: float
    alpha0: float
    delta: float
    trace: tuple[tuple[float, float], ...]  # (lam, minimum of the margin on the rectangle)


LAMBDA_SCAN_CAP = math.sinh(6.0)


def scan_lambda_max(alpha0: float = SpiralParams.alpha0, delta: float = SpiralParams.delta) -> LambdaScan:
    """Largest pitch on a bisection schedule keeping the margin positive on
    the parameter rectangle, the same for every grid over it.

    While the tilt ``alpha0 + lam (t - r)`` stays in ``(0, pi/2)``, ``log
    sinh(2r)`` and ``log sin(2 tilt)`` are concave (the tilt is affine), so
    the margin is least at a corner, a node of every grid: a step evaluates
    ``definiteness_margin`` on the four corners, in a grid's operations.
    Where the tilt leaves ``(0, pi/2)`` at ``(3, -delta)`` or ``(1, 2 pi +
    delta)`` (it may equal the float ``pi/2``, which lies below pi/2), it
    meets 0 or pi/2 on the rectangle, the margin there is ``-lam``, and the
    step records that.  Bisection, which takes the positive pitches to be
    ``(0, lambda_max)``, runs between ``sinh 6`` and ``1e-12``, or, where the
    margin is not positive there, half the least pitch that takes the tilt
    to 0 or ``pi/2`` (a ``GeometryError`` where that underflows to 0).  It
    stops once the bracket is at most ``1e-12 max(hi, 1)`` and ``1e-9 lo``
    wide (``lo`` taken as at least the least normal float).  The trace
    records every (pitch, minimum) pair in order.
    """
    (r0, r1), (t0, t1) = SpiralParams(alpha0, LAMBDA_SCAN_CAP, delta).rect  # validates alpha0 and delta
    r, t = np.array([[r0], [r1]]), np.array([t0, t1])
    trace: list[tuple[float, float]] = []

    def min_margin(lam: float) -> float:
        inside = 0.0 < lam * (t0 - r1) + alpha0 and lam * (t1 - r0) + alpha0 <= 0.5 * math.pi
        value = float(definiteness_margin(r, t, SpiralParams(alpha0, lam, delta)).min()) if inside else -lam
        trace.append((lam, value))
        return value

    hi = LAMBDA_SCAN_CAP
    min_margin(hi)  # for the trace: -hi, as the tilt spans more than pi/2
    lo = 1e-12
    if min_margin(lo) <= 0.0:
        lo = min(lo, 0.5 * min(alpha0 / (3.0 + delta), (0.5 * math.pi - alpha0) / (2.0 * math.pi + delta - 1.0)))
        if lo == 0.0:
            raise GeometryError(f"alpha0 {alpha0!r} is too small: the least pitch scanned underflows to 0 at delta {delta!r}")
        if min_margin(lo) <= 0.0:
            raise GeometryError("margin is not positive even for vanishing pitch")
    while hi - lo > 1e-12 * max(hi, 1.0) or hi - lo > 1e-9 * max(lo, sys.float_info.min):
        mid = 0.5 * (lo + hi)
        if min_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return LambdaScan(lo, alpha0, delta, tuple(trace))
