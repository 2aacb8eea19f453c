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

The annulus frame is polar: ``radial`` is the unit radial direction,
``angular`` the normalized angle derivative, ``normal`` their cross
product (which is constant in the ambient coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .foliation import FoliationChart, UnitField
from .geodesics import asymptote_vector
from .lorentz import (
    ORIGIN,
    BoundaryPoint,
    HPoint,
    HTangent,
    cosh_sinhc,
)

#: ideal endpoint of the vertical family: the half-space point at infinity
VERTICAL_END = BoundaryPoint((1.0, 0.0, 0.0, 1.0))


def vertical_family() -> tuple[UnitField, FoliationChart]:
    """Unit field and chart of the geodesics asymptotic to ``VERTICAL_END``.

    The chart is parametrized on ``[-1, 1]^2`` by the horosphere through the
    base point (``z = 1`` in the half-space model); its map is polynomial in the
    parameters.
    """

    def field_func(p: HPoint) -> HTangent:
        return asymptote_vector(p, VERTICAL_END)

    def arrays(a, b):
        s = a * a + b * b
        foot = np.stack((1.0 + 0.5 * s, a, b, 0.5 * s), axis=-1)
        # the horosphere <n, p> = -1 makes the asymptote direction n - p
        return foot, VERTICAL_END.n - foot

    field = UnitField(func=field_func, center=ORIGIN, name="vertical")
    chart = FoliationChart(arrays=arrays, domain=((-1.0, 1.0), (-1.0, 1.0)), name="vertical")
    return field, chart


_E3 = np.array([0.0, 0.0, 0.0, 1.0])


def plane_normal_family() -> tuple[UnitField, FoliationChart]:
    """Geodesics orthogonal to the totally geodesic plane ``x3 = 0``, charted
    on ``[-1, 1]^2`` by the tangent vector at the base point of their feet.

    The field at ``p`` is the velocity of the normal geodesic through the
    foot of the perpendicular from ``p`` to the plane, oriented toward the
    positive side.
    """

    def field_func(p: HPoint) -> HTangent:
        x3 = p.v[3]
        s = math.sqrt(1.0 + x3 * x3)
        q = np.array([p.v[0], p.v[1], p.v[2], 0.0]) / s
        return HTangent(p, x3 * q + s * _E3)

    def arrays(a, b):
        # the foot is exp(a e1 + b e2) from the base point
        ch, sc = cosh_sinhc(a * a + b * b)
        foot = np.stack((ch, sc * a, sc * b, np.zeros_like(ch)), axis=-1)
        return foot, np.broadcast_to(_E3, foot.shape)

    field = UnitField(func=field_func, center=ORIGIN, name="plane-normal")
    chart = FoliationChart(arrays=arrays, domain=((-1.0, 1.0), (-1.0, 1.0)), name="plane-normal")
    return field, chart


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

    @property
    def rect(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((1.0, 3.0), (-self.delta, 2.0 * math.pi + self.delta))

    def tilt(self, r: float, t: float) -> float:
        return self.alpha0 + self.lam * (t - r)


@dataclass(frozen=True, eq=False)
class PolarFrame:
    """Orthonormal frame along the polar parametrization of the plane ``x3 = 0``."""

    point: HPoint
    radial: HTangent
    angular: HTangent
    normal: HTangent


def polar_frame(r: float, t: float) -> PolarFrame:
    """Frame at ``exp(r cos t e1 + r sin t e2)`` from the base point.

    ``radial`` is the derivative in ``r``, ``angular`` the derivative in
    ``t`` scaled by ``1/sinh r``, ``normal`` their cross product; the cross
    product comes out as the constant ambient ``e3``.
    """
    if r <= 0.0:
        raise GeometryError("polar frame needs r > 0")
    c, s = math.cos(t), math.sin(t)
    ch, sh = math.cosh(r), math.sinh(r)
    point = HPoint((ch, sh * c, sh * s, 0.0))
    radial = HTangent(point, (sh, ch * c, ch * s, 0.0))
    angular = HTangent(point, (0.0, -s, c, 0.0))
    normal = HTangent(point, _E3)
    return PolarFrame(point=point, radial=radial, angular=angular, normal=normal)


def spiral_direction(r: float, t: float, params: SpiralParams) -> HTangent:
    """Unit vector ``cos(tilt) angular + sin(tilt) normal`` at the annulus point."""
    return spiral_chart(params).map(r, t).dir


def spiral_chart(params: SpiralParams) -> FoliationChart:
    """Chart of the geodesics seeded by the spiral directions over the annulus."""

    def arrays(r, t):
        c, s = np.cos(t), np.sin(t)
        alpha = params.tilt(r, t)
        foot = np.stack((np.cosh(r), np.sinh(r) * c, np.sinh(r) * s, np.zeros_like(c)), axis=-1)
        direction = np.stack((np.zeros_like(c), -s * np.cos(alpha), c * np.cos(alpha), np.sin(alpha)), axis=-1)
        return foot, direction

    return FoliationChart(arrays=arrays, domain=params.rect, name="prop")


def definiteness_margin(r, t, params: SpiralParams):
    """``sinh(2r) sin(2 tilt) - lam``; positive iff the cross form is
    definite at the sample (pitch positive).  ``r`` and ``t`` may be
    arrays that broadcast together."""
    return np.sinh(2.0 * r) * np.sin(2.0 * params.tilt(r, t)) - params.lam


def cross_form_matrix(r: float, t: float, params: SpiralParams) -> np.ndarray:
    """Closed form of the cross metric on the raw chart tangents.

    In the parameter coordinates ``(x, y)`` the square norm is
    ``lam x^2 - lam x y + (sinh 2r sin 2 tilt) y^2 / 4``; its determinant
    is ``lam / 4`` times the definiteness margin.
    """
    lam = params.lam
    alpha = params.tilt(r, t)
    return np.array(
        [
            [lam, -0.5 * lam],
            [-0.5 * lam, 0.25 * math.sinh(2.0 * r) * math.sin(2.0 * alpha)],
        ]
    )


@dataclass(frozen=True)
class LambdaScan:
    """Result of scanning for the largest pitch with positive margin on a grid."""

    lambda_max: float
    alpha0: float
    delta: float
    grid: tuple[int, int]
    trace: tuple[tuple[float, float], ...]  # (lam, grid minimum of the margin)

    def to_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "alpha0": self.alpha0,
            "delta": self.delta,
            "grid": list(self.grid),
            "trace": [[lam, val] for lam, val in self.trace],
        }


LAMBDA_SCAN_CAP = math.sinh(6.0)


def scan_lambda_max(
    alpha0: float = math.pi / 4.0,
    delta: float = 0.1,
    grid: tuple[int, int] = (200, 200),
) -> LambdaScan:
    """Largest pitch on a bisection schedule keeping the margin positive on the grid.

    The margin tends to ``sinh(2r) sin(2 alpha0) > 0`` as the pitch goes to
    zero, so a positive value always exists.  Bisection runs on
    ``(0, sinh 6]``; the trace records every evaluated (pitch, grid-min)
    pair in order.
    """
    rr = np.linspace(1.0, 3.0, grid[0])[:, None]
    tt = np.linspace(-delta, 2.0 * math.pi + delta, grid[1])[None, :]

    trace: list[tuple[float, float]] = []

    def min_margin(lam: float) -> float:
        out = float(definiteness_margin(rr, tt, SpiralParams(alpha0, lam, delta)).min())
        trace.append((lam, out))
        return out

    hi = LAMBDA_SCAN_CAP
    if min_margin(hi) > 0.0:
        return LambdaScan(hi, alpha0, delta, tuple(grid), tuple(trace))
    lo = 1e-12
    if min_margin(lo) <= 0.0:
        raise GeometryError("margin is not positive even for vanishing pitch")
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if min_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return LambdaScan(lo, alpha0, delta, tuple(grid), tuple(trace))
