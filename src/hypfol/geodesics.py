"""The space of oriented geodesics of hyperbolic 3-space.

An oriented geodesic is stored as a footpoint together with a unit
direction; the curve is ``s -> cosh(s) foot + sinh(s) dir``.  The canonical
representative puts the foot at the point closest to a chosen base point.
Tangent vectors to the space of geodesics are encoded as Jacobi data
``(J(0), J'(0))`` along the underlying geodesic; in curvature -1 the
orthogonal Jacobi equation is ``J'' = J``, so evaluation is closed form.

Two pieces of structure computed here carry the whole package:

* the pair of neutral metrics on the geodesic space, ``cross_metric``
  (built from the oriented cross product) and ``killing_metric``
  (difference of squared norms), both constant along the geodesic;
* the forward/backward endpoint maps to the ideal boundary
  (``gauss_map``), with differentials ``J(0) +- J'(0)``.

Both are read from the parallel-frame coordinates ``(J1, J2, J1', J2')`` of
Jacobi data (``frame_coords``), on which the metrics are the constant forms
``CROSS_FORM`` and ``KILLING_FORM``.  The parallel frame is
``lorentz.orthonormal_complement`` of ``(foot, dir)``, the package's one
frame builder.  ``gauss_map_jacobian`` keeps the finite-difference endpoint
Jacobians as an independent check, in the sphere frame that the same
builder gives for ``(o, (0, n))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseMismatchError,
    GeodesicMismatchError,
    GeometryError,
    NonOrthogonalJacobiError,
    NumericalError,
)
from .lorentz import (
    ETA,
    ORIGIN,
    BoundaryPoint,
    HPoint,
    HTangent,
    _finish_point,
    _finish_tangent,
    _require_unit,
    _unitize,
    exp_map,
    log_map,
    mink_inner,
    orthonormal_complement,
    project_to_tangent,
    same_point,
    sphere_coords,
)


@dataclass(frozen=True, eq=False)
class OrientedGeodesic:
    """An oriented geodesic in footpoint + unit direction form.

    Any point of the trajectory may serve as the foot; ``make_geodesic``
    gives the representative whose foot is closest to a base point.
    """

    foot: HPoint
    dir: HTangent

    def __post_init__(self):
        if not same_point(self.dir.base, self.foot):
            raise BaseMismatchError("direction must be based at the footpoint")
        _require_unit(self.dir, "direction")

    def eval(self, s: float) -> tuple[HPoint, HTangent]:
        """Point and unit velocity at arc length ``s`` from the foot."""
        pt = _finish_point(np.cosh(s) * self.foot.v + np.sinh(s) * self.dir.w)
        vel = _finish_tangent(pt, np.sinh(s) * self.foot.v + np.cosh(s) * self.dir.w)
        return pt, _unitize(vel)

    def reverse(self) -> "OrientedGeodesic":
        """Same trajectory with the opposite orientation (same footpoint)."""
        return OrientedGeodesic(self.foot, -self.dir)

    def __repr__(self):
        return f"OrientedGeodesic(foot={self.foot!r}, dir={self.dir!r})"


def make_geodesic(p: HPoint, w: HTangent, base: HPoint = ORIGIN) -> OrientedGeodesic:
    """Canonical representative of the geodesic through ``p`` with unit velocity ``w``.

    The foot is moved to the closest point to ``base``; there the velocity
    is Minkowski-orthogonal to the base point's position vector.
    """
    if not same_point(w.base, p):
        raise BaseMismatchError("velocity must be based at the given point")
    _require_unit(w, "velocity")
    w = _unitize(w)
    a = -mink_inner(base.v, p.v)
    b = -mink_inner(base.v, w.w)
    # tanh(s*) = -b/a and a > |b|; the log form avoids arctanh overflow
    s_star = 0.5 * np.log((a - b) / (a + b))
    foot = _finish_point(np.cosh(s_star) * p.v + np.sinh(s_star) * w.w)
    vel = _finish_tangent(foot, np.sinh(s_star) * p.v + np.cosh(s_star) * w.w)
    return OrientedGeodesic(foot, _unitize(vel))


def same_geodesic(g1: OrientedGeodesic, g2: OrientedGeodesic) -> bool:
    """Whether two representatives describe the same oriented geodesic
    (canonical feet and directions agree to ``1e-8``)."""
    if g1 is g2:
        return True
    c1, c2 = make_geodesic(g1.foot, g1.dir), make_geodesic(g2.foot, g2.dir)
    return bool(
        np.max(np.abs(c1.foot.v - c2.foot.v)) <= 1e-8
        and np.max(np.abs(c1.dir.w - c2.dir.w)) <= 1e-8
    )


def dist_to_geodesic(q: HPoint, g: OrientedGeodesic) -> float:
    """Distance from a point to the trajectory (closed form, any representative).

    ``sinh`` of the distance is the Minkowski norm of the part of ``q``
    orthogonal to the plane of the trajectory.  Read that way it keeps full
    relative accuracy near the trajectory, where ``arccosh`` of
    ``cosh(d) = sqrt(a^2 - b^2)`` would lose it to cancellation.
    """
    a = -mink_inner(q.v, g.foot.v)
    b = mink_inner(q.v, g.dir.w)
    r = q.v - (a * g.foot.v + b * g.dir.w)
    return float(np.arcsinh(np.sqrt(max(mink_inner(r, r), 0.0))))


def geodesic_dist_sq(g: OrientedGeodesic, base: HPoint = ORIGIN) -> float:
    """Squared distance from the base point to the trajectory."""
    return dist_to_geodesic(base, g) ** 2


# ---------------------------------------------------------------------------
# the global chart by closest-point data


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """Chart data for a geodesic: unit ``u`` and ``v`` orthogonal to it, at the base point.

    The geodesic runs through ``exp(v)`` with direction the transport of ``u``
    along the radial geodesic.  Its squared distance to the base point is
    ``|v|^2``.
    """

    u: HTangent
    v: HTangent

    def __post_init__(self):
        if not same_point(self.u.base, self.v.base):
            raise BaseMismatchError("chart components must share a base point")
        _require_unit(self.u, "u")
        scale = max(1.0, float(np.linalg.norm(self.u.w) * np.linalg.norm(self.v.w)))
        if abs(mink_inner(self.u.w, self.v.w)) > 1e-8 * scale:
            raise GeometryError("u and v must be orthogonal")

    @property
    def base(self) -> HPoint:
        return self.u.base


def geodesic_from_chart(c: ChartPoint) -> OrientedGeodesic:
    """The geodesic with chart data ``(u, v)``; a global diffeomorphism.

    Because ``u`` is orthogonal to the radial direction, its ambient
    components are unchanged by the radial transport.
    """
    foot = exp_map(c.v)
    direction = _unitize(_finish_tangent(foot, c.u.w))
    return OrientedGeodesic(foot, direction)


def chart_of_geodesic(g: OrientedGeodesic, base: HPoint = ORIGIN) -> ChartPoint:
    """Inverse chart: closest-point data ``(u, v)`` of a geodesic."""
    gc = make_geodesic(g.foot, g.dir, base=base)
    v = log_map(base, gc.foot)
    u = project_to_tangent(base, gc.dir.w).normalized()
    return ChartPoint(u, v)


# ---------------------------------------------------------------------------
# Jacobi data


@dataclass(frozen=True, eq=False)
class JacobiData:
    """A Jacobi field along ``geo`` given by its value and covariant
    derivative at the foot.

    Membership in the tangent space of the geodesic space corresponds to
    both vectors being orthogonal to the direction; ``is_orthogonal``
    reports that.  Non-orthogonal data is accepted because the cross metric
    extends to it (the tangential part ``(a + b s) dir`` drops out), while
    the Killing metric does not.
    """

    geo: OrientedGeodesic
    j0: HTangent
    j0p: HTangent

    def __post_init__(self):
        if not (same_point(self.j0.base, self.geo.foot) and same_point(self.j0p.base, self.geo.foot)):
            raise BaseMismatchError("Jacobi data must be anchored at the footpoint")

    @property
    def is_orthogonal(self) -> bool:
        d = self.geo.dir.w
        s0 = max(1.0, float(np.linalg.norm(self.j0.w)))
        s1 = max(1.0, float(np.linalg.norm(self.j0p.w)))
        return (
            abs(mink_inner(self.j0.w, d)) <= 1e-9 * s0
            and abs(mink_inner(self.j0p.w, d)) <= 1e-9 * s1
        )



def jacobi_eval(jd: JacobiData, s: float) -> tuple[HTangent, HTangent]:
    """Value and covariant derivative of the Jacobi field at arc length ``s``.

    The orthogonal part solves ``J'' = J`` and its ambient components are
    parallel along the axis, so it evolves by cosh/sinh mixing; a tangential
    part evolves as ``(a + b s)`` times the velocity.
    """
    g = jd.geo
    d = g.dir.w
    a = mink_inner(jd.j0.w, d)
    b = mink_inner(jd.j0p.w, d)
    j0_perp = jd.j0.w - a * d
    j0p_perp = jd.j0p.w - b * d
    pt, vel = g.eval(s)
    ch, sh = np.cosh(s), np.sinh(s)
    jw = ch * j0_perp + sh * j0p_perp + (a + b * s) * vel.w
    jpw = sh * j0_perp + ch * j0p_perp + b * vel.w
    return project_to_tangent(pt, jw), project_to_tangent(pt, jpw)


def _require_same_geodesic(x: JacobiData, y: JacobiData):
    if not same_geodesic(x.geo, y.geo):
        raise GeodesicMismatchError("Jacobi data lives on different geodesics")


#: The cross metric on frame coordinates ``(J1, J2, J1', J2')``: the
#: polarization of ``<velocity x J, J'> = J1 J2' - J2 J1'``, since
#: velocity x (0, J1, J2) = (0, -J2, J1) in the right-handed parallel frame.
CROSS_FORM = 0.5 * np.array(
    [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
)
#: The Killing metric on frame coordinates: ``|J|^2 - |J'|^2``.
KILLING_FORM = np.diag([1.0, 1.0, -1.0, -1.0])


def frame_coords(*jds: JacobiData, s: float = 0.0) -> np.ndarray:
    """Coordinates ``(J1, J2, J1', J2')`` of J(s) and J'(s), one row per datum,
    in the parallel frame of the plane orthogonal to the first datum's geodesic.

    The frame is the orthonormal complement of ``(foot, dir)``, oriented so
    that ``(foot, dir, E1, E2)`` is positive; both vectors are invariant under
    parallel transport along the geodesic.  Tangential components drop out.  The row norm of orthogonal data is its
    energy ``sqrt(|J|^2 + |J'|^2)``, the normalizer of verdict forms and ranks.
    """
    g = jds[0].geo
    frame = ETA @ np.column_stack(orthonormal_complement((g.foot.v, g.dir.w)))
    a = np.array([x.j0.w for x in jds]) @ frame
    b = np.array([x.j0p.w for x in jds]) @ frame
    ch, sh = np.cosh(s), np.sinh(s)
    return np.hstack((ch * a + sh * b, sh * a + ch * b))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return np.divide(z, norms, out=np.zeros_like(z), where=norms > 0.0)


def cross_metric(x: JacobiData, y: JacobiData | None = None, s: float = 0.0) -> float:
    """Cross-product metric; the square norm of ``x`` when ``y`` is omitted.

    Polarization of ``<velocity x J, J'>`` evaluated at arc length ``s``.
    The pairing is computed in the parallel orthonormal frame of the plane
    orthogonal to the geodesic, which keeps it well conditioned for large
    ``s``; the value does not depend on ``s``.  The velocity cross product
    kills tangential components, so non-orthogonal Jacobi data is accepted.
    """
    if y is None:
        y = x
    else:
        _require_same_geodesic(x, y)
    zx, zy = frame_coords(x, y, s=s)
    return float(zx @ CROSS_FORM @ zy)


def killing_metric(x: JacobiData, y: JacobiData | None = None, s: float = 0.0) -> float:
    """Killing-form metric ``<Jx, Jy> - <Jx', Jy'>`` evaluated at arc length ``s``.

    Requires data orthogonal to the direction; such fields stay in the
    parallel frame of the orthogonal plane, where the evaluation is well
    conditioned.  The value does not depend on ``s``.
    """
    if y is None:
        y = x
    else:
        _require_same_geodesic(x, y)
    if not (x.is_orthogonal and y.is_orthogonal):
        raise NonOrthogonalJacobiError("the Killing metric needs data orthogonal to the direction")
    zx, zy = frame_coords(x, y, s=s)
    return float(zx @ KILLING_FORM @ zy)


def stability_classify(jd: JacobiData) -> str:
    """Classify decay: "stable" (``J' = -J``), "unstable" (``J' = +J``) or "neither".

    Stable data decays like ``e^{-s}`` forward, unstable like ``e^{s}``
    backward.  The zero field is reported stable.  The test is relative, at ``1e-8``.
    """
    n0 = float(np.linalg.norm(jd.j0.w))
    n1 = float(np.linalg.norm(jd.j0p.w))
    scale = max(n0, n1, 1e-300)
    if np.linalg.norm(jd.j0p.w + jd.j0.w) <= 1e-8 * scale:
        return "stable"
    if np.linalg.norm(jd.j0p.w - jd.j0.w) <= 1e-8 * scale:
        return "unstable"
    return "neither"


# ---------------------------------------------------------------------------
# endpoint (Gauss) maps to the ideal boundary


def gauss_map(g: OrientedGeodesic, sign: int = 1) -> BoundaryPoint:
    """Forward (+1) or backward (-1) endpoint at infinity, as a null ray."""
    if sign not in (1, -1):
        raise GeometryError("sign must be +1 or -1")
    return BoundaryPoint(g.foot.v + sign * g.dir.w)


def asymptote_vector(p: HPoint, b: BoundaryPoint) -> HTangent:
    """The unique unit vector at ``p`` whose geodesic runs into ``b``.

    Closed form ``m - p`` where ``m`` is the null representative scaled so
    that ``<m, p> = -1``.
    """
    denom = -mink_inner(b.n, p.v)
    m = b.n / denom
    return _unitize(_finish_tangent(p, m - p.v))


def svd_rank(mat: np.ndarray, atol: float = 1e-6) -> int:
    """Rank by singular values above ``1e-9`` of the largest, with the
    absolute floor ``atol`` for all-zero matrices."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > max(atol, 1e-9 * float(s[0]))))


def gauss_map_jacobian(
    chart, params: tuple[float, float], h: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference 2x2 Jacobians of the forward and backward endpoint
    maps in sphere coordinates, as ``(forward, backward)``.

    ``chart`` is anything with a ``map(a, b) -> OrientedGeodesic`` attribute;
    it is evaluated once at the center and once at each of the four
    central-difference neighbours.  Only the rank and kernel of each result
    are meaningful; the sphere chart at the center image fixes the row frame.
    This is the independent reference for ``endpoint_velocity_rank``.
    """
    a, b = float(params[0]), float(params[1])
    if a + h == a or b + h == b:
        raise NumericalError("finite-difference step underflowed")
    geos = [chart.map(aa, bb) for aa, bb in ((a, b), (a + h, b), (a - h, b), (a, b + h), (a, b - h))]
    jacobians = []
    for sign in (1, -1):
        n0, na_plus, na_minus, nb_plus, nb_minus = (sphere_coords(gauss_map(g, sign)) for g in geos)
        # (n0, t1, t2) is positively oriented, since (o, (0, n0), (0, t1), (0, t2)) is
        t1, t2 = (t[1:] for t in orthonormal_complement((ORIGIN.v, np.concatenate(([0.0], n0)))))
        col_a = (na_plus - na_minus) / (2.0 * h)
        col_b = (nb_plus - nb_minus) / (2.0 * h)
        jacobians.append(
            np.array(
                [[np.dot(t1, col_a), np.dot(t1, col_b)], [np.dot(t2, col_a), np.dot(t2, col_b)]]
            )
        )
    return jacobians[0], jacobians[1]


def endpoint_velocity_rank(x1: JacobiData, x2: JacobiData, atol: float = 1e-6) -> tuple[int, int]:
    """Ranks ``(forward, backward)`` of the linearized endpoint maps on the
    span of two Jacobi tangents.

    The variation of the asymptotic direction at the foot has derivative
    ``J(0) + J'(0)`` for the forward endpoint and ``J(0) - J'(0)`` for the
    backward one (the latter by applying the same identity to the reversed
    geodesic).  Both are read from one set of frame coordinates, each
    tangent normalized by its energy.
    """
    _require_same_geodesic(x1, x2)
    z = _unit_rows(frame_coords(x1, x2))
    j, jp = z[:, :2], z[:, 2:]
    return svd_rank(j + jp, atol=atol), svd_rank(j - jp, atol=atol)
