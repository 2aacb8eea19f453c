"""The space of oriented geodesics of hyperbolic 3-space.

An oriented geodesic is stored as a footpoint together with a unit
direction; the curve is ``s -> cosh(s) foot + sinh(s) dir``.  The canonical
representative puts the foot at the point closest to a chosen base point.
Tangent vectors to the space of geodesics are encoded as Jacobi data
``(J(0), J'(0))`` along the underlying geodesic; in curvature -1 the
orthogonal Jacobi equation is ``J'' = J``, so evaluation is closed form.

Here live the leaves and their endpoints; the neutral metrics themselves
are read by the chart kernel (``foliation.chart_jets``) from the sphere
endpoints.  On arrays of leaves ``(foot, dir)``: ``check_leaves`` (the
model's invariants, ``lorentz.model_checks``), ``leaf_dist`` and its
residual ``leaf_residual``, the Gauss maps (``endpoint_images``: the
forward and backward endpoints, the rays of ``foot +- dir``, in sphere
coordinates; no other form of an ideal point is kept),
``asymptote_directions`` and ``rank_2x2``, the rank of 2x2 matrices from a
determinant and a Frobenius norm.  ``cross_metric``,
the cross metric of Jacobi data ``(J(0), J'(0))`` from ambient
determinants, and ``gauss_map_jacobian``, finite-difference endpoint
Jacobians in the sphere frame that ``lorentz.orthonormal_complement`` gives
for ``(o, (0, n))``, are independent checks of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BaseMismatchError,
    GeodesicMismatchError,
    GeometryError,
    NumericalError,
)
from .lorentz import (
    ORIGIN,
    HPoint,
    HTangent,
    _finish_point,
    _finish_tangent,
    _require_unit,
    _unitize,
    mink,
    mink_inner,
    model_checks,
    orthonormal_complement,
    same_point,
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

    def __repr__(self):
        return f"OrientedGeodesic(foot={self.foot!r}, dir={self.dir!r})"


def make_geodesic(p: HPoint, w: HTangent, base: HPoint = ORIGIN) -> OrientedGeodesic:
    """Canonical representative of the geodesic through ``p`` with unit velocity ``w``.

    The foot is moved to the closest point to ``base``; there the velocity
    is Minkowski-orthogonal to the base point's position vector.  The result
    is checked: ``p`` must lie within ``1e-8`` of its trajectory, and
    ``|<base, dir>|`` (``cosh(dist(base, foot))`` times the arc length from
    the foot to the closest point) must be at most ``1e-8``, each up to the
    roundoff of the check itself.  Data at distance ``D`` from the base
    point fix the foot only to about ``eps e^{3D}``; there ``NumericalError``
    is raised instead of returning a wrong representative.
    """
    if not same_point(w.base, p):
        raise BaseMismatchError("velocity must be based at the given point")
    _require_unit(w, "velocity")
    w = _unitize(w)
    a = -mink_inner(base.v, p.v)
    b = -mink_inner(base.v, w.w)
    # tanh(s*) = -b/a and a > |b|; the log form avoids arctanh overflow
    if not (a - b > 0.0 and a + b > 0.0):
        raise NumericalError("cannot canonicalize the geodesic: its foot shift cancels to roundoff")
    s_star = 0.5 * np.log((a - b) / (a + b))
    try:
        foot = _finish_point(np.cosh(s_star) * p.v + np.sinh(s_star) * w.w)
        vel = _finish_tangent(foot, np.sinh(s_star) * p.v + np.cosh(s_star) * w.w)
        g = OrientedGeodesic(foot, _unitize(vel))
    except GeometryError as exc:
        raise NumericalError(f"cannot canonicalize the geodesic: {exc}") from None
    # each check up to the roundoff of its own pairings, a few ulps of the
    # products of Euclidean sizes
    ulps = 8.0 * np.finfo(float).eps
    size_p, size_f, size_d = (float(np.linalg.norm(x)) for x in (p.v, g.foot.v, g.dir.w))
    if not (
        dist_to_geodesic(p, g) <= 1e-8 + ulps * size_p * (size_f + size_d)
        and abs(mink_inner(base.v, g.dir.w)) <= 1e-8 + ulps * float(np.linalg.norm(base.v)) * size_d
    ):
        raise NumericalError("the canonical representative is not accurate to 1e-8 this far from the base point")
    return g


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
    """Distance from a point to the trajectory (closed form, any representative);
    the scalar form of ``leaf_dist``."""
    return float(leaf_dist(g.foot.v, g.dir.w, q.v))


def geodesic_dist_sq(g: OrientedGeodesic, base: HPoint = ORIGIN) -> float:
    """Squared distance from the base point to the trajectory."""
    return dist_to_geodesic(base, g) ** 2


# ---------------------------------------------------------------------------
# Jacobi data


@dataclass(frozen=True, eq=False)
class JacobiData:
    """A Jacobi field along ``geo`` given by its value and covariant
    derivative at the foot.

    Membership in the tangent space of the geodesic space corresponds to
    both vectors being orthogonal to the direction.  Non-orthogonal data is
    accepted because the cross metric extends to it (the tangential part
    ``(a + b s) dir`` drops out).
    """

    geo: OrientedGeodesic
    j0: HTangent
    j0p: HTangent

    def __post_init__(self):
        if not (same_point(self.j0.base, self.geo.foot) and same_point(self.j0p.base, self.geo.foot)):
            raise BaseMismatchError("Jacobi data must be anchored at the footpoint")


def _require_same_geodesic(x: JacobiData, y: JacobiData):
    if not same_geodesic(x.geo, y.geo):
        raise GeodesicMismatchError("Jacobi data lives on different geodesics")


def _endpoint_variations(x: JacobiData, s: float) -> tuple[np.ndarray, np.ndarray]:
    """``J(s) + J'(s)`` and ``J(s) - J'(s)``, the forward and backward endpoint
    variations, up to parts along the leaf's plane (which the cross metric
    drops).  Along the leaf they only scale, by ``e^s`` and ``e^-s``, so the
    metric at any ``s`` is as well conditioned as at the foot."""
    return np.exp(s) * (x.j0.w + x.j0p.w), np.exp(-s) * (x.j0.w - x.j0p.w)


def cross_metric(x: JacobiData, y: JacobiData | None = None, s: float = 0.0) -> float:
    """Cross-product metric; the square norm of ``x`` when ``y`` is omitted.

    Polarization of ``<velocity x J, J'>`` evaluated at arc length ``s``; the
    value does not depend on ``s``.  With ``J+- = J +- J'`` it reads
    ``(det[foot, dir, Jx-, Jy+] + det[foot, dir, Jy-, Jx+]) / 4``, from which
    tangential components drop out, so non-orthogonal Jacobi data is
    accepted.  An ambient reference for the chart kernel.
    """
    if y is None:
        y = x
    else:
        _require_same_geodesic(x, y)
    (xp, xm), (yp, ym) = _endpoint_variations(x, s), _endpoint_variations(y, s)
    f, d = x.geo.foot.v, x.geo.dir.w
    return 0.25 * float(np.linalg.det(np.array((f, d, xm, yp))) + np.linalg.det(np.array((f, d, ym, xp))))


# ---------------------------------------------------------------------------
# array forms: leaves as (N, 4) feet and directions


def check_leaves(foot: np.ndarray, direction: np.ndarray, params) -> None:
    """Raise ``NumericalError`` unless every row is a leaf by the table of
    ``lorentz.model_checks``, naming the first failing row of the first check
    that fails by its parameters ``params = (a, b)``, which are read only then;
    a row whose squares are not finite is a "non-finite leaf"."""
    for c, (message, ok) in enumerate(model_checks(foot, direction)):
        if not ok.all():
            k = int(np.argmin(ok))
            raise NumericalError(f"chart leaf at {tuple(float(x[k]) for x in params)}: {'non-finite leaf' if c == 0 else message}")


def rank_2x2(det: np.ndarray, frob_sq: np.ndarray, atol: float) -> np.ndarray:
    """``svd_rank`` of 2x2 matrices given by their determinant and squared
    Frobenius norm.  The small singular value is read as ``|det| / s1``, so it
    keeps its relative accuracy and the ``1e-9`` relative floor stays
    resolvable."""
    s1 = np.sqrt(0.5 * (frob_sq + np.sqrt(np.maximum(frob_sq * frob_sq - 4.0 * det * det, 0.0))))
    s2 = np.divide(np.abs(det), s1, out=np.zeros_like(s1), where=s1 > 0.0)
    floor = np.maximum(atol, 1e-9 * s1)
    return (s1 > floor).astype(int) + (s2 > floor)


def leaf_dist(foot: np.ndarray, direction: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from a point to each leaf, closed form for any representative.

    ``sinh`` of the distance is the Minkowski norm of the part of ``q``
    orthogonal to the plane of the trajectory.  Read that way it keeps full
    relative accuracy near the trajectory, where ``arccosh`` of
    ``cosh(d) = sqrt(a^2 - b^2)`` would lose it to cancellation.
    """
    r = leaf_residual(foot, direction, q)
    return np.arcsinh(np.sqrt(np.maximum(mink(r, r), 0.0)))


def leaf_residual(foot: np.ndarray, direction: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The part ``r = q - (a foot + b direction)`` of ``q`` orthogonal to
    the plane of each trajectory, ``a = -<foot, q>``, ``b = <direction,
    q>``: ``<r, r> = sinh^2`` of the distance.  Complex-safe."""
    a = -mink(foot, q)
    b = mink(direction, q)
    return q - (a[..., None] * foot + b[..., None] * direction)


def endpoint_images(foot: np.ndarray, direction: np.ndarray, sign: int) -> np.ndarray:
    """Sphere coordinates of the forward (+1) or backward (-1) endpoints of
    the leaves: the unit vector ``u`` at the base point with ``foot +- dir``
    on the null ray of ``o + u``."""
    u = (foot + sign * direction)[..., 1:]
    return u / np.sqrt(np.sum(u * u, axis=-1, keepdims=True))


def asymptote_directions(points: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The unit vectors at ``(N, 4)`` points whose geodesics run into the
    ideal point of the null vector ``n``; complex-safe.

    Closed form ``m - p`` where ``m`` is the null representative scaled so
    that ``<m, p> = -1``.
    """
    return n / -mink(n, points)[..., None] - points


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
    This is the independent reference for ``ChartJets.endpoint_ranks``.
    """
    a, b = float(params[0]), float(params[1])
    if a + h == a or b + h == b:
        raise NumericalError("finite-difference step underflowed")
    geos = [chart.map(aa, bb) for aa, bb in ((a, b), (a + h, b), (a - h, b), (a, b + h), (a, b - h))]
    jacobians = []
    for sign in (1, -1):
        n0, na_plus, na_minus, nb_plus, nb_minus = (endpoint_images(g.foot.v, g.dir.w, sign) for g in geos)
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
