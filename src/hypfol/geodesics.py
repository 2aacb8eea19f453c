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

Both are computed without a frame, on arrays of leaves ``(foot, dir)`` and
ambient Jacobi data in endpoint form ``J +- J'`` (the differentials of the
two endpoint maps): the cross metric from determinants
``det[foot, dir, u, v]`` (``plane_det``), the Killing metric and the
energies from Minkowski pairings, the endpoint ranks from a determinant and
a Frobenius norm (``rank_2x2``).  ``cross_metric``, ``killing_metric`` and
``dist_to_geodesic`` are validated scalar forms of these array functions.
``gauss_map_jacobian`` keeps the finite-difference endpoint Jacobians as an
independent check of ``endpoint_ranks``, in the sphere frame that
``lorentz.orthonormal_complement`` gives for ``(o, (0, n))``.
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
    MODEL_TOL,
    ORIGIN,
    BoundaryPoint,
    HPoint,
    HTangent,
    _finish_point,
    _finish_tangent,
    _require_unit,
    _unitize,
    mink,
    mink_inner,
    orthonormal_complement,
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



def _require_same_geodesic(x: JacobiData, y: JacobiData):
    if not same_geodesic(x.geo, y.geo):
        raise GeodesicMismatchError("Jacobi data lives on different geodesics")


def _endpoint_variations(x: JacobiData, s: float) -> tuple[np.ndarray, np.ndarray]:
    """``J(s) + J'(s)`` and ``J(s) - J'(s)``, the forward and backward endpoint
    variations, up to parts along the leaf's plane (which every pairing
    drops).  Along the leaf they only scale, by ``e^s`` and ``e^-s``, so the
    pairings at any ``s`` are as well conditioned as at the foot."""
    return np.exp(s) * (x.j0.w + x.j0p.w), np.exp(-s) * (x.j0.w - x.j0p.w)


def cross_metric(x: JacobiData, y: JacobiData | None = None, s: float = 0.0) -> float:
    """Cross-product metric; the square norm of ``x`` when ``y`` is omitted.

    Polarization of ``<velocity x J, J'>`` evaluated at arc length ``s``; the
    value does not depend on ``s``.  The scalar form of ``cross_pairing``,
    which drops tangential components, so non-orthogonal Jacobi data is
    accepted.
    """
    if y is None:
        y = x
    else:
        _require_same_geodesic(x, y)
    g = x.geo
    return float(cross_pairing(g.foot.v, g.dir.w, *_endpoint_variations(x, s), *_endpoint_variations(y, s)))


def killing_metric(x: JacobiData, y: JacobiData | None = None, s: float = 0.0) -> float:
    """Killing-form metric ``<Jx, Jy> - <Jx', Jy'>`` evaluated at arc length ``s``.

    Requires data orthogonal to the direction; the value does not depend on
    ``s``.  The scalar form of ``killing_pairing``.
    """
    if y is None:
        y = x
    else:
        _require_same_geodesic(x, y)
    if not (x.is_orthogonal and y.is_orthogonal):
        raise NonOrthogonalJacobiError("the Killing metric needs data orthogonal to the direction")
    return float(killing_pairing(*_endpoint_variations(x, s), *_endpoint_variations(y, s)))


# ---------------------------------------------------------------------------
# array forms: leaves as (N, 4) feet and directions, Jacobi data as ambient
# vectors at the feet


def _mink_of_products(p: np.ndarray) -> np.ndarray:
    """``mink(x, y)`` from the products ``p = x * y``, in ``mink``'s order of
    operations, so to the same bits."""
    return p[..., 1] + p[..., 2] + p[..., 3] - p[..., 0]


def check_leaves(foot: np.ndarray, direction: np.ndarray, params) -> None:
    """Raise ``NumericalError`` unless every row is a leaf that the value
    objects would accept: finite, the foot on the unit hyperboloid with
    ``x0 > 0``, the direction a unit tangent at the foot, all at the
    constructors' relative tolerance ``MODEL_TOL``.  ``params``, the pair of
    parameter arrays ``(a, b)``, are read only to name the first failing row
    of the first check that fails."""
    with np.errstate(all="ignore"):
        fsq, dsq = foot * foot, direction * direction
        fs, ds = np.add.reduce(fsq, axis=-1), np.add.reduce(dsq, axis=-1)
        ff, dd = _mink_of_products(fsq), _mink_of_products(dsq)
        checks = (
            ("non-finite leaf", np.isfinite(fs) & np.isfinite(ds)),
            ("point is not on the unit hyperboloid", np.abs(ff + 1.0) <= MODEL_TOL * np.maximum(1.0, fs)),
            ("point is on the past sheet", foot[..., 0] > 0.0),
            (
                "vector is not tangent at its base point",
                np.abs(mink(foot, direction)) <= MODEL_TOL * np.maximum(1.0, np.sqrt(fs * ds)),
            ),
            ("direction must be a unit vector", np.abs(dd - 1.0) <= MODEL_TOL * np.maximum(1.0, ds)),
        )
    if np.logical_and.reduce([ok for _, ok in checks], axis=None):
        return
    for message, ok in checks:
        if not ok.all():
            k = int(np.argmin(ok))
            raise NumericalError(f"chart leaf at {tuple(float(x[k]) for x in params)}: {message}")


def normal_part(foot: np.ndarray, direction: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The part of ambient vectors ``u`` Minkowski-orthogonal to the leaf's
    plane: a variation of the foot or of the direction becomes Jacobi data."""
    return u + mink(u, foot)[..., None] * foot - mink(u, direction)[..., None] * direction


_PAIR_I, _PAIR_J = np.triu_indices(4, 1)  # column pairs 01 02 03 12 13 23
_LAPLACE_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., _PAIR_I] * v[..., _PAIR_J] - u[..., _PAIR_J] * v[..., _PAIR_I]


def plane_det(foot: np.ndarray, direction: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``det[foot, dir, u, v]`` row by row, by Laplace expansion in 2x2 minors.

    On vectors normal to the leaf this is their oriented area in the
    normal plane, the parallel frame ``(E1, E2)`` completing ``(foot, dir)``
    being positively oriented.  Parts along the leaf's plane drop out, and
    swapping ``u`` and ``v`` flips the sign to the last bit.
    """
    return np.sum(_LAPLACE_SIGNS * _wedge(foot, direction) * _wedge(u, v)[..., ::-1], axis=-1)


# The pairings below take Jacobi data in endpoint form, ``J+ = J + J'`` and
# ``J- = J - J'``: the differentials of the forward and backward endpoint
# maps.  In that form the cross metric
# ``(det[foot, dir, Jx, Jy'] + det[foot, dir, Jy, Jx']) / 2`` reads
# ``(det[foot, dir, Jx-, Jy+] + det[foot, dir, Jy-, Jx+]) / 4``, the Killing
# metric ``<Jx, Jy> - <Jx', Jy'>`` reads ``(<Jx+, Jy-> + <Jy+, Jx->) / 2``, and
# the energy ``|J|^2 + |J'|^2`` reads ``(|J+|^2 + |J-|^2) / 2``.  A vanishing
# endpoint variation (all leaves sharing an endpoint) makes them vanish
# exactly.


def cross_pairing(foot, direction, xp, xm, yp, ym) -> np.ndarray:
    """Cross metric of Jacobi data ``x`` and ``y`` in endpoint form, the
    polarization of ``<velocity x J, J'>``."""
    return 0.25 * (plane_det(foot, direction, xm, yp) + plane_det(foot, direction, ym, xp))


def killing_pairing(xp, xm, yp, ym) -> np.ndarray:
    """Killing metric of Jacobi data ``x`` and ``y`` in endpoint form,
    normal to the leaf."""
    return 0.5 * (mink(xp, ym) + mink(yp, xm))


def unit_tangents(jp: np.ndarray, jm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies ``sqrt(|J|^2 + |J'|^2)`` of Jacobi data in endpoint form,
    normal to the leaf, and the data scaled to unit energy (zero data stays
    zero)."""
    energy = np.sqrt(np.maximum(0.5 * (mink(jp, jp) + mink(jm, jm)), 0.0))
    scale = np.divide(1.0, energy, out=np.zeros_like(energy), where=energy > 0.0)[..., None]
    return energy, jp * scale, jm * scale


def rank_2x2(det: np.ndarray, frob_sq: np.ndarray, atol: float = 1e-6) -> np.ndarray:
    """``svd_rank`` of 2x2 matrices given by their determinant and squared
    Frobenius norm.  The small singular value is read as ``|det| / s1``, so it
    keeps its relative accuracy and the ``1e-9`` relative floor stays
    resolvable."""
    s1 = np.sqrt(0.5 * (frob_sq + np.sqrt(np.maximum(frob_sq * frob_sq - 4.0 * det * det, 0.0))))
    s2 = np.divide(np.abs(det), s1, out=np.zeros_like(s1), where=s1 > 0.0)
    floor = np.maximum(atol, 1e-9 * s1)
    return (s1 > floor).astype(int) + (s2 > floor)


def endpoint_ranks(foot, direction, up, um, atol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Ranks ``(forward, backward)`` of the linearized endpoint maps on the
    span of two unit-energy Jacobi data in endpoint form, ``(up[0], um[0])``
    and ``(up[1], um[1])``.

    The variation of the asymptotic direction at the foot has derivative
    ``J(0) + J'(0)`` for the forward endpoint and ``J(0) - J'(0)`` for the
    backward one (the latter by applying the same identity to the reversed
    geodesic).
    """
    return tuple(
        rank_2x2(plane_det(foot, direction, v[0], v[1]), mink(v[0], v[0]) + mink(v[1], v[1]), atol)
        for v in (up, um)
    )


def leaf_dist(foot: np.ndarray, direction: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from a point to each leaf, closed form for any representative.

    ``sinh`` of the distance is the Minkowski norm of the part of ``q``
    orthogonal to the plane of the trajectory.  Read that way it keeps full
    relative accuracy near the trajectory, where ``arccosh`` of
    ``cosh(d) = sqrt(a^2 - b^2)`` would lose it to cancellation.
    """
    a = -_mink_of_products(foot * q)
    b = _mink_of_products(direction * q)
    r = q - (a[..., None] * foot + b[..., None] * direction)
    return np.arcsinh(np.sqrt(np.maximum(_mink_of_products(r * r), 0.0)))


def endpoint_images(foot: np.ndarray, direction: np.ndarray, sign: int) -> np.ndarray:
    """Sphere coordinates of the forward (+1) or backward (-1) endpoints of
    the leaves: ``gauss_map`` followed by ``sphere_coords``."""
    u = (foot + sign * direction)[..., 1:]
    return u / np.sqrt(np.sum(u * u, axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# endpoint (Gauss) maps to the ideal boundary


def gauss_map(g: OrientedGeodesic, sign: int = 1) -> BoundaryPoint:
    """Forward (+1) or backward (-1) endpoint at infinity, as a null ray."""
    if sign not in (1, -1):
        raise GeometryError("sign must be +1 or -1")
    return BoundaryPoint(g.foot.v + sign * g.dir.w)


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
    This is the independent reference for ``endpoint_ranks``.
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
