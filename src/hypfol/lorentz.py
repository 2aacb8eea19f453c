"""Minkowski R^{3,1} linear algebra and the hyperboloid model of hyperbolic 3-space.

The ambient bilinear form is ``<x, y> = -x0*y0 + x1*y1 + x2*y2 + x3*y3``.
Hyperbolic space is the upper hyperboloid sheet ``{<x, x> = -1, x0 > 0}``;
the tangent space at ``p`` is the Minkowski-orthogonal complement of ``p``.
Geodesics, distances, parallel transport and the ideal boundary all have
closed forms in this model, so nothing downstream needs numerical
integration.

Conventions fixed here and used everywhere else:

* base point ``ORIGIN = (1, 0, 0, 0)``;
* orientation: ``(e1, e2, e3)`` is a positively oriented frame at the base
  point, so ``cross(o, e1, e2) = e3``;
* half-space model: ``ORIGIN`` maps to ``(0, 0, 1)`` and the geodesic
  leaving it in the ``e3`` direction maps to the vertical line
  ``t -> (0, 0, e^t)``;
* ideal boundary points are future null rays, normalized so ``x0 = 1``;
  they correspond to unit vectors ``u`` at the base point via ``n ~ o + u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BaseMismatchError, GeometryError

#: Relative tolerance for constructor invariants (hyperboloid membership,
#: tangency, nullity).  Checks are scaled by the squared Euclidean size of
#: the data so that large-coordinate points far from the base are not
#: rejected for plain roundoff.
MODEL_TOL = 1e-9

#: The Minkowski form as a matrix: ``<x, y> = x @ ETA @ y``.
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _as_mink(arr) -> np.ndarray:
    a = np.array(arr, dtype=float)
    if a.shape != (4,):
        raise GeometryError(f"expected 4 Minkowski components, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("non-finite Minkowski components")
    a.flags.writeable = False
    return a


def mink_vec(x0: float, x1: float, x2: float, x3: float) -> np.ndarray:
    """Build a validated, read-only Minkowski 4-vector."""
    return _as_mink((x0, x1, x2, x3))


def mink_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Minkowski pairing of signature (3,1)."""
    return float(a[1] * b[1] + a[2] * b[2] + a[3] * b[3] - a[0] * b[0])


def mink(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``mink_inner`` over the last axis of arrays of 4-vectors, broadcasting
    the others; complex-safe (no conjugation)."""
    return x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2] + x[..., 3] * y[..., 3] - x[..., 0] * y[..., 0]


def _scale_sq(a: np.ndarray) -> float:
    return max(1.0, float(np.dot(a, a)))


def _require_unit(t: HTangent, name: str) -> None:
    """Unit-norm check at the relative tolerance of the constructor invariants."""
    if abs(t.norm_sq - 1.0) > MODEL_TOL * _scale_sq(t.w):
        raise GeometryError(f"{name} must be a unit vector")


@dataclass(frozen=True, eq=False)
class HPoint:
    """A point of hyperbolic 3-space: ``<v, v> = -1`` with ``v0 > 0``."""

    v: np.ndarray

    def __post_init__(self):
        v = _as_mink(self.v)
        object.__setattr__(self, "v", v)
        if abs(mink_inner(v, v) + 1.0) > MODEL_TOL * _scale_sq(v):
            raise GeometryError("point is not on the unit hyperboloid")
        if v[0] <= 0.0:
            raise GeometryError("point is on the past sheet")

    def __repr__(self):
        return f"HPoint({np.array2string(self.v, precision=6)})"


@dataclass(frozen=True, eq=False)
class HTangent:
    """A tangent vector: ``w`` with ``<base, w> = 0``."""

    base: HPoint
    w: np.ndarray

    def __post_init__(self):
        w = _as_mink(self.w)
        object.__setattr__(self, "w", w)
        scale = max(1.0, float(np.linalg.norm(self.base.v) * np.linalg.norm(w)))
        if abs(mink_inner(self.base.v, w)) > MODEL_TOL * scale:
            raise GeometryError("vector is not tangent at its base point")

    @property
    def norm_sq(self) -> float:
        return mink_inner(self.w, self.w)

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq, 0.0)))

    def normalized(self) -> "HTangent":
        n = self.norm
        if n == 0.0:
            raise GeometryError("cannot normalize the zero tangent vector")
        return HTangent(self.base, self.w / n)

    def __neg__(self) -> "HTangent":
        return HTangent(self.base, -self.w)

    def __repr__(self):
        return f"HTangent(base0={self.base.v[0]:.4g}, w={np.array2string(self.w, precision=6)})"


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """An ideal point: a future null ray, stored with ``n0 = 1`` exactly."""

    n: np.ndarray

    def __post_init__(self):
        a = np.array(self.n, dtype=float)
        if a.shape != (4,) or not np.all(np.isfinite(a)):
            raise GeometryError("boundary point needs 4 finite components")
        if a[0] <= 0.0:
            raise GeometryError("boundary ray must be future pointing")
        if abs(mink_inner(a, a)) > MODEL_TOL * _scale_sq(a):
            raise GeometryError("boundary ray is not null")
        a = a / a[0]
        a[0] = 1.0
        a.flags.writeable = False
        object.__setattr__(self, "n", a)

    def __repr__(self):
        return f"BoundaryPoint({np.array2string(self.n, precision=6)})"


ORIGIN = HPoint((1.0, 0.0, 0.0, 0.0))


def same_point(p: HPoint, q: HPoint, tol: float = 1e-9) -> bool:
    return bool(np.max(np.abs(p.v - q.v)) <= tol * max(1.0, float(np.max(np.abs(p.v)))))


def same_ray(a: BoundaryPoint, b: BoundaryPoint) -> bool:
    """Whether two ideal points coincide to ``1e-9`` (rays are stored normalized)."""
    return bool(np.max(np.abs(a.n - b.n)) <= 1e-9)


def project_to_hyperboloid(arr: np.ndarray) -> HPoint:
    """Rescale a timelike future vector onto the hyperboloid."""
    q = -mink_inner(arr, arr)
    if q <= 0.0:
        raise GeometryError("vector is not timelike")
    v = np.asarray(arr, dtype=float) / np.sqrt(q)
    if v[0] <= 0.0:
        raise GeometryError("vector is past pointing")
    return HPoint(v)


def project_to_tangent(p: HPoint, arr: np.ndarray) -> HTangent:
    """Minkowski-orthogonal projection of an ambient vector onto T_p."""
    a = np.asarray(arr, dtype=float)
    return HTangent(p, a + mink_inner(a, p.v) * p.v)


def orthonormal_complement(rows) -> tuple[np.ndarray, ...]:
    """The spacelike unit vectors completing Minkowski-orthonormal ``rows``,
    timelike row first, to a positively oriented orthonormal basis of R^{3,1}.

    Pivoted Gram-Schmidt over the coordinate axes: each step keeps the axis
    whose residual against the basis so far is longest, and projects it
    twice.  For orthonormal rows that residual has squared norm at least
    1/4 (the squared Euclidean norms of a unit spacelike basis of the
    complement sum to at least its dimension), so a shorter one means the
    rows do not span a nondegenerate subspace.  The orientation is fixed by
    the sign of the last vector.  At the base point the frame is exactly
    ``(e1, e2, e3)``.
    """
    rows = np.array(rows, dtype=float).reshape(-1, 4)
    first = len(rows)
    basis = np.zeros((4, 4))
    basis[:first] = rows
    signs = ETA.diagonal()  # <b_i, b_i> of the finished basis
    for k in range(first, 4):
        b = basis[:k]
        # row i of ``dual`` pairs with x to its b_i coefficient, <x, b_i> / <b_i, b_i>
        dual = signs[:k, None] * b @ ETA
        residual = np.eye(4) - dual.T @ b
        w = residual[int(np.argmax((residual * residual) @ signs))]
        w = w - (dual @ w) @ b
        n2 = mink_inner(w, w)
        if not n2 > 0.125:
            raise GeometryError("could not complete the orthonormal frame")
        basis[k] = w / np.sqrt(n2)
    if np.linalg.det(basis) < 0.0:
        basis[3] = -basis[3]
    return tuple(basis[first:])


#: Hygiene renormalization is applied only below this component magnitude.
#: Closed-form results are accurate to relative rounding at any scale, but
#: renormalizing against an inner product of large components injects its
#: cancellation error (of order scale^2 * eps), so far from the base point
#: the raw values are strictly better.
_HYGIENE_CAP = 8.0


def _finish_point(arr: np.ndarray) -> HPoint:
    if float(np.max(np.abs(arr))) < _HYGIENE_CAP:
        q = -mink_inner(arr, arr)
        if q > 0.0:
            arr = arr / np.sqrt(q)
    return HPoint(arr)


def _finish_tangent(p: HPoint, arr: np.ndarray) -> HTangent:
    if float(np.max(np.abs(arr))) < _HYGIENE_CAP and float(np.max(np.abs(p.v))) < _HYGIENE_CAP:
        arr = arr + mink_inner(arr, p.v) * p.v
    return HTangent(p, arr)


def _unitize(t: HTangent) -> HTangent:
    """Normalize a mathematically-unit tangent only where well conditioned."""
    if float(np.max(np.abs(t.w))) < _HYGIENE_CAP:
        n2 = mink_inner(t.w, t.w)
        if n2 > 0.0:
            return HTangent(t.base, t.w / np.sqrt(n2))
    return t


def exp_map(t: HTangent) -> HPoint:
    """Geodesic exponential: ``cosh|w| p + sinh|w| w/|w|`` (``p`` for ``w = 0``)."""
    r = t.norm
    if r == 0.0:
        return t.base
    arr = np.cosh(r) * t.base.v + (np.sinh(r) / r) * t.w
    return _finish_point(arr)


def cosh_sinhc(x):
    """``cosh(sqrt x)`` and ``sinh(sqrt x) / sqrt x`` for an array of squared
    lengths ``x``: the coefficients of the exponential map.  Both are entire
    functions of ``x``, evaluated from their Taylor series near 0, so complex
    steps pass through them."""
    x = np.asarray(x)
    small = np.abs(x) < 1e-3
    r = np.sqrt(np.where(small, 1.0, x))
    ch = np.where(small, 1.0 + x / 2.0 * (1.0 + x / 12.0 * (1.0 + x / 30.0 * (1.0 + x / 56.0))), np.cosh(r))
    sc = np.where(small, 1.0 + x / 6.0 * (1.0 + x / 20.0 * (1.0 + x / 42.0 * (1.0 + x / 72.0))), np.sinh(r) / r)
    return ch, sc


def log_map(p: HPoint, q: HPoint) -> HTangent:
    """Inverse of exp_map; well defined everywhere (no cut locus).

    Computed from the tangential projection of ``q`` at ``p``, whose norm is
    ``sinh(dist)``.  Using arcsinh avoids the cancellation that arccosh of
    the inner product suffers for nearby points.
    """
    u_raw = q.v + mink_inner(p.v, q.v) * p.v
    s = np.sqrt(max(mink_inner(u_raw, u_raw), 0.0))
    if s == 0.0:
        return HTangent(p, np.zeros(4))
    d = np.arcsinh(s)
    return HTangent(p, (d / s) * u_raw)


def dist(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance, ``cosh(dist) = -<p, q>``.

    Near-coincident points go through the arcsinh of the tangential
    projection, which does not suffer the arccosh cancellation at 1.
    """
    c = -mink_inner(p.v, q.v)
    if c < 1.5:
        u = q.v + mink_inner(p.v, q.v) * p.v
        return float(np.arcsinh(np.sqrt(max(mink_inner(u, u), 0.0))))
    return float(np.arccosh(c))


def transport_along(direction: HTangent, s: float, t: HTangent) -> HTangent:
    """Parallel transport of ``t`` by arc length ``s`` along the geodesic
    with unit initial velocity ``direction``.

    Components orthogonal to the geodesic's 2-plane are untouched; the
    component along the velocity follows the velocity.
    """
    _require_unit(direction, "transport direction")
    if not same_point(direction.base, t.base):
        raise BaseMismatchError("transported vector is not based at the geodesic start")
    p = direction.base.v
    d = direction.w
    c = mink_inner(t.w, d)
    new_point = _finish_point(np.cosh(s) * p + np.sinh(s) * d)
    w = t.w + c * (np.sinh(s) * p + (np.cosh(s) - 1.0) * d)
    return _finish_tangent(new_point, w)


def transport_to(t: HTangent, target: HPoint) -> HTangent:
    """Parallel transport along the unique geodesic joining ``t.base`` to ``target``."""
    if same_point(t.base, target, tol=1e-15):
        return _finish_tangent(target, t.w)
    u = log_map(t.base, target)
    r = u.norm
    moved = transport_along(HTangent(t.base, u.w / r), r, t)
    return _finish_tangent(target, moved.w)


def cross(p: HPoint, a: HTangent, b: HTangent) -> HTangent:
    """Oriented cross product on T_p, fixed by ``cross(o, e1, e2) = e3``.

    The result ``c`` is the unique vector with ``<c, x> = det[p, a, b, x]``
    for all ``x``; it is automatically tangent at ``p``, orthogonal to both
    arguments, and satisfies ``|a x b|^2 = |a|^2 |b|^2 - <a, b>^2``.
    """
    if not (same_point(a.base, p) and same_point(b.base, p)):
        raise BaseMismatchError("cross product arguments must be tangent at the same point")
    rows = np.vstack((p.v, a.w, b.w))
    d = [float(np.linalg.det(np.delete(rows, k, axis=1))) for k in range(4)]
    c = np.array([d[0], d[1], -d[2], d[3]])
    return project_to_tangent(p, c)


# ---------------------------------------------------------------------------
# model conversions


def to_half_space(p: HPoint) -> np.ndarray:
    """Upper half-space coordinates (x, y, z), z > 0."""
    denom = p.v[0] - p.v[3]
    return np.array([p.v[1] / denom, p.v[2] / denom, 1.0 / denom])


def from_half_space(x: float, y: float, z: float) -> HPoint:
    if z <= 0.0:
        raise GeometryError("half-space points need z > 0")
    s = x * x + y * y + z * z
    arr = np.array([(1.0 + s) / (2.0 * z), x / z, y / z, (s - 1.0) / (2.0 * z)])
    return _finish_point(arr)


def to_ball(p: HPoint) -> np.ndarray:
    """Poincare ball coordinates, Euclidean norm < 1."""
    return np.asarray(p.v[1:] / (1.0 + p.v[0]))


def from_ball(u) -> HPoint:
    u = np.asarray(u, dtype=float)
    n2 = float(np.dot(u, u))
    if n2 >= 1.0:
        raise GeometryError("ball points need Euclidean norm < 1")
    arr = np.concatenate(([1.0 + n2], 2.0 * u)) / (1.0 - n2)
    return _finish_point(arr)


_MODEL_MAPS = {"half_space": to_half_space, "ball": to_ball}


def convert_model(p: HPoint, target: str) -> np.ndarray:
    """Coordinates of ``p`` in the requested model ("half_space" or "ball")."""
    try:
        return _MODEL_MAPS[target](p)
    except KeyError:
        raise GeometryError(f"unknown model {target!r}") from None


# ---------------------------------------------------------------------------
# ideal boundary


def sphere_coords(b: BoundaryPoint) -> np.ndarray:
    """Chart of the ideal boundary on the unit 2-sphere: ``n ~ o + u``."""
    u = np.asarray(b.n[1:], dtype=float)
    return u / np.linalg.norm(u)


def boundary_from_sphere(u) -> BoundaryPoint:
    """Inverse of sphere_coords."""
    u = np.asarray(u, dtype=float)
    n = np.linalg.norm(u)
    if n == 0.0:
        raise GeometryError("direction must be nonzero")
    return BoundaryPoint(np.concatenate(([1.0], u / n)))
