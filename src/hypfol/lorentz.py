"""Minkowski R^{3,1} linear algebra and the hyperboloid model of hyperbolic 3-space.

The ambient bilinear form is ``<x, y> = -x0*y0 + x1*y1 + x2*y2 + x3*y3``.
Hyperbolic space is the upper hyperboloid sheet ``{<x, x> = -1, x0 > 0}``;
the tangent space at ``p`` is the Minkowski-orthogonal complement of ``p``.
Geodesics, distances and the ideal boundary all have closed forms in this
model, so nothing downstream needs numerical integration.

Conventions fixed here and used everywhere else:

* base point ``ORIGIN = (1, 0, 0, 0)``;
* orientation: ``(e1, e2, e3)`` is a positively oriented frame at the base
  point, so ``det[o, e1, e2, e3] = 1``;
* ideal boundary points are future null rays; they correspond to unit
  vectors ``u`` at the base point via ``n ~ o + u``, the sphere coordinates
  that ``geodesics.endpoint_images`` gives for the endpoints of leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

#: Relative tolerance of the model's invariants (``model_checks``): each is
#: scaled by the squared Euclidean size of its data, so that large-coordinate
#: points far from the base are not rejected for plain roundoff.
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


def mink(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Minkowski pairing over the last axis of arrays of 4-vectors,
    broadcasting the others; complex-safe (no conjugation)."""
    p = x * y
    return p[..., 1] + p[..., 2] + p[..., 3] - p[..., 0]


def mink_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Minkowski pairing of signature (3,1)."""
    return float(mink(a, b))


def _size_and_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Euclidean norms and ``mink(x, x)`` of 4-vectors, from one set of squares."""
    p = x * x
    time, spatial = p[..., 0], p[..., 1] + p[..., 2] + p[..., 3]
    return spatial + time, spatial - time


def model_checks(points: np.ndarray, vectors: np.ndarray | None = None) -> list[tuple[str, np.ndarray]]:
    """The hyperboloid model's invariants on arrays of 4-vectors, as ``(message,
    ok)`` pairs in check order: finite squares, ``points`` on the unit
    hyperboloid and its future sheet, and given ``vectors``, each tangent at its
    point and unit.  Each holds to ``MODEL_TOL`` of the squared Euclidean size
    of its data (``|p| |v|`` for tangency), at least 1."""
    with np.errstate(all="ignore"):
        ps, pp = _size_and_square(points)
        finite = np.isfinite(ps)
        checks = [
            ("point is not on the unit hyperboloid", np.abs(pp + 1.0) <= MODEL_TOL * np.maximum(1.0, ps)),
            ("point is on the past sheet", points[..., 0] > 0.0),
        ]
        if vectors is not None:
            vs, vv = _size_and_square(vectors)
            finite &= np.isfinite(vs)
            size = np.maximum(1.0, np.sqrt(ps) * np.sqrt(vs))
            checks += [
                ("vector is not tangent at its base point", np.abs(mink(points, vectors)) <= MODEL_TOL * size),
                ("direction must be a unit vector", np.abs(vv - 1.0) <= MODEL_TOL * np.maximum(1.0, vs)),
            ]
    return [("non-finite squares", finite), *checks]


def _require(checks) -> None:
    """Raise ``GeometryError`` with the message of the first failing check."""
    for message, ok in checks:
        if not ok:
            raise GeometryError(message)


def _require_unit(t: HTangent, name: str) -> None:
    """The unit check of ``model_checks`` on a tangent."""
    if not model_checks(t.base.v, t.w)[-1][1]:
        raise GeometryError(f"{name} must be a unit vector")


@dataclass(frozen=True, eq=False)
class HPoint:
    """A point of hyperbolic 3-space: ``<v, v> = -1`` with ``v0 > 0``."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _as_mink(self.v))
        _require(model_checks(self.v))

    def __repr__(self):
        return f"HPoint({np.array2string(self.v, precision=6)})"


@dataclass(frozen=True, eq=False)
class HTangent:
    """A tangent vector: ``w`` with ``<base, w> = 0``."""

    base: HPoint
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _as_mink(self.w))
        _require(model_checks(self.base.v, self.w)[:-1])

    def __repr__(self):
        return f"HTangent(base0={self.base.v[0]:.4g}, w={np.array2string(self.w, precision=6)})"


ORIGIN = HPoint((1.0, 0.0, 0.0, 0.0))


def same_point(p: HPoint, q: HPoint) -> bool:
    """Whether two points coincide to ``1e-9`` relative to the first one's largest component."""
    return bool(np.max(np.abs(p.v - q.v)) <= 1e-9 * max(1.0, float(np.max(np.abs(p.v)))))


def orthonormal_complement(rows) -> np.ndarray:
    """The spacelike unit vectors completing Minkowski-orthonormal ``rows``,
    timelike row first, to a positively oriented orthonormal basis of R^{3,1}:
    a ``(4 - k, 4)`` array for ``(k, 4)`` rows (a single vector counts as one
    row), and a ``(N, 4 - k, 4)`` stack for an ``(N, k, 4)`` stack of rows.

    Pivoted Gram-Schmidt over the coordinate axes: each step keeps the axis
    whose residual against the basis so far is longest, and projects it
    twice.  For orthonormal rows that residual has squared norm at least
    1/4 (the squared Euclidean norms of a unit spacelike basis of the
    complement sum to at least its dimension), so a shorter one means the
    rows do not span a nondegenerate subspace.  That raises, as does a basis
    whose Gram matrix misses ``ETA`` by over 1e-12 of its largest squared row
    norm (some rows from distance 13).  The orientation is fixed by the sign
    of the last vector.  At the base point the frame is exactly ``(e1, e2, e3)``.
    """
    rows = np.array(rows, dtype=float)
    stack = rows if rows.ndim == 3 else rows.reshape(1, -1, 4)
    count, first = stack.shape[:2]
    basis = np.zeros((count, 4, 4))
    basis[:, :first] = stack
    signs = ETA.diagonal()  # <b_i, b_i> of the finished basis
    for k in range(first, 4):
        b = basis[:, :k]
        # row i of ``dual`` pairs with x to its b_i coefficient, <x, b_i> / <b_i, b_i>
        dual = signs[:k, None] * b @ ETA
        residual = np.eye(4) - dual.swapaxes(1, 2) @ b
        w = residual[np.arange(count), np.argmax((residual * residual) @ signs, axis=1)]
        w = w - ((dual @ w[:, :, None]).swapaxes(1, 2) @ b)[:, 0]
        n2 = mink(w, w)
        if not (n2 > 0.125).all():
            raise GeometryError(f"could not complete the orthonormal frame of row {int(np.argmin(n2 > 0.125))}")
        basis[:, k] = w / np.sqrt(n2)[:, None]
    error = np.max(np.abs((basis * signs) @ basis.swapaxes(1, 2) - ETA), axis=(1, 2))
    if not (ok := error <= 1e-12 * np.max(np.sum(basis * basis, axis=2), axis=1)).all():
        raise GeometryError(f"could not complete the orthonormal frame of row {int(np.argmin(ok))} accurately")
    basis[np.linalg.det(basis) < 0.0, 3] *= -1.0
    return basis[:, first:] if rows.ndim == 3 else basis[0, first:]


#: Hygiene renormalization is applied only below this component magnitude.
#: Closed-form results are accurate to relative rounding at any scale, but
#: renormalizing against an inner product of large components injects its
#: cancellation error (of order scale^2 * eps), so far from the base point
#: the raw values are strictly better.
_HYGIENE_CAP = 8.0


def _rescaled(x: np.ndarray, sign: float) -> np.ndarray:
    """The hygiene rule: 4-vectors, or ``(N, 4)`` rows of them, rescaled to
    ``sign <x, x> = 1`` where that is well conditioned (components below
    ``_HYGIENE_CAP`` and ``sign <x, x> > 0``), the others as they are."""
    with np.errstate(all="ignore"):
        q = sign * mink(x, x)
        fix = (np.max(np.abs(x), axis=-1) < _HYGIENE_CAP) & (q > 0.0)
        return np.where(fix[..., None], x / np.sqrt(np.where(fix, q, 1.0))[..., None], x)


def _finish_point(arr: np.ndarray) -> HPoint:
    return HPoint(_rescaled(arr, -1.0))


def _finish_tangent(p: HPoint, arr: np.ndarray) -> HTangent:
    if float(np.max(np.abs(arr))) < _HYGIENE_CAP and float(np.max(np.abs(p.v))) < _HYGIENE_CAP:
        arr = arr + mink_inner(arr, p.v) * p.v
    return HTangent(p, arr)


def _unitize(t: HTangent) -> HTangent:
    """Normalize a mathematically-unit tangent only where well conditioned."""
    return HTangent(t.base, _rescaled(t.w, 1.0))


def cosh_sinhc(x):
    """``cosh(sqrt x)`` and ``sinh(sqrt x) / sqrt x`` for an array of squared
    lengths ``x``: the coefficients of the exponential map.  Both are entire
    functions of ``x``, evaluated from their Taylor series where ``|x| <
    1e-3``, so complex steps pass through them; ``cosh`` and ``sinh`` are
    evaluated only on the other rows."""
    x = np.asarray(x)
    small = np.abs(x) < 1e-3
    if not small.any():
        r = np.sqrt(x)
        return np.cosh(r), np.sinh(r) / r
    # the series costs less than picking out the small rows
    ch = 1.0 + x / 2.0 * (1.0 + x / 12.0 * (1.0 + x / 30.0 * (1.0 + x / 56.0)))
    sc = 1.0 + x / 6.0 * (1.0 + x / 20.0 * (1.0 + x / 42.0 * (1.0 + x / 72.0)))
    if not small.all():
        large = ~small
        r = np.sqrt(x[large])
        ch[large], sc[large] = np.cosh(r), np.sinh(r) / r
    return ch, sc
