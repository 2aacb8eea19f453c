"""Shared random generators, independent numerical oracles and a chart-evaluation counter."""

import dataclasses

import numpy as np

import hypfol as hf
from hypfol import (
    ORIGIN,
    HPoint,
    HTangent,
    JacobiData,
    OrientedGeodesic,
    exp_map,
    make_geodesic,
    project_to_tangent,
)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def counting_chart(chart, calls: list):
    """The chart with ``arrays`` wrapped to append the number of parameter
    pairs of every evaluation to ``calls``.  Its ``map`` is rederived from the
    wrapped arrays, so a scalar evaluation counts as one call of size 1."""

    def counted(a, b):
        calls.append(len(a))
        return chart.arrays(a, b)

    return dataclasses.replace(chart, arrays=counted, map=None)


def collapsed_chart(chart):
    """The chart with its second parameter frozen at 0: a rank-deficient family."""
    return hf.FoliationChart(arrays=lambda a, b: chart.arrays(a, 0.0 * b), domain=chart.domain, name="collapsed")


def frame_coords(*jds, s=0.0):
    """Coordinates ``(J1, J2, J1', J2')`` of J(s) and J'(s), one row per datum, in
    the parallel frame ``orthonormal_complement((foot, dir))`` of the first
    datum's geodesic; tangential components drop out.  An oracle for the
    frame-free pairings of ``hypfol.geodesics``."""
    g = jds[0].geo
    frame = ETA @ np.column_stack(hf.orthonormal_complement((g.foot.v, g.dir.w)))
    a = np.array([x.j0.w for x in jds]) @ frame
    b = np.array([x.j0p.w for x in jds]) @ frame
    ch, sh = np.cosh(s), np.sinh(s)
    return np.hstack((ch * a + sh * b, sh * a + ch * b))


#: the cross metric on frame coordinates: the polarization of
#: ``<velocity x J, J'> = J1 J2' - J2 J1'`` in the right-handed parallel frame
CROSS_FORM = 0.5 * np.array(
    [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
)
#: the Killing metric on frame coordinates: ``|J|^2 - |J'|^2``
KILLING_FORM = np.diag([1.0, 1.0, -1.0, -1.0])


def minner(a, b):
    """Independent Minkowski pairing for oracle code."""
    return float(a @ ETA @ b)


def rand_point(rng, scale=1.0) -> HPoint:
    w = np.concatenate([[0.0], scale * rng.standard_normal(3)])
    return exp_map(HTangent(ORIGIN, w))


def rand_unit_tangent(rng, p: HPoint) -> HTangent:
    while True:
        t = project_to_tangent(p, rng.standard_normal(4))
        if t.norm > 1e-6:
            return t.normalized()


def rand_geodesic(rng, scale=1.0) -> OrientedGeodesic:
    p = rand_point(rng, scale=scale)
    return make_geodesic(p, rand_unit_tangent(rng, p))


def perp_component(g: OrientedGeodesic, arr) -> np.ndarray:
    """Tangential-at-foot, orthogonal-to-direction part of an ambient vector."""
    w = project_to_tangent(g.foot, np.asarray(arr, dtype=float)).w
    return w - minner(w, g.dir.w) * g.dir.w


def rand_jacobi(rng, g: OrientedGeodesic, scale=1.0) -> JacobiData:
    j0 = perp_component(g, scale * rng.standard_normal(4))
    j0p = perp_component(g, scale * rng.standard_normal(4))
    return JacobiData(g, HTangent(g.foot, j0), HTangent(g.foot, j0p))


def jacobi_basis(g: OrientedGeodesic) -> list[JacobiData]:
    """A 4-dimensional basis of orthogonal Jacobi data along ``g``."""
    raw = [perp_component(g, e) for e in np.eye(4)]
    frame = []
    for w in raw:
        for f in frame:
            w = w - minner(w, f) * f
        n = np.sqrt(max(minner(w, w), 0.0))
        if n > 1e-8:
            frame.append(w / n)
    assert len(frame) == 2
    e1, e2 = frame
    zero = np.zeros(4)
    return [
        JacobiData(g, HTangent(g.foot, a), HTangent(g.foot, b))
        for a, b in ((e1, zero), (e2, zero), (zero, e1), (zero, e2))
    ]


def rk4_jacobi(g: OrientedGeodesic, j0, j0p, s_end, n_steps=1500):
    """Fourth-order integration of the Jacobi system in ambient coordinates.

    Independent of the closed-form evaluation: only the geodesic curve
    itself (cosh/sinh mixing of foot and direction) is shared knowledge.
    The ambient system embeds the covariant one via the hyperboloid's
    second fundamental form.
    """
    f, d = g.foot.v, g.dir.w

    def rhs(s, y):
        J, A = y[:4], y[4:]
        gamma = np.cosh(s) * f + np.sinh(s) * d
        vel = np.sinh(s) * f + np.cosh(s) * d
        jdot = A + minner(J, vel) * gamma
        adot = (J - minner(J, vel) * vel) + minner(A, vel) * gamma
        return np.concatenate([jdot, adot])

    y = np.concatenate([np.asarray(j0, float), np.asarray(j0p, float)])
    s = 0.0
    h = s_end / n_steps
    for _ in range(n_steps):
        k1 = rhs(s, y)
        k2 = rhs(s + h / 2, y + h / 2 * k1)
        k3 = rhs(s + h / 2, y + h / 2 * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
    return y[:4], y[4:]
