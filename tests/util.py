"""Shared random generators, independent numerical oracles (the oriented
cross product, frame coordinates, the transported-difference covariant
differential), reference CSV and report writers, the full-grid pitch scan
and a chart-evaluation counter."""

import csv
import dataclasses
import json
import math
import sys

import numpy as np

import hypfol as hf
from hypfol import (
    FD_STEP,
    ORIGIN,
    BaseMismatchError,
    GeometryError,
    HPoint,
    HTangent,
    JacobiData,
    OrientedGeodesic,
    exp_map,
    make_geodesic,
    mink_inner,
    orthonormal_complement,
    project_to_tangent,
    same_point,
    transport_to,
)
from hypfol.families import LAMBDA_SCAN_CAP, LambdaScan, SpiralParams, _margin, spiral_chart
from hypfol.foliation import grid_axes

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


def grid_params(chart, grid: tuple[int, int]) -> list[tuple[float, float]]:
    """``hf.grid_arrays`` as a list of ``(a, b)`` pairs."""
    a, b = hf.grid_arrays(chart, grid)
    return list(zip(a.tolist(), b.tolist()))


def reference_write_csv(path, header, rows):
    """The row-list CSV writer ``report.write_csv`` must match byte for byte:
    ``csv.writer`` over rows of cells, a float written as its ``repr``, an
    integer as an integer."""

    def cell(x):
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        if isinstance(x, (int, np.integer)):
            return int(x)
        return x

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(x) for x in row])


def reference_report_text(payload) -> str:
    """The text ``report.write_report`` must match byte for byte: every
    ``ClassificationReport`` in the payload as its object form, one dict per
    sample read from ``sample(k)``, and the whole payload through
    ``json.dumps(indent=2, sort_keys=True)``."""

    def sample_dict(s):
        return {
            "params": [s.params[0], s.params[1]],
            "gram": None if s.gram is None else [list(r) for r in s.gram],
            "k_values": list(s.k_values),
            "verdict": s.verdict,
            "note": s.note,
        }

    def encode(obj):
        if isinstance(obj, hf.ClassificationReport):
            return {
                "chart": obj.chart_name,
                "grid": list(obj.grid),
                "tol": obj.tol,
                "fd_step": FD_STEP,
                "aggregate": obj.aggregate,
                "samples": [sample_dict(obj.sample(k)) for k in range(len(obj.params))],
            }
        if isinstance(obj, (np.generic, np.ndarray)):
            return obj.tolist()
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")

    return json.dumps(payload, indent=2, sort_keys=True, default=encode) + "\n"


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


def cross(p: HPoint, a: HTangent, b: HTangent) -> HTangent:
    """Oriented cross product on T_p, fixed by ``cross(o, e1, e2) = e3``: the
    orientation oracle.

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


def _transported_difference(field, p: HPoint, w: np.ndarray) -> np.ndarray:
    """Central difference of the field along ``w`` at ``p``, both values
    parallel transported back to ``p`` first."""
    q_plus = exp_map(HTangent(p, FD_STEP * w))
    q_minus = exp_map(HTangent(p, -FD_STEP * w))
    w_plus = transport_to(field.func(q_plus), p)
    w_minus = transport_to(field.func(q_minus), p)
    return (w_plus.w - w_minus.w) / (2.0 * FD_STEP)


def reference_covariant_differential(field, p: HPoint) -> tuple[np.ndarray, list[HTangent]]:
    """Matrix of the covariant differential of the field in an orthonormal
    frame at ``p`` by transported central differences; column ``j`` holds
    the derivative along frame vector ``j``.  An independent check of the
    complex-step ``hypfol.covariant_differentials``, accurate to about
    ``FD_STEP^2``."""
    frame = [HTangent(p, e) for e in orthonormal_complement(p.v)]
    mat = np.empty((3, 3))
    for j, ej in enumerate(frame):
        col = _transported_difference(field, p, ej.w)
        for i, ei in enumerate(frame):
            mat[i, j] = mink_inner(col, ei.w)
    return mat, frame


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


# ---------------------------------------------------------------------------
# scalar references for the critical-point scan


def reference_grid_minima(values) -> list[tuple[int, int]]:
    """Row-major ``(i, j)`` of the cells no larger than any of their up to 8
    neighbors, one cell at a time."""
    n, m = values.shape
    out = []
    for i in range(n):
        for j in range(m):
            neighborhood = values[max(i - 1, 0) : min(i + 2, n), max(j - 1, 0) : min(j + 2, m)]
            if values[i, j] <= neighborhood.min():
                out.append((i, j))
    return out


def reference_descent(fun, a, b, step, bounds):
    """Coordinate descent of a scalar ``fun`` from one start: each sweep tries
    +a, -a, +b, -b clamped to ``bounds`` and moves to the first strictly
    smallest value below the current one, or else halves the step."""
    (a0, a1), (b0, b1) = bounds
    val = fun(a, b)
    evals = 0
    while step > 1e-12 and evals < 20000:
        best = None
        for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            na = min(max(a + da, a0), a1)
            nb = min(max(b + db, b0), b1)
            v = fun(na, nb)
            evals += 1
            if v < val and (best is None or v < best[2]):
                best = (na, nb, v)
        if best is None:
            step *= 0.5
        else:
            a, b, val = best
    return a, b, val


def reference_ring_growth(values) -> list[float]:
    """Ring minima of a grid, reduced one cell at a time into a dict keyed
    by ring index."""
    n, m = values.shape
    ci, cj = (n - 1) / 2.0, (m - 1) / 2.0
    rings: dict[int, float] = {}
    for i in range(n):
        for j in range(m):
            ring = int(max(abs(i - ci), abs(j - cj)) + 0.5)
            rings[ring] = min(rings.get(ring, np.inf), float(values[i, j]))
    return [rings[k] for k in sorted(rings)]


# ---------------------------------------------------------------------------
# the full-grid pitch scan


def reference_scan_lambda_max(
    alpha0: float = math.pi / 4.0,
    delta: float = 0.1,
    grid: tuple[int, int] = (200, 200),
) -> LambdaScan:
    """``families.scan_lambda_max`` evaluating the margin on the whole grid
    at every bisection step: the oracle of the row-bounded scan, which must
    give the same trace and ``lambda_max`` bit for bit."""
    params = SpiralParams(alpha0, LAMBDA_SCAN_CAP, delta)  # validates alpha0 and delta
    r, t = grid_axes(spiral_chart(params), grid)
    sinh_2r, t_minus_r = np.sinh(2.0 * r[:, None]), t - r[:, None]
    buffer = np.empty(t_minus_r.shape)

    trace: list[tuple[float, float]] = []

    def min_margin(lam: float) -> float:
        out = float(_margin(sinh_2r, t_minus_r, alpha0, lam, buffer).min())
        trace.append((lam, out))
        return out

    hi = LAMBDA_SCAN_CAP
    if min_margin(hi) > 0.0:
        return LambdaScan(hi, alpha0, delta, tuple(grid), tuple(trace))
    lo = 1e-12
    if min_margin(lo) <= 0.0:
        lo = min(lo, 0.5 * min(alpha0 / (3.0 + delta), (0.5 * math.pi - alpha0) / (2.0 * math.pi + delta - 1.0)))
        if min_margin(lo) <= 0.0:
            raise GeometryError("margin is not positive even for vanishing pitch")
    while hi - lo > 1e-12 * max(hi, 1.0) or hi - lo > 1e-9 * max(lo, sys.float_info.min):
        mid = 0.5 * (lo + hi)
        if min_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return LambdaScan(lo, alpha0, delta, tuple(grid), tuple(trace))
