"""Shared random generators, independent numerical oracles (the oriented
cross product, frame coordinates, the complex-step and the
transported-difference covariant differentials, the RK4 Jacobi integrator,
the ambient chart kernel and the Killing metric of Jacobi data), scalar
references (the exponential map, the distance, ball samples and the
eigenvector test one at a time, parallel transport, asymptote vectors,
closed-form Jacobi evaluation, the Jacobi-variation chart, one-sample
classification), the reference block classifier (every row's
eigenvectors, square norms by ``einsum``), the value-object helpers only
tests use (points along a geodesic, its reverse, tangent norms, unit
tangents, one field value, one classified sample, the polar frame of the
spiral's plane, the spiral's closed-form Gram and energy matrices), boost
matrices, reference CSV and report writers, the in-place spiral margin,
the full-grid pitch scan and a chart-evaluation counter."""

import csv
import dataclasses
import json
import math
import random
import sys

import numpy as np

import hypfol as hf
from hypfol import (
    FD_STEP,
    ORIGIN,
    VERDICT_TOL,
    VERDICTS,
    BaseMismatchError,
    FoliationChart,
    GeodesicMismatchError,
    GeometryError,
    HPoint,
    HTangent,
    JacobiData,
    NumericalError,
    OrientedGeodesic,
    chart_jets,
    make_geodesic,
    mink_inner,
    orthonormal_complement,
    same_geodesic,
    same_point,
)
from hypfol.families import _E3, LAMBDA_SCAN_CAP, LambdaScan, SpiralParams, spiral_chart
from hypfol.foliation import _FLAT_DIRECTIONS, RANK_DEFICIENT, _field_steps, grid_axes
from hypfol.geodesics import asymptote_directions
from hypfol.lorentz import _finish_point, _finish_tangent, _require_unit, _unitize, mink

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


class NonOrthogonalJacobiError(GeometryError):
    """The operation requires Jacobi data orthogonal to the geodesic direction."""


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


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """``json.loads`` that raises on ``NaN``, ``Infinity`` and ``-Infinity``,
    which Python's parser admits and strict JSON does not."""
    return json.loads(text, parse_constant=_no_constant)


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
    sample read by ``sample``, and the whole payload through
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
                "samples": [sample_dict(sample(obj, k)) for k in range(len(obj.params))],
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
    w_plus = transport_to(field_value(field, q_plus), p)
    w_minus = transport_to(field_value(field, q_minus), p)
    return (w_plus.w - w_minus.w) / (2.0 * FD_STEP)


def covariant_differentials(field, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariant differentials of the field at ``(N, 4)`` points, from the
    one field call of ``_field_steps``.

    Returns the ``(N, 3, 3)`` matrices, whose column ``j`` holds the
    derivative along ``e_j`` in the frame, the ``(N, 3, 4)`` frames and the
    ``(N, 4)`` field values.  The Levi-Civita derivative on the hyperboloid
    is the tangential part of the ambient one, and the frame spans the
    tangent space, so pairing the ambient derivative with the frame reads it
    exactly.
    """
    frames, values, derivatives = _field_steps(field, np.asarray(points, dtype=float).reshape(-1, 4))
    return mink(frames[:, :, None], derivatives[:, None]), frames, values


def reference_covariant_differential(field, p: HPoint) -> tuple[np.ndarray, list[HTangent]]:
    """Matrix of the covariant differential of the field in an orthonormal
    frame at ``p`` by transported central differences; column ``j`` holds
    the derivative along frame vector ``j``.  An independent check of the
    complex-step ``covariant_differentials``, accurate to about
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
        if norm(t) > 1e-6:
            return normalized(t)


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


def rk4_jacobi(data: list[JacobiData], s_end, n_steps=1500) -> tuple[np.ndarray, np.ndarray]:
    """Fourth-order integration of the Jacobi system in ambient coordinates,
    all rows at once: ``J(s_end[k])`` and ``J'(s_end[k])`` of ``data[k]`` as
    two ``(N, 4)`` arrays, row ``k`` taking ``n_steps`` steps of
    ``s_end[k] / n_steps``.

    Independent of the closed-form evaluation: only the geodesic curve
    itself (cosh/sinh mixing of foot and direction) is shared knowledge.
    The ambient system embeds the covariant one via the hyperboloid's
    second fundamental form.
    """
    f = np.array([x.geo.foot.v for x in data])
    d = np.array([x.geo.dir.w for x in data])

    def pair(a, b):  # ``minner`` row by row
        return np.vecdot(a @ ETA, b)[:, None]

    def rhs(s, y):
        J, A = y[:, :4], y[:, 4:]
        gamma = np.cosh(s) * f + np.sinh(s) * d
        vel = np.sinh(s) * f + np.cosh(s) * d
        jdot = A + pair(J, vel) * gamma
        adot = (J - pair(J, vel) * vel) + pair(A, vel) * gamma
        return np.hstack([jdot, adot])

    y = np.array([np.concatenate([x.j0.w, x.j0p.w]) for x in data])
    s = np.zeros((len(data), 1))
    h = np.asarray(s_end, dtype=float).reshape(-1, 1) / n_steps
    for _ in range(n_steps):
        k1 = rhs(s, y)
        k2 = rhs(s + h / 2, y + h / 2 * k1)
        k3 = rhs(s + h / 2, y + h / 2 * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
    return y[:, :4], y[:, 4:]


# ---------------------------------------------------------------------------
# value-object helpers only tests use


def eval_geodesic(g: OrientedGeodesic, s: float) -> tuple[HPoint, HTangent]:
    """Point and unit velocity at arc length ``s`` from the foot."""
    pt = _finish_point(np.cosh(s) * g.foot.v + np.sinh(s) * g.dir.w)
    vel = _finish_tangent(pt, np.sinh(s) * g.foot.v + np.cosh(s) * g.dir.w)
    return pt, _unitize(vel)


def reverse(g: OrientedGeodesic) -> OrientedGeodesic:
    """Same trajectory with the opposite orientation (same footpoint)."""
    return OrientedGeodesic(g.foot, HTangent(g.foot, -g.dir.w))


def boost_matrix(direction, distance):
    """The boost of length ``distance`` along a spatial direction."""
    v = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    ch, sh = math.cosh(distance), math.sinh(distance)
    boost = np.eye(4)
    boost[0, 0], boost[0, 1:], boost[1:, 0] = ch, sh * v, sh * v
    boost[1:, 1:] += (ch - 1.0) * np.outer(v, v)
    return boost


def norm_sq(t: HTangent) -> float:
    return mink_inner(t.w, t.w)


def norm(t: HTangent) -> float:
    return float(np.sqrt(max(norm_sq(t), 0.0)))


def normalized(t: HTangent) -> HTangent:
    n = norm(t)
    if n == 0.0:
        raise GeometryError("cannot normalize the zero tangent vector")
    return HTangent(t.base, t.w / n)


def field_value(field, p: HPoint) -> HTangent:
    """The value of a field (an array map) at one point as a validated ``HTangent``."""
    return HTangent(p, field(p.v[None])[0])


@dataclasses.dataclass(frozen=True)
class SampleRecord:
    """One classified sample: parameters, Gram matrix of the cross metric on
    normalized tangents, Killing values on its null directions."""

    params: tuple[float, float]
    gram: tuple[tuple[float, float], tuple[float, float]] | None
    k_values: tuple[float, ...]
    verdict: str | None
    note: str | None = None


def sample(rep, k: int) -> SampleRecord:
    """Sample ``k`` of a ``ClassificationReport`` as a record."""
    params = tuple(rep.params[k].tolist())
    code = int(rep.verdict_code[k])
    if code < 0:
        return SampleRecord(params, None, (), None, note=RANK_DEFICIENT)
    kv = rep.k_values[k, : rep.k_count[k]].tolist()
    return SampleRecord(params, tuple(map(tuple, rep.gram[k].tolist())), tuple(kv), VERDICTS[code])


@dataclasses.dataclass(frozen=True, eq=False)
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


def cross_form_matrix(r: float, t: float, params: SpiralParams) -> np.ndarray:
    """Closed form of the cross metric of the spiral chart on its raw tangents.

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


def energy_form_matrix(r: float, t: float, params: SpiralParams) -> np.ndarray:
    """Closed form of the energy ``|J|^2 + |J'|^2`` of the spiral chart on its
    raw tangents.

    With tilt ``alpha`` the leaf runs along ``cos alpha angular + sin alpha
    normal``.  Along ``r`` the tangent is ``J = radial``, ``J' = lam u``, and
    along ``t`` it is ``J = sinh r sin alpha u``, ``J' = -cosh r cos alpha
    radial - lam u``, with ``u = sin alpha angular - cos alpha normal``.
    """
    lam, alpha = params.lam, params.tilt(r, t)
    along_t = (math.sinh(r) * math.sin(alpha)) ** 2 + (math.cosh(r) * math.cos(alpha)) ** 2 + lam * lam
    return np.array([[1.0 + lam * lam, -lam * lam], [-lam * lam, along_t]])


# ---------------------------------------------------------------------------
# ambient references for the endpoint-form kernel


def is_orthogonal(x: JacobiData) -> bool:
    """Whether both vectors of Jacobi data are orthogonal to the direction,
    at ``1e-9`` of their size: membership in the tangent space of the
    geodesic space."""
    d = x.geo.dir.w
    s0 = max(1.0, float(np.linalg.norm(x.j0.w)))
    s1 = max(1.0, float(np.linalg.norm(x.j0p.w)))
    return abs(mink_inner(x.j0.w, d)) <= 1e-9 * s0 and abs(mink_inner(x.j0p.w, d)) <= 1e-9 * s1


def killing_metric(x: JacobiData, y: JacobiData | None = None, s: float = 0.0) -> float:
    """Killing-form metric ``<Jx, Jy> - <Jx', Jy'>`` evaluated at arc length ``s``.

    Requires data orthogonal to the direction; the value does not depend on
    ``s``.  With ``J+- = J +- J'``, which scale by ``e^+-s`` along the leaf,
    it reads ``(<Jx+, Jy-> + <Jy+, Jx->) / 2``.
    """
    if y is None:
        y = x
    elif not same_geodesic(x.geo, y.geo):
        raise GeodesicMismatchError("Jacobi data lives on different geodesics")
    if not (is_orthogonal(x) and is_orthogonal(y)):
        raise NonOrthogonalJacobiError("the Killing metric needs data orthogonal to the direction")
    (xp, xm), (yp, ym) = ((np.exp(s) * (z.j0.w + z.j0p.w), np.exp(-s) * (z.j0.w - z.j0p.w)) for z in (x, y))
    return 0.5 * (minner(xp, ym) + minner(yp, xm))


def ambient_tangents(chart, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Leaves and both axis tangents of a chart as ambient Jacobi data in
    endpoint form: ``(foot, dir, plus, minus)``, where ``plus`` and
    ``minus`` ``(2, N, 4)`` are ``J + J'`` and ``J - J'`` along ``a`` (row
    0) and ``b`` (row 1), the parts of the complex-step derivatives of
    ``foot +- dir`` normal to the leaf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    foot, direction = chart.arrays(a, b)
    steps = [chart.arrays(a + 1j * hf.CS_STEP, b), chart.arrays(a, b + 1j * hf.CS_STEP)]
    df = np.stack([np.imag(f) / hf.CS_STEP for f, _ in steps])
    dd = np.stack([np.imag(d) / hf.CS_STEP for _, d in steps])

    def normal(u):
        return u + mink(u, foot)[..., None] * foot - mink(u, direction)[..., None] * direction

    return foot, direction, normal(df + dd), normal(df - dd)


def ambient_forms(chart, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(N, 2, 2)`` cross, Killing and energy Gram matrices of the raw
    axis tangents from ``ambient_tangents``: the cross metric from
    determinants, ``(det[foot, dir, x-, y+] + det[foot, dir, y-, x+]) / 4``,
    the Killing metric ``(<x+, y-> + <y+, x->) / 2`` and the energy
    ``(<x+, y+> + <x-, y->) / 2`` from Minkowski pairings."""
    foot, direction, p, m = ambient_tangents(chart, a, b)

    def det(u, v):
        return np.linalg.det(np.stack((foot, direction, u, v), axis=-2))

    forms = (
        lambda i, j: 0.25 * (det(m[i], p[j]) + det(m[j], p[i])),
        lambda i, j: 0.5 * (mink(p[i], m[j]) + mink(p[j], m[i])),
        lambda i, j: 0.5 * (mink(p[i], p[j]) + mink(m[i], m[j])),
    )
    return tuple(np.array([[f(i, j) for j in (0, 1)] for i in (0, 1)]).transpose(2, 0, 1) for f in forms)


def initial_value_rank(chart, params) -> int:
    """Rank of the map from the unit-energy chart tangents at one sample to
    their values ``J(0)``, read in the parallel frame from the
    finite-difference tangents; a zero tangent stays zero."""
    z = frame_coords(*hf.chart_tangent(chart, params))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0.0)
    return hf.svd_rank(z[:, :2])


# ---------------------------------------------------------------------------
# scalar references for the vector-field side: the exponential map, ball
# samples one point at a time and the eigenvector test one operator at a time


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


def exp_map(t: HTangent) -> HPoint:
    """Geodesic exponential: ``cosh|w| p + sinh|w| w/|w|`` (``p`` for ``w = 0``)."""
    r = norm(t)
    if r == 0.0:
        return t.base
    arr = np.cosh(r) * t.base.v + (np.sinh(r) / r) * t.w
    return _finish_point(arr)


def reference_ball_samples(center: HPoint, radius: float, count: int, seed: int = 0) -> list[HPoint]:
    """``hypfol.ball_samples`` one ``exp_map`` at a time: the oracle the
    array form must match bit for bit."""
    rng = random.Random(seed)
    frame = orthonormal_complement(center.v)
    out = []
    for _ in range(count):
        d = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        d /= np.linalg.norm(d)
        r = radius * rng.random() ** (1.0 / 3.0)
        w = r * sum(c * e for c, e in zip(d, frame))
        out.append(exp_map(HTangent(center, w)))
    return out


def operator_eigencheck(mat: np.ndarray, v_coords: np.ndarray):
    """Real eigenvectors of a 3x3 operator versus a distinguished axis.

    Returns ``(degenerate, witness_coords, eigenvalue)`` where degenerate
    means some real eigenvector points away from the axis by more than
    ``1e-6`` (measured as the sine of the angle).
    """
    v_hat = np.asarray(v_coords, dtype=float)
    v_hat = v_hat / np.linalg.norm(v_hat)
    evals, evecs = np.linalg.eig(mat)
    for k in range(3):
        lam = evals[k]
        if abs(lam.imag) > 1e-8 * (1.0 + abs(lam)):
            continue
        x = np.real(evecs[:, k])
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            continue
        x = x / nx
        if np.linalg.norm(mat @ x - lam.real * x) > 1e-6 * (1.0 + abs(lam.real)):
            continue
        off_axis = np.linalg.norm(x - np.dot(x, v_hat) * v_hat)
        if off_axis > 1e-6:
            return True, x, float(lam.real)
    return False, None, None


def reference_field_checks(field, points) -> tuple[float, list[bool], list[float | None], list[np.ndarray | None]]:
    """The oracle of ``hypfol.field_checks``: its residual, then per point
    the ``operator_eigencheck`` flag, eigenvalue and ambient witness
    (``None`` where the point is not degenerate), one point at a time."""
    mats, frames, v = covariant_differentials(field, points)
    axes = mink(frames, v[:, None])
    out = ([], [], [])
    for mat, frame, axis in zip(mats, frames, axes):
        degenerate, coords, lam = operator_eigencheck(mat, axis)
        for column, value in zip(out, (degenerate, lam, None if coords is None else coords @ frame)):
            column.append(value)
    # the max norm of nabla_X X: each differential applied to the field's own frame coordinates
    return (float(np.max(np.linalg.norm(np.einsum("nij,nj->ni", mats, axes), axis=1), initial=0.0)), *out)


# ---------------------------------------------------------------------------
# scalar references: tangent projection, log map, parallel transport, the
# ideal boundary chart, one asymptote vector, closed-form Jacobi evaluation,
# the Jacobi-variation chart and one-sample classification


def project_to_tangent(p: HPoint, arr: np.ndarray) -> HTangent:
    """Minkowski-orthogonal projection of an ambient vector onto T_p."""
    a = np.asarray(arr, dtype=float)
    return HTangent(p, a + mink_inner(a, p.v) * p.v)


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
    if np.max(np.abs(t.base.v - target.v)) <= 1e-15 * max(1.0, float(np.max(np.abs(t.base.v)))):
        return _finish_tangent(target, t.w)
    u = log_map(t.base, target)
    r = norm(u)
    moved = transport_along(HTangent(t.base, u.w / r), r, t)
    return _finish_tangent(target, moved.w)


def boundary_from_sphere(u) -> np.ndarray:
    """The null vector ``(1, u / |u|)`` of the ideal point in the direction
    ``u``: the inverse of ``endpoint_images``."""
    u = np.asarray(u, dtype=float)
    n = np.linalg.norm(u)
    if n == 0.0:
        raise GeometryError("direction must be nonzero")
    return np.concatenate(([1.0], u / n))


def asymptote(p: HPoint, n: np.ndarray) -> HTangent:
    """The unit vector at ``p`` whose geodesic runs into the ideal point of
    the null vector ``n``: one value of ``asymptote_directions``, which the
    vertical field evaluates."""
    return HTangent(p, asymptote_directions(p.v, n))


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
    pt, vel = eval_geodesic(g, s)
    ch, sh = np.cosh(s), np.sinh(s)
    jw = ch * j0_perp + sh * j0p_perp + (a + b * s) * vel.w
    jpw = sh * j0_perp + ch * j0p_perp + b * vel.w
    return project_to_tangent(pt, jw), project_to_tangent(pt, jpw)


def jacobi_variation_chart(x1: JacobiData, x2: JacobiData) -> FoliationChart:
    """A chart on ``[-0.25, 0.25]^2`` through one geodesic whose axis
    tangents are the given Jacobi data.

    The foot moves to ``foot + a J1 + b J2`` and the direction tilts to
    ``dir + a J1' + b J2'``, each put back on the hyperboloid and its unit
    tangent sphere; exact to first order at the center, which is all
    derivatives there need.
    """
    if not same_geodesic(x1.geo, x2.geo):
        raise GeometryError("both Jacobi tangents must live on the same geodesic")
    foot, dir_w = x1.geo.foot.v, x1.geo.dir.w

    def arrays(a, b):
        a, b = a[:, None], b[:, None]
        p = foot + a * x1.j0.w + b * x2.j0.w
        p = p / np.sqrt(-mink(p, p))[:, None]
        w = dir_w + a * x1.j0p.w + b * x2.j0p.w
        w = w + mink(w, p)[:, None] * p
        return p, w / np.sqrt(mink(w, w))[:, None]

    return FoliationChart(arrays=arrays, domain=((-0.25, 0.25), (-0.25, 0.25)), name="jacobi-variation")


def reference_null_directions(grams: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``foliation._null_directions`` with one ``eigh`` on every row, whose
    eigenvalues and eigenvectors all branches read."""
    evals, evecs = np.linalg.eigh(grams)
    small = np.abs(evals) <= tol
    flat = small.all(axis=1)
    kernel = small.any(axis=1) & ~flat
    cone = ~small.any(axis=1) & (evals[:, 0] < 0.0) & (evals[:, 1] > 0.0)
    dirs = np.repeat(_FLAT_DIRECTIONS[None], len(grams), axis=0)
    smallest = np.argmin(np.abs(evals), axis=1)
    dirs[kernel, 0] = evecs[np.arange(len(grams)), :, smallest][kernel]
    lo, hi = evals[cone, 0, None], evals[cone, 1, None]
    for slot, sgn in enumerate((1.0, -1.0)):
        d = np.sqrt(hi) * evecs[cone, :, 0] + sgn * np.sqrt(-lo) * evecs[cone, :, 1]
        dirs[cone, slot] = d / np.linalg.norm(d, axis=1, keepdims=True)
    return dirs, np.select([flat, kernel, cone], [8, 1, 2], 0)


def reference_verdicts(jets, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle of ``foliation._verdicts``: the same columns from
    ``reference_null_directions`` and the square norms by ``np.einsum``."""
    ok = jets.full_rank
    n = len(ok)
    k_values, k_count, code = np.full((n, 8), np.nan), np.zeros(n, dtype=int), np.full(n, -1)
    dirs, count = reference_null_directions(jets.cross[ok], tol)
    # the Killing and energy square norms of the null directions
    killing, energy = (np.einsum("nki,nij,nkj->nk", dirs, f[ok], dirs) for f in (jets.killing, jets.energy))
    unused = np.arange(8) >= count[:, None]
    # a full-rank pair gives every direction energy at least sv_min^2 > 0;
    # roundoff far from the base point can cancel it away
    resolved = (energy > 0.0) | unused
    if not resolved.all():
        k = int(np.flatnonzero(ok)[np.argmin(resolved.all(axis=1))])
        raise NumericalError(f"null direction without energy at {tuple(jets.params[k].tolist())}: tangents unresolved")
    kv = np.where(unused, np.nan, killing / np.where(unused, 1.0, energy))
    semi = np.all((kv > tol) | unused, axis=1)
    almost = np.all((kv >= -tol) | unused, axis=1)
    k_values[ok], k_count[ok] = kv, count
    # VERDICTS order: indefinite 0, almost_semidefinite 1, semidefinite 2, definite 3
    code[ok] = np.select([count == 0, semi, almost], [3, 2, 1], 0)
    return k_values, k_count, code


def classify_point(
    chart: FoliationChart,
    params: tuple[float, float],
    tol: float = VERDICT_TOL,
) -> SampleRecord:
    """Classify one chart sample with ``reference_verdicts``; rank-deficient
    tangents are reported, not classified."""
    jets = chart_jets(chart, [params[0]], [params[1]])
    (kv,), (count,), (code,) = reference_verdicts(jets, tol)
    p = tuple(jets.params[0].tolist())
    if code < 0:
        return SampleRecord(p, None, (), None, note=RANK_DEFICIENT)
    return SampleRecord(p, tuple(map(tuple, jets.cross[0].tolist())), tuple(kv[:count].tolist()), VERDICTS[code])


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


def reference_ring_growth_masks(values) -> list[float]:
    """Ring minima of a grid, one boolean mask over the whole grid per ring
    and numpy's ``min`` of the cells it selects."""
    n, m = values.shape
    di, dj = np.abs(np.arange(n) - (n - 1) / 2.0), np.abs(np.arange(m) - (m - 1) / 2.0)
    ring = (np.maximum.outer(di, dj) + 0.5).astype(int)
    return [float(values[ring == k].min()) for k in range(ring.min(), ring.max() + 1)]


# ---------------------------------------------------------------------------
# the spiral margin and the full-grid pitch scan


def reference_margin(sinh_2r, t_minus_r, alpha0: float, lam: float, out: np.ndarray) -> np.ndarray:
    """``families.definiteness_margin`` from its pitch-free factors
    ``sinh(2r)`` and ``t - r``, in place in ``out`` (which has the broadcast
    shape of the factors): the oracle of its operations, bit for bit."""
    np.multiply(lam, t_minus_r, out=out)
    out += alpha0
    out *= 2.0
    np.sin(out, out=out)
    out *= sinh_2r
    out -= lam
    return out


def reference_scan_lambda_max(
    alpha0: float = math.pi / 4.0,
    delta: float = 0.1,
    grid: tuple[int, int] = (200, 200),
) -> LambdaScan:
    """``families.scan_lambda_max`` evaluating the margin on the whole grid
    at every bisection step: the grid threshold, the oracle of the corner
    scan, which must give the same ``lambda_max`` and positive trace entries
    bit for bit wherever no positive entry has a tilt leaving ``(0, pi/2)``."""
    params = SpiralParams(alpha0, LAMBDA_SCAN_CAP, delta)  # validates alpha0 and delta
    r, t = grid_axes(spiral_chart(params), grid)
    sinh_2r, t_minus_r = np.sinh(2.0 * r[:, None]), t - r[:, None]
    buffer = np.empty(t_minus_r.shape)

    trace: list[tuple[float, float]] = []

    def min_margin(lam: float) -> float:
        out = float(reference_margin(sinh_2r, t_minus_r, alpha0, lam, buffer).min())
        trace.append((lam, out))
        return out

    hi = LAMBDA_SCAN_CAP
    if min_margin(hi) > 0.0:
        return LambdaScan(hi, alpha0, delta, tuple(trace))
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
