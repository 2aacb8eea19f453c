"""Classifiers for candidate geodesic foliations.

A candidate is supplied either as a two-parameter chart of oriented
geodesics or as a unit vector field on a region of hyperbolic space.  The
classifier samples the chart, converts both parameter directions into
orthogonal Jacobi data by central differences around one evaluation of the
center geodesic (``chart_tangent`` returns the pair, on that one geodesic,
each difference projected to the plane normal to the leaf as it is
formed), takes their parallel-frame coordinates once (``frame_coords``),
reads the 2x2 Gram matrix of the cross metric and the Killing values from
them, and decides per sample between

* ``definite``            - the cross metric restricts to a definite form;
* ``semidefinite``        - its null directions all have positive Killing
                            square norm;
* ``almost_semidefinite`` - null directions have nonnegative Killing norm;
* ``indefinite``          - some null direction has negative Killing norm.

Charts whose geodesics fill a region without crossing always land in the
almost-semidefinite class; the stricter classes correspond to charts with
locally injective endpoint maps and to charts on which the cross metric is
Riemannian.  The remaining operations (covariant differential of a field,
eigenvector degeneracy, intersection detection, critical points of the
squared distance, initial-value rank) exercise the same criteria from the
vector-field side; field derivatives are transported central differences,
read in the orthonormal frame ``lorentz.orthonormal_complement`` gives at
the point.  ``critical_point_scan`` evaluates its squared-distance grid
once and returns the refined minima together with the ring minima of that
grid.

All verdicts are decided at an explicit tolerance on quadratic-form values
normalized by the energy of the Jacobi data, recorded in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError, NumericalError
from .geodesics import (
    CROSS_FORM,
    KILLING_FORM,
    JacobiData,
    OrientedGeodesic,
    _unit_rows,
    frame_coords,
    gauss_map,
    geodesic_dist_sq,
    same_geodesic,
    svd_rank,
)
from .lorentz import (
    ORIGIN,
    BoundaryPoint,
    HPoint,
    HTangent,
    exp_map,
    mink_inner,
    orthonormal_complement,
    project_to_hyperboloid,
    same_ray,
    transport_to,
)

VERDICTS = ("indefinite", "almost_semidefinite", "semidefinite", "definite")
_SEVERITY = {name: k for k, name in enumerate(VERDICTS)}

#: default tolerance for verdicts, applied to normalized quadratic forms
VERDICT_TOL = 1e-7
#: default finite-difference step (central differences)
FD_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class FoliationChart:
    """A two-parameter family of oriented geodesics.

    ``map`` must be evaluable on an open neighborhood of the closed domain
    rectangle; ``margin`` declares how far beyond it finite differences may
    step.
    """

    map: Callable[[float, float], OrientedGeodesic]
    domain: tuple[tuple[float, float], tuple[float, float]]
    margin: float = 0.05
    name: str = ""


@dataclass(frozen=True, eq=False)
class UnitField:
    """A unit vector field on a geodesic ball, given as an evaluable map."""

    func: Callable[[HPoint], HTangent]
    center: HPoint
    radius: float
    name: str = ""


@dataclass(frozen=True)
class SampleRecord:
    """Per-sample classification data: parameters, Gram matrix of the cross
    metric on normalized tangents, Killing values on its null directions."""

    params: tuple[float, float]
    gram: tuple[tuple[float, float], tuple[float, float]] | None
    k_values: tuple[float, ...]
    verdict: str | None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "params": [self.params[0], self.params[1]],
            "gram": None if self.gram is None else [list(r) for r in self.gram],
            "k_values": list(self.k_values),
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Grid classification result; the aggregate is the worst sample verdict."""

    chart_name: str
    grid: tuple[int, int]
    tol: float
    samples: tuple[SampleRecord, ...]
    aggregate: str

    def to_dict(self) -> dict:
        return {
            "chart": self.chart_name,
            "grid": list(self.grid),
            "tol": self.tol,
            "fd_step": FD_STEP,
            "aggregate": self.aggregate,
            "samples": [s.to_dict() for s in self.samples],
        }


# ---------------------------------------------------------------------------
# chart tangents by finite differences


def chart_tangent(
    chart: FoliationChart, params: tuple[float, float], h: float = FD_STEP
) -> tuple[JacobiData, JacobiData]:
    """Chart tangents along both parameter axes, as orthogonal Jacobi data
    on the one center geodesic.

    Each central difference of the foot and of the direction is projected
    to the tangent space at the foot and stripped of its ``dir`` component
    in one step.  Different presentations of the same chart change the raw
    variation field only by that tangential part ``(a + b s) dir``, so the
    result is the class of the variation, whatever the presentation.
    """
    a, b = float(params[0]), float(params[1])
    if a + h == a or b + h == b:
        raise NumericalError("finite-difference step underflowed")
    g0 = chart.map(a, b)
    f, d = g0.foot.v, g0.dir.w

    def normal_part(arr: np.ndarray) -> HTangent:
        return HTangent(g0.foot, arr + mink_inner(arr, f) * f - mink_inner(arr, d) * d)

    fields = []
    for plus, minus in (((a + h, b), (a - h, b)), ((a, b + h), (a, b - h))):
        g_plus, g_minus = chart.map(*plus), chart.map(*minus)
        j0 = normal_part((g_plus.foot.v - g_minus.foot.v) / (2.0 * h))
        j0p = normal_part((g_plus.dir.w - g_minus.dir.w) / (2.0 * h))
        fields.append(JacobiData(g0, j0, j0p))
    return fields[0], fields[1]


_FLAT_DIRECTIONS = tuple(
    (math.cos(k * math.pi / 8.0), math.sin(k * math.pi / 8.0)) for k in range(8)
)


def _null_directions(gram: np.ndarray, tol: float):
    """Directions on which the 2x2 form vanishes, with the branch taken.

    A fully flat Gram makes every direction null; a fixed fan of 8
    directions is sampled then.  A single small eigenvalue contributes its
    eigenvector; an indefinite pair contributes the two cone directions.
    """
    evals, evecs = np.linalg.eigh(gram)
    if np.all(np.abs(evals) <= tol):
        return [np.asarray(d) for d in _FLAT_DIRECTIONS], "flat"
    if np.min(np.abs(evals)) <= tol:
        k = int(np.argmin(np.abs(evals)))
        return [evecs[:, k]], "kernel"
    if evals[0] < 0.0 < evals[1]:
        lo, hi = evals
        u_lo, u_hi = evecs[:, 0], evecs[:, 1]
        dirs = []
        for sgn in (1.0, -1.0):
            d = np.sqrt(hi) * u_lo + sgn * np.sqrt(-lo) * u_hi
            dirs.append(d / np.linalg.norm(d))
        return dirs, "cone"
    return [], "definite"


def classify_point(
    chart: FoliationChart,
    params: tuple[float, float],
    tol: float = VERDICT_TOL,
) -> SampleRecord:
    """Classify one chart sample; rank-deficient tangents are reported, not classified.

    Energies (row norms), the rank check, the Gram matrix and the Killing
    values are all read from the frame coordinates of the two chart tangents.
    """
    z = frame_coords(*chart_tangent(chart, params))
    energy = np.linalg.norm(z, axis=1)
    if energy.min() <= 1e-12 * max(energy.max(), 1.0):
        return SampleRecord(tuple(params), None, (), None, note="rank-deficient tangent plane")
    z = z / energy[:, None]
    sv = np.linalg.svd(z, compute_uv=False)
    if sv[-1] <= 1e-7 * sv[0]:
        return SampleRecord(tuple(params), None, (), None, note="rank-deficient tangent plane")
    gram = z @ CROSS_FORM @ z.T
    gram[1, 0] = gram[0, 1]
    dirs, mode = _null_directions(gram, tol)
    # unit null directions on rows of full rank, so |y| >= sv[-1] > 0
    y = np.reshape(dirs, (-1, 2)) @ z
    kv = np.sum((y @ KILLING_FORM) * y, axis=1) / np.sum(y * y, axis=1)
    if mode == "definite":
        verdict = "definite"
    elif np.all(kv > tol):
        verdict = "semidefinite"
    elif np.all(kv >= -tol):
        verdict = "almost_semidefinite"
    else:
        verdict = "indefinite"
    return SampleRecord(tuple(params), tuple(map(tuple, gram.tolist())), tuple(kv.tolist()), verdict)


def grid_params(chart: FoliationChart, grid: tuple[int, int]) -> list[tuple[float, float]]:
    """Row-major sample parameters over the chart domain, endpoints included."""
    (a0, a1), (b0, b1) = chart.domain
    avals = np.linspace(a0, a1, grid[0])
    bvals = np.linspace(b0, b1, grid[1])
    return [(float(a), float(b)) for a in avals for b in bvals]


def classify_chart(
    chart: FoliationChart,
    grid: tuple[int, int] = (20, 20),
    tol: float = VERDICT_TOL,
) -> ClassificationReport:
    """Classify every grid sample; the aggregate is the worst verdict seen.

    Unclassified (rank-deficient) samples are recorded but excluded from
    the aggregate; if nothing could be classified the aggregate is
    "degenerate".
    """
    samples = [classify_point(chart, p, tol=tol) for p in grid_params(chart, grid)]
    classified = [s.verdict for s in samples if s.verdict is not None]
    if not classified:
        aggregate = "degenerate"
    else:
        aggregate = min(classified, key=lambda v: _SEVERITY[v])
    return ClassificationReport(
        chart_name=chart.name,
        grid=tuple(grid),
        tol=tol,
        samples=tuple(samples),
        aggregate=aggregate,
    )


# ---------------------------------------------------------------------------
# vector-field side


def _transported_difference(field: UnitField, p: HPoint, w: np.ndarray) -> np.ndarray:
    """Central difference of the field along ``w`` at ``p``, both values
    parallel transported back to ``p`` first."""
    q_plus = exp_map(HTangent(p, FD_STEP * w))
    q_minus = exp_map(HTangent(p, -FD_STEP * w))
    w_plus = transport_to(field.func(q_plus), p)
    w_minus = transport_to(field.func(q_minus), p)
    return (w_plus.w - w_minus.w) / (2.0 * FD_STEP)


def check_geodesic_field(field: UnitField, samples: list[HPoint]) -> float:
    """Max norm of the self-derivative of the field over the samples.

    Zero certifies (at the samples) that integral curves are geodesics.
    Differences are taken after parallel transport to the center point.
    """
    worst = 0.0
    for p in samples:
        r = _transported_difference(field, p, field.func(p).w)
        worst = max(worst, float(np.sqrt(max(mink_inner(r, r), 0.0))))
    return worst


def covariant_differential(field: UnitField, p: HPoint) -> tuple[np.ndarray, list[HTangent]]:
    """Matrix of the covariant differential of the field in an orthonormal
    frame at ``p``; column ``j`` holds the derivative along frame vector ``j``."""
    frame = [HTangent(p, e) for e in orthonormal_complement(p.v)]
    mat = np.empty((3, 3))
    for j, ej in enumerate(frame):
        col = _transported_difference(field, p, ej.w)
        for i, ei in enumerate(frame):
            mat[i, j] = mink_inner(col, ei.w)
    return mat, frame


@dataclass(frozen=True)
class EigenCheck:
    """Result of the eigenvector degeneracy test for a unit field."""

    degenerate: bool
    witness: HTangent | None = None
    eigenvalue: float | None = None


def operator_eigencheck(mat: np.ndarray, v_coords: np.ndarray, tol: float = 1e-6):
    """Real eigenvectors of a 3x3 operator versus a distinguished axis.

    Returns ``(degenerate, witness_coords, eigenvalue)`` where degenerate
    means some real eigenvector points away from the axis by more than
    ``tol`` (measured as the sine of the angle).
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
        if off_axis > tol:
            return True, x, float(lam.real)
    return False, None, None


def nondegeneracy_eigencheck(field: UnitField, p: HPoint, tol: float = 1e-6) -> EigenCheck:
    """Degenerate iff the covariant differential has a real eigenvector off the field axis."""
    mat, frame = covariant_differential(field, p)
    v = field.func(p)
    v_coords = np.array([mink_inner(v.w, e.w) for e in frame])
    degenerate, witness_coords, lam = operator_eigencheck(mat, v_coords, tol=tol)
    witness = None
    if witness_coords is not None:
        w = sum(c * e.w for c, e in zip(witness_coords, frame))
        witness = HTangent(p, w)
    return EigenCheck(degenerate=degenerate, witness=witness, eigenvalue=lam)


# ---------------------------------------------------------------------------
# intersections


@dataclass(frozen=True)
class IntersectionResult:
    """Outcome of intersecting two geodesic trajectories.

    ``kind`` is one of "identical", "point", "disjoint", "ambiguous".  A
    shared ideal endpoint (asymptotic pair) yields "disjoint" with the
    endpoint as ``boundary`` witness: the trajectories meet only at
    infinity.  "ambiguous" marks configurations whose plane intersection is
    null at tolerance without a matching endpoint, where a faraway crossing
    cannot be distinguished from divergence.
    """

    kind: str
    point: HPoint | None = None
    boundary: BoundaryPoint | None = None


def geodesics_intersect(
    g1: OrientedGeodesic, g2: OrientedGeodesic, tol: float = 1e-8
) -> IntersectionResult:
    """Decide how two trajectories meet, via their timelike 2-planes.

    The trajectories are plane sections of the hyperboloid; they share a
    point iff the planes intersect in a timelike line.
    """
    m = np.column_stack([g1.foot.v, g1.dir.w, -g2.foot.v, -g2.dir.w])
    u, s, vt = np.linalg.svd(m)
    null_dim = int(np.sum(s <= max(tol * s[0], 1e-300)))
    if null_dim >= 2:
        return IntersectionResult("identical")
    if null_dim == 0:
        return IntersectionResult("disjoint")
    coef = vt[-1]
    x1 = coef[0] * g1.foot.v + coef[1] * g1.dir.w
    x2 = coef[2] * g2.foot.v + coef[3] * g2.dir.w
    x = 0.5 * (x1 + x2)
    q = mink_inner(x, x) / float(np.dot(x, x))
    if q <= -tol:
        if x[0] < 0.0:
            x = -x
        return IntersectionResult("point", point=project_to_hyperboloid(x))
    if q >= tol:
        return IntersectionResult("disjoint")
    # null at tolerance: asymptotic if an actual endpoint is shared
    ends1 = [gauss_map(g1, 1), gauss_map(g1, -1)]
    ends2 = [gauss_map(g2, 1), gauss_map(g2, -1)]
    for b1 in ends1:
        for b2 in ends2:
            if same_ray(b1, b2, tol=1e-9):
                return IntersectionResult("disjoint", boundary=b1)
    return IntersectionResult("ambiguous")


# ---------------------------------------------------------------------------
# critical points of the squared distance


@dataclass(frozen=True)
class CriticalPoint:
    a: float
    b: float
    value: float

    def to_dict(self) -> dict:
        return {"params": [self.a, self.b], "value": self.value}


def _coordinate_descent(fun, a, b, step, bounds, min_step=1e-12, max_evals=20000):
    (a0, a1), (b0, b1) = bounds
    val = fun(a, b)
    evals = 0
    while step > min_step and evals < max_evals:
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


def critical_point_scan(
    chart: FoliationChart,
    base: HPoint = ORIGIN,
    grid: tuple[int, int] = (25, 25),
) -> tuple[list[CriticalPoint], list[float]]:
    """Local minima of the squared distance from ``base`` over the chart,
    and the ring minima of the same grid.

    The grid is evaluated once.  Grid-local minima (8-neighborhood) are
    refined by coordinate descent and deduplicated by parameter distance;
    they are sorted by value.  The ring minima are
    ``ring_growth_evidence`` of the grid values.
    """
    (a0, a1), (b0, b1) = chart.domain
    avals = np.linspace(a0, a1, grid[0])
    bvals = np.linspace(b0, b1, grid[1])

    def fun(a, b):
        return geodesic_dist_sq(chart.map(a, b), base)

    values = np.array([[fun(a, b) for b in bvals] for a in avals])
    candidates = []
    for i in range(grid[0]):
        for j in range(grid[1]):
            v = values[i, j]
            neighborhood = values[
                max(i - 1, 0) : min(i + 2, grid[0]), max(j - 1, 0) : min(j + 2, grid[1])
            ]
            if v <= neighborhood.min():
                candidates.append((float(avals[i]), float(bvals[j])))
    spacing = max(
        (a1 - a0) / max(grid[0] - 1, 1),
        (b1 - b0) / max(grid[1] - 1, 1),
    )
    refined = [
        _coordinate_descent(fun, a, b, spacing, chart.domain) for a, b in candidates
    ]
    refined.sort(key=lambda r: (r[2], r[0], r[1]))
    merged: list[CriticalPoint] = []
    for a, b, v in refined:
        if all(math.hypot(a - m.a, b - m.b) > 0.75 * spacing for m in merged):
            merged.append(CriticalPoint(a, b, v))
    return merged, ring_growth_evidence(values)


def ring_growth_evidence(values: np.ndarray) -> list[float]:
    """Minimum of a grid of values on concentric rings about its center, inside out.

    On the squared-distance grid of ``critical_point_scan``, growth along
    the rings is reported as sampled evidence that the functional escapes
    to infinity along the chart; it is not a proof.
    """
    n, m = values.shape
    ci, cj = (n - 1) / 2.0, (m - 1) / 2.0
    rings: dict[int, float] = {}
    for i in range(n):
        for j in range(m):
            ring = int(max(abs(i - ci), abs(j - cj)) + 0.5)
            rings[ring] = min(rings.get(ring, np.inf), float(values[i, j]))
    return [rings[k] for k in sorted(rings)]


# ---------------------------------------------------------------------------
# rank of the initial-value map and synthetic charts


def initial_value_rank(
    chart: FoliationChart,
    params: tuple[float, float],
    tol: float = 1e-6,
) -> int:
    """Rank of the map sending chart tangents to their Jacobi value at the foot.

    Full rank (2) means the chart reaches every direction orthogonal to the
    geodesic at its footpoint: the surjectivity needed for the geodesics to
    sweep out an open region.
    """
    z = _unit_rows(frame_coords(*chart_tangent(chart, params)))
    return svd_rank(z[:, :2], atol=tol)


def jacobi_variation_chart(
    x1: JacobiData, x2: JacobiData, extent: float = 0.25
) -> FoliationChart:
    """A chart through one geodesic whose axis tangents are the given Jacobi data.

    Built by exponentiating the initial values and tilting the transported
    direction by the initial derivatives; exact to first order at the
    center, which is all finite differences need.
    """
    if not same_geodesic(x1.geo, x2.geo):
        raise GeometryError("both Jacobi tangents must live on the same geodesic")
    g = x1.geo
    foot = g.foot
    dir_w = g.dir.w

    def chart_map(a: float, b: float) -> OrientedGeodesic:
        j0c = a * x1.j0.w + b * x2.j0.w
        j0pc = a * x1.j0p.w + b * x2.j0p.w
        p = exp_map(HTangent(foot, j0c))
        w = transport_to(HTangent(foot, dir_w + j0pc), p)
        return OrientedGeodesic(p, w.normalized())

    return FoliationChart(
        map=chart_map,
        domain=((-extent, extent), (-extent, extent)),
        margin=0.5 * extent,
        name="jacobi-variation",
    )


def ball_samples(center: HPoint, radius: float, count: int, seed: int = 0) -> list[HPoint]:
    """Deterministic sample points in a geodesic ball (seeded)."""
    rng = np.random.default_rng(seed)
    frame = orthonormal_complement(center.v)
    out = []
    for _ in range(count):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        r = radius * rng.uniform() ** (1.0 / 3.0)
        w = r * sum(c * e for c, e in zip(d, frame))
        out.append(exp_map(HTangent(center, w)))
    return out
