"""Classifiers for candidate geodesic foliations.

A candidate is supplied either as a two-parameter chart of oriented
geodesics or as a unit vector field on a region of hyperbolic space.  A
chart is an array map ``(a, b) -> (foot, dir)`` that accepts complex
parameters.  One kernel, ``chart_jets``, evaluates it three times per grid
(the values, then complex steps in ``a`` and in ``b``), validates the
leaves, and keeps both axis tangents as Jacobi data in endpoint form
``J +- J'``: the parts of the derivatives of ``foot +- dir`` normal to the
leaf, exact to roundoff.  Every per-sample quantity is read from these
arrays without a frame: the energies and the rank check from Minkowski
pairings, the 2x2 Gram matrix of the cross metric from determinants
``det[foot, dir, u, v]``, the Killing values on its null directions from
pairings, and the endpoint images and ranks.  Each sample is classified
as

* ``definite``            - the cross metric restricts to a definite form;
* ``semidefinite``        - its null directions all have positive Killing
                            square norm;
* ``almost_semidefinite`` - null directions have nonnegative Killing norm;
* ``indefinite``          - some null direction has negative Killing norm.

Charts whose geodesics fill a region without crossing always land in the
almost-semidefinite class; the stricter classes correspond to charts with
locally injective endpoint maps and to charts on which the cross metric is
Riemannian.  ``critical_point_scan`` evaluates its squared-distance grid
with one array call and returns the refined minima together with the ring
minima of that grid.  The remaining operations (covariant differential of
a field, eigenvector degeneracy, intersection detection) exercise the same
criteria from the vector-field side; field derivatives are transported
central differences, read in the orthonormal frame
``lorentz.orthonormal_complement`` gives at the point.
``chart_tangent`` keeps central-difference chart tangents as an
independent check of the kernel.

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
    JacobiData,
    OrientedGeodesic,
    check_leaves,
    cross_pairing,
    endpoint_ranks,
    gauss_map,
    geodesic_dist_sq,
    leaf_dist,
    normal_part,
    plane_det,
    rank_2x2,
    same_geodesic,
    unit_tangents,
)
from .lorentz import (
    ORIGIN,
    BoundaryPoint,
    HPoint,
    HTangent,
    exp_map,
    mink,
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
#: complex step of the chart kernel: ``df/da = Im f(a + ih, b) / h`` takes no
#: difference, so it is exact to roundoff
CS_STEP = 1e-30


def _leaf_map(arrays) -> Callable[[float, float], OrientedGeodesic]:
    """One leaf of an array map as a validated ``OrientedGeodesic``; an
    invalid leaf raises ``NumericalError``."""

    def chart_map(a: float, b: float) -> OrientedGeodesic:
        # overflow shows up as non-finite components, which the constructors reject
        with np.errstate(all="ignore"):
            foot, direction = arrays(np.array([a], dtype=float), np.array([b], dtype=float))
        try:
            p = HPoint(foot[0])
            return OrientedGeodesic(p, HTangent(p, direction[0]))
        except GeometryError as exc:
            raise NumericalError(f"chart leaf at {(a, b)}: {exc}") from None

    return chart_map


@dataclass(frozen=True, eq=False)
class FoliationChart:
    """A two-parameter family of oriented geodesics.

    ``arrays(a, b) -> (foot, dir)`` maps ``(N,)`` parameter arrays to the
    ``(N, 4)`` feet and unit directions of the leaves.  It must accept
    complex parameters and be analytic in them (numpy arithmetic and
    elementary functions; no ``abs``, comparisons or casts to float), since
    the chart tangents are complex-step derivatives of it.  ``map(a, b)`` is
    one leaf as a validated ``OrientedGeodesic``, derived from ``arrays``
    unless given (so ``dataclasses.replace`` with new ``arrays`` passes
    ``map=None`` to derive it again); the finite-difference
    ``chart_tangent`` evaluates it up to ``FD_STEP`` beyond the domain
    rectangle.
    """

    arrays: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: tuple[tuple[float, float], tuple[float, float]]
    name: str = ""
    map: Callable[[float, float], OrientedGeodesic] | None = None

    def __post_init__(self):
        if self.map is None:
            object.__setattr__(self, "map", _leaf_map(self.arrays))


@dataclass(frozen=True, eq=False)
class UnitField:
    """A unit vector field about ``center``, given as an evaluable map."""

    func: Callable[[HPoint], HTangent]
    center: HPoint
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
# the chart kernel


def _evaluate(chart: FoliationChart, a, b) -> tuple[np.ndarray, np.ndarray]:
    # overflow shows up as non-finite values, which the callers check
    with np.errstate(all="ignore"):
        foot, direction = chart.arrays(a, b)
    return np.asarray(foot), np.asarray(direction)


@dataclass(frozen=True, eq=False)
class ChartJets:
    """Validated leaves of a chart at ``N`` parameter pairs, with both axis
    tangents as Jacobi data in endpoint form.

    ``params`` is ``(N, 2)``; ``foot`` and ``dir`` are ``(N, 4)``; ``plus``
    and ``minus`` are ``(2, N, 4)``, the variations ``J + J'`` and ``J - J'``
    of the forward and backward endpoints along ``a`` (row 0) and ``b``
    (row 1): the parts of the derivatives of ``foot +- dir`` normal to the
    leaf.  ``energy`` ``(2, N)`` is ``sqrt(|J|^2 + |J'|^2)``, and
    ``unit_plus``, ``unit_minus`` are the data scaled to unit energy.
    """

    params: np.ndarray
    foot: np.ndarray
    dir: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    energy: np.ndarray
    unit_plus: np.ndarray
    unit_minus: np.ndarray

    def gram(self, unit: bool = True) -> np.ndarray:
        """``(N, 2, 2)`` Gram matrices of the cross metric on the unit-energy
        (or, with ``unit=False``, the raw) axis tangents."""
        p, m = (self.unit_plus, self.unit_minus) if unit else (self.plus, self.minus)
        f, d = self.foot, self.dir
        g01 = cross_pairing(f, d, p[0], m[0], p[1], m[1])
        g00 = cross_pairing(f, d, p[0], m[0], p[0], m[0])
        g11 = cross_pairing(f, d, p[1], m[1], p[1], m[1])
        return np.stack((np.stack((g00, g01), -1), np.stack((g01, g11), -1)), -2)

    def full_rank(self) -> np.ndarray:
        """Whether the two tangents span a plane: both energies above
        ``1e-12`` of the larger (or of 1), and the smaller singular value of
        the pair of unit-energy tangents above ``1e-7`` of the larger.  For
        unit vectors the squared singular values are ``|x0 -+ x1|^2 / 2``."""
        e = self.energy
        p, m = self.unit_plus, self.unit_minus
        minus, plus = (
            mink(p[0] - sgn * p[1], p[0] - sgn * p[1]) + mink(m[0] - sgn * m[1], m[0] - sgn * m[1]) for sgn in (1, -1)
        )
        return (e.min(axis=0) > 1e-12 * np.maximum(e.max(axis=0), 1.0)) & (
            np.minimum(minus, plus) > 1e-14 * np.maximum(minus, plus)
        )

    def endpoint_ranks(self, atol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
        """Ranks ``(forward, backward)`` of the endpoint maps."""
        return endpoint_ranks(self.foot, self.dir, self.unit_plus, self.unit_minus, atol)

    def initial_value_ranks(self) -> np.ndarray:
        """Ranks of the map from the unit-energy tangents to their values ``J(0)``."""
        j = 0.5 * (self.unit_plus + self.unit_minus)
        return rank_2x2(plane_det(self.foot, self.dir, j[0], j[1]), mink(j[0], j[0]) + mink(j[1], j[1]))


def chart_jets(chart: FoliationChart, a, b) -> ChartJets:
    """Evaluate the chart at parameter arrays ``a``, ``b`` with three array
    calls: the leaves, then complex steps of ``CS_STEP`` in ``a`` and in ``b``.

    Raises ``NumericalError`` when a leaf fails the value objects' checks or
    a tangent is not finite.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    params = np.column_stack((a, b))
    foot, direction = _evaluate(chart, a, b)
    check_leaves(foot, direction, params)
    steps = [_evaluate(chart, a + 1j * CS_STEP, b), _evaluate(chart, a, b + 1j * CS_STEP)]
    with np.errstate(all="ignore"):
        df = np.stack([np.imag(f) / CS_STEP for f, _ in steps])
        dd = np.stack([np.imag(d) / CS_STEP for _, d in steps])
        plus, minus = normal_part(foot, direction, df + dd), normal_part(foot, direction, df - dd)
        energy, unit_plus, unit_minus = unit_tangents(plus, minus)
    finite = np.isfinite(energy).all(axis=0) & np.isfinite(unit_plus - unit_minus).all(axis=(0, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalError(f"chart tangents at {tuple(params[k].tolist())} are not finite")
    return ChartJets(params, foot, direction, plus, minus, energy, unit_plus, unit_minus)


def grid_arrays(chart: FoliationChart, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Row-major sample parameters over the chart domain, endpoints included,
    as two flat arrays; the second parameter varies fastest."""
    (a0, a1), (b0, b1) = chart.domain
    avals = np.linspace(a0, a1, grid[0])
    bvals = np.linspace(b0, b1, grid[1])
    return np.repeat(avals, grid[1]), np.tile(bvals, grid[0])


def grid_params(chart: FoliationChart, grid: tuple[int, int]) -> list[tuple[float, float]]:
    """``grid_arrays`` as a list of ``(a, b)`` pairs."""
    a, b = grid_arrays(chart, grid)
    return list(zip(a.tolist(), b.tolist()))


# ---------------------------------------------------------------------------
# chart tangents by finite differences: the independent check of the kernel


def chart_tangent(
    chart: FoliationChart, params: tuple[float, float], h: float = FD_STEP
) -> tuple[JacobiData, JacobiData]:
    """Chart tangents along both parameter axes, as orthogonal Jacobi data
    on the one center geodesic, by central differences of ``chart.map``.

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
    fields = []
    for plus, minus in (((a + h, b), (a - h, b)), ((a, b + h), (a, b - h))):
        g_plus, g_minus = chart.map(*plus), chart.map(*minus)
        j0 = normal_part(f, d, (g_plus.foot.v - g_minus.foot.v) / (2.0 * h))
        j0p = normal_part(f, d, (g_plus.dir.w - g_minus.dir.w) / (2.0 * h))
        fields.append(JacobiData(g0, HTangent(g0.foot, j0), HTangent(g0.foot, j0p)))
    return fields[0], fields[1]


# ---------------------------------------------------------------------------
# classification

_FLAT_DIRECTIONS = np.array([(math.cos(k * math.pi / 8.0), math.sin(k * math.pi / 8.0)) for k in range(8)])
#: branch of ``_null_directions`` by the number of null directions it returns
NULL_BRANCHES = {0: "definite", 1: "kernel", 2: "cone", 8: "flat"}


def _null_directions(grams: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Directions on which each 2x2 form of a stack vanishes: ``(N, 8, 2)``
    unit directions of which the first ``count`` ``(N,)`` are used.

    The count names the branch taken (``NULL_BRANCHES``).  A fully flat Gram
    makes every direction null; a fixed fan of 8 directions is sampled then.
    A single small eigenvalue contributes its eigenvector; an indefinite pair
    contributes the two cone directions; a definite form has none.
    """
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


def _classify(jets: ChartJets, tol: float) -> list[SampleRecord]:
    """Sample records of the kernel's samples; rank-deficient tangents are
    reported, not classified.

    The Killing value on a null direction ``(x, y)`` is the Killing square
    norm over the energy of ``Y = x X0 + y X1``, ``X`` the unit-energy axis
    tangents: ``<Y+, Y-> / ((|Y+|^2 + |Y-|^2) / 2)`` in endpoint form.
    """
    ok = jets.full_rank()
    gram = jets.gram()[ok]
    dirs, count = _null_directions(gram, tol)
    p, m = jets.unit_plus[:, ok, None], jets.unit_minus[:, ok, None]
    yp = dirs[..., :1] * p[0] + dirs[..., 1:] * p[1]
    ym = dirs[..., :1] * m[0] + dirs[..., 1:] * m[1]
    energy = 0.5 * (mink(yp, yp) + mink(ym, ym))
    unused = np.arange(8) >= count[:, None]
    # a full-rank pair gives every direction energy at least sv_min^2 > 0;
    # roundoff far from the base point can cancel it away
    resolved = (energy > 0.0) | unused
    if not resolved.all():
        k = int(np.flatnonzero(ok)[np.argmin(resolved.all(axis=1))])
        raise NumericalError(f"null direction without energy at {tuple(jets.params[k].tolist())}: tangents unresolved")
    kv = mink(yp, ym) / np.where(unused, 1.0, energy)
    verdict = np.where(
        np.all((kv > tol) | unused, axis=1),
        "semidefinite",
        np.where(np.all((kv >= -tol) | unused, axis=1), "almost_semidefinite", "indefinite"),
    )
    verdict[count == 0] = "definite"
    classified = iter(zip(gram.tolist(), kv.tolist(), count.tolist(), verdict.tolist()))
    records = []
    for params, good in zip(jets.params.tolist(), ok.tolist()):
        if not good:
            records.append(SampleRecord(tuple(params), None, (), None, note="rank-deficient tangent plane"))
            continue
        g, k, n, v = next(classified)
        records.append(SampleRecord(tuple(params), tuple(map(tuple, g)), tuple(k[:n]), v))
    return records


def classify_point(
    chart: FoliationChart,
    params: tuple[float, float],
    tol: float = VERDICT_TOL,
) -> SampleRecord:
    """Classify one chart sample; rank-deficient tangents are reported, not classified."""
    return _classify(chart_jets(chart, [params[0]], [params[1]]), tol)[0]


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
    samples = _classify(chart_jets(chart, *grid_arrays(chart, grid)), tol)
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


def nondegeneracy_eigencheck(field: UnitField, p: HPoint) -> EigenCheck:
    """Degenerate iff the covariant differential has a real eigenvector off the field axis."""
    mat, frame = covariant_differential(field, p)
    v = field.func(p)
    v_coords = np.array([mink_inner(v.w, e.w) for e in frame])
    degenerate, witness_coords, lam = operator_eigencheck(mat, v_coords)
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


def geodesics_intersect(g1: OrientedGeodesic, g2: OrientedGeodesic) -> IntersectionResult:
    """Decide how two trajectories meet, via their timelike 2-planes.

    The trajectories are plane sections of the hyperboloid; they share a
    point iff the planes intersect in a timelike line.  Null dimensions
    and the causal type of that line are decided at relative ``1e-8``.
    """
    tol = 1e-8
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
            if same_ray(b1, b2):
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


def _coordinate_descent(fun, a, b, step, bounds):
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


def critical_point_scan(
    chart: FoliationChart,
    base: HPoint = ORIGIN,
    grid: tuple[int, int] = (25, 25),
) -> tuple[list[CriticalPoint], list[float]]:
    """Local minima of the squared distance from ``base`` over the chart,
    and the ring minima of the same grid.

    The grid is evaluated with one array call.  Grid-local minima
    (8-neighborhood) are refined by coordinate descent on ``chart.map`` and
    deduplicated by parameter distance; they are sorted by value.  The ring
    minima are ``ring_growth_evidence`` of the grid values.
    """
    (a0, a1), (b0, b1) = chart.domain
    avals = np.linspace(a0, a1, grid[0])
    bvals = np.linspace(b0, b1, grid[1])

    def fun(a, b):
        return geodesic_dist_sq(chart.map(a, b), base)

    a, b = grid_arrays(chart, grid)
    foot, direction = _evaluate(chart, a, b)
    check_leaves(foot, direction, np.column_stack((a, b)))
    values = (leaf_dist(foot, direction, base.v) ** 2).reshape(grid)
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


def initial_value_rank(chart: FoliationChart, params: tuple[float, float]) -> int:
    """Rank of the map sending chart tangents to their Jacobi value at the foot.

    Full rank (2) means the chart reaches every direction orthogonal to the
    geodesic at its footpoint: the surjectivity needed for the geodesics to
    sweep out an open region.
    """
    return int(chart_jets(chart, [params[0]], [params[1]]).initial_value_ranks()[0])


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
