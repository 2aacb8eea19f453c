"""Classifiers for candidate geodesic foliations.

A candidate is supplied either as a two-parameter chart of oriented
geodesics or as a unit vector field on a region of hyperbolic space.  A
chart is an array map ``(a, b) -> (foot, dir)`` that accepts complex
parameters.  One kernel, ``chart_jets``, evaluates it three times on the
rows it is given (the values, then complex steps in ``a`` and in ``b``),
validates the leaves, and reads both axis tangents at the leaves' sphere
endpoints, the rays of ``foot +- dir``: stereographic coordinates ``z+-``
and their derivatives ``dz+-``, exact to roundoff.  Both neutral metrics are
parts of one complex form ``Q = dz+ dz- / (z+ - z-)^2`` (cross ``2 Im Q``,
Killing ``-4 Re Q``), and the energy ``|J|^2 + |J'|^2`` is that of the
endpoint variations in the visual metric from the foot.  The forms and
variations are scaled to unit-energy tangents once, as they are made, and
every per-sample quantity is read from them: the Gram matrix of the cross
metric, the rank check, the Killing values on its null directions and the
endpoint ranks.  ``classify_chart`` runs the kernel and the classifier
(``_verdicts``) one block of grid rows at a time; the classifier takes the
eigenvalues of every Gram matrix and eigenvectors only where a kernel or
cone direction is read from them.  Each sample is classified as

* ``definite``            - the cross metric restricts to a definite form;
* ``semidefinite``        - its null directions all have positive Killing
                            square norm;
* ``almost_semidefinite`` - null directions have nonnegative Killing norm;
* ``indefinite``          - some null direction has negative Killing norm.

Charts whose geodesics fill a region without crossing always land in the
almost-semidefinite class; the stricter classes correspond to charts with
locally injective endpoint maps and to charts on which the cross metric is
Riemannian.  ``critical_point_scan`` evaluates its squared-distance grid
with one array call, refines every grid-local minimum at once by
Gauss-Newton on the leaf residual, whose Jacobian is read from the complex
steps of one chart call per iteration, and returns the minima together
with the ring minima of that grid; its zero minima are the leaves through
the base point, so two of them show two leaves crossing there.
``field_checks`` applies the same classifier from the vector-field side.
A field is an array map as well, and ``field_checks`` takes its
derivatives by complex steps along the orthonormal frames that one stacked
``lorentz.orthonormal_complement`` call gives at all the points.
At each point the field's integral geodesics through a disc transverse to it
form a chart whose jets are those steps, so the kernel's forms and the
chart classifier give the field's verdicts and endpoint ranks, next to its
geodesic residual.  ``chart_tangent`` keeps central-difference chart
tangents as an independent check of the kernel.

All verdicts are decided at an explicit tolerance on quadratic-form values
normalized by the energy of the Jacobi data, recorded in every report.  At
distance ``D`` from the base point the normalized forms are accurate to
about ``eps e^D``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GeometryError, NumericalError
from .geodesics import (
    JacobiData,
    OrientedGeodesic,
    check_leaves,
    leaf_residual,
    rank_2x2,
)
from .lorentz import (
    ORIGIN,
    HPoint,
    HTangent,
    _rescaled,
    cosh_sinhc,
    mink,
    model_checks,
    orthonormal_complement,
)

#: the verdicts from worst to best
VERDICTS = ("indefinite", "almost_semidefinite", "semidefinite", "definite")

#: default tolerance for verdicts, applied to normalized quadratic forms
VERDICT_TOL = 1e-7
#: default finite-difference step (central differences)
FD_STEP = 1e-4
#: complex step of the chart kernel: ``df/da = Im f(a + ih, b) / h`` takes no
#: difference, so it is exact to roundoff
CS_STEP = 1e-30
#: rows per block of the grid drivers (``classify_chart``, ``report.write_csv``
#: and the report writers), which bounds their temporaries whatever the grid
_BLOCK = 4096


def _leaf_map(arrays) -> Callable[[float, float], OrientedGeodesic]:
    """One leaf of an array map as a validated ``OrientedGeodesic``; an
    invalid leaf raises ``NumericalError``."""

    def chart_map(a: float, b: float) -> OrientedGeodesic:
        # overflow shows up as non-finite components or squares, which the constructors reject
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
    the chart tangents and the critical-point solver's Jacobian are
    complex-step derivatives of it.  ``map(a, b)`` is one leaf as a
    validated ``OrientedGeodesic``, derived from ``arrays`` unless given
    (so ``dataclasses.replace`` with new ``arrays`` passes ``map=None`` to
    derive it again); the finite-difference ``chart_tangent`` evaluates it
    up to ``FD_STEP`` beyond the domain rectangle.  The grid drivers
    (classification, endpoint ranks and the critical-point scan with its
    solver) evaluate only ``arrays``.
    """

    arrays: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: tuple[tuple[float, float], tuple[float, float]]
    name: str = ""
    map: Callable[[float, float], OrientedGeodesic] | None = None

    def __post_init__(self):
        if self.map is None:
            object.__setattr__(self, "map", _leaf_map(self.arrays))


#: the note of a sample whose two tangents do not span a plane
RANK_DEFICIENT = "rank-deficient tangent plane"


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Grid classification result as per-sample columns, in row-major grid
    order; the aggregate is the worst sample verdict.

    ``params`` is ``(N, 2)``, ``gram`` ``(N, 2, 2)`` (the cross metric on the
    unit-energy axis tangents), ``k_values`` ``(N, 8)`` (the Killing values
    on the null directions, of which the first ``k_count`` ``(N,)`` are used;
    the count names the branch, 0 definite, 1 kernel, 2 cone and 8 flat, and
    is 0 where the sample is rank-deficient), and ``verdict_code`` ``(N,)``
    indexes ``VERDICTS``, ``-1`` where the sample is rank-deficient.  Entries
    that are not defined (unused Killing slots, the Gram matrix of a
    rank-deficient sample) are NaN.  ``report.write_report`` writes the
    columns as one object per sample.
    """

    chart_name: str
    grid: tuple[int, int]
    tol: float
    params: np.ndarray
    gram: np.ndarray
    k_values: np.ndarray
    k_count: np.ndarray
    verdict_code: np.ndarray
    aggregate: str

    @property
    def rank_deficient(self) -> np.ndarray:
        return self.verdict_code < 0


# ---------------------------------------------------------------------------
# the chart kernel


def _evaluate(chart: FoliationChart, a, b) -> tuple[np.ndarray, np.ndarray]:
    # overflow shows up as non-finite values, which the callers check
    with np.errstate(all="ignore"):
        foot, direction = chart.arrays(a, b)
    return np.asarray(foot), np.asarray(direction)


#: the candidate projection poles: the 6 axis points and the 8 cube diagonals
#: of the unit sphere, in tie-break order
_POLES = np.vstack(
    (np.eye(3), -np.eye(3), np.array([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]) / math.sqrt(3.0))
)
#: per pole in turn, the vectors ``(e1, e2, pole)`` of a positively oriented
#: orthonormal frame of R^3 (``(o, (0, pole), (0, e1), (0, e2))`` is), as the
#: columns of one ``(3, 42)`` matrix
_POLE_FRAMES = np.concatenate(
    (
        orthonormal_complement(np.stack(np.broadcast_arrays(ORIGIN.v, np.pad(_POLES, ((0, 0), (1, 0)))), axis=1))[..., 1:],
        _POLES[:, None],
    ),
    axis=1,
).reshape(-1, 3).T


@dataclass(frozen=True, eq=False)
class ChartJets:
    """Validated leaves of a chart at ``N`` parameter pairs (a block of a
    grid), with both axis tangents' forms read from the sphere endpoints.

    ``params`` is ``(N, 2)`` (for the transverse charts of a field, the
    ``(N, 4)`` points); ``foot`` and ``dir`` are ``(N, 4)``.
    ``cross``, ``killing`` and ``energy`` are the ``(N, 2, 2)`` Gram matrices
    of the cross metric, the Killing metric and the energy ``|J|^2 + |J'|^2``
    on the tangents along ``a`` and ``b`` scaled to unit energy (a zero
    tangent stays zero).  ``ends`` ``(2, 2, N)`` holds the variations of the
    forward (row 0) and backward (row 1) endpoints along the same tangents,
    as complex numbers in an orthonormal frame of the sphere's visual metric
    from the foot: their lengths are those of ``J + J'`` and ``J - J'``.
    ``full_rank`` ``(N,)`` tells whether the two tangents span a plane
    (``_forms``).
    """

    params: np.ndarray
    foot: np.ndarray
    dir: np.ndarray
    cross: np.ndarray
    killing: np.ndarray
    energy: np.ndarray
    ends: np.ndarray
    full_rank: np.ndarray

    def endpoint_ranks(self, atol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
        """Ranks ``(forward, backward)`` of the endpoint maps on the span of
        the unit-energy tangents: each is a 2x2 matrix with columns the
        endpoint variations, read by ``rank_2x2``."""
        w0, w1 = self.ends[:, 0], self.ends[:, 1]
        det, frob_sq = np.imag(np.conj(w0) * w1), np.abs(w0) ** 2 + np.abs(w1) ** 2
        return tuple(rank_2x2(det, frob_sq, atol))


def row_blocks(n: int) -> list[slice]:
    """``range(n)`` as consecutive slices of nearly equal size, at most
    ``_BLOCK`` rows each (3 for a ``_BLOCK`` of 2).  No slice has one row
    unless ``n`` is 1: a one-row matrix product takes numpy's matrix-vector
    path, which can round differently."""
    k = max(1, min(-(-n // _BLOCK), n // 2))
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def chart_jets(chart: FoliationChart, a, b) -> ChartJets:
    """Evaluate the chart at parameter arrays ``a``, ``b`` with three array
    calls, the leaves and then complex steps of ``CS_STEP`` in ``a`` and in
    ``b``, and read their forms (``_jets``); grid drivers pass one block."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    foot, direction = _evaluate(chart, a, b)
    steps = [_evaluate(chart, a + 1j * CS_STEP, b), _evaluate(chart, a, b + 1j * CS_STEP)]
    with np.errstate(all="ignore"):
        f = np.stack((foot, *(np.imag(v) / CS_STEP for v, _ in steps)))
        d = np.stack((direction, *(np.imag(v) / CS_STEP for _, v in steps)))
    return _jets(np.column_stack((a, b)), f, d)


def _jets(params: np.ndarray, f: np.ndarray, d: np.ndarray) -> ChartJets:
    """The ``ChartJets`` of ``n`` leaves from ``(3, n, 4)`` stacks of their
    feet ``f`` and directions ``d``: the values, then the derivatives along
    the two tangents.  Every leaf is checked (``check_leaves``) and then the
    forms are read (``_forms``); ``params`` ``(n, k)`` names the rows.
    Raises ``NumericalError`` when a leaf fails the value objects' checks or
    a form is not finite.
    """
    check_leaves(f[0], d[0], params.T)
    forms, ends, full_rank = _forms(params, f, d)
    return ChartJets(params, f[0], d[0], *np.moveaxis(forms, -1, 1), ends, full_rank)


def _forms(params: np.ndarray, f: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(3, 2, 2, n)`` cross, Killing and energy forms and the ``(2, 2,
    n)`` endpoint variations of ``n`` leaves from ``(3, n, 4)`` stacks of
    their feet ``f`` and directions ``d``: the values, then the derivatives
    along the tangents ``x`` and ``y``, all on the tangents scaled to unit
    energy; and the ``(n,)`` mask of the rows whose tangents span a plane.

    Both neutral forms are parts of one complex form on pairs of sphere
    points: with ``z+`` and ``z-`` stereographic coordinates of a leaf's
    endpoints and ``dz+-`` their derivatives along the tangents ``x`` and
    ``y``, ``Q(x, y) = (dz+(x) dz-(y) + dz+(y) dz-(x)) / (2 (z+ - z-)^2)``
    gives cross ``= 2 Im Q`` and Killing ``= -4 Re Q``.  ``Q`` does not
    change under rotations, so each row projects from the pole of
    ``_POLES`` farthest from both its endpoints (the first on ties), in that
    pole's frame ``(e1, e2, p)``.  The endpoints are the rays of the null
    vectors ``n = foot +- dir``; with ``x = n.e1``, ``y = n.e2`` and ``w =
    n0 - n.p`` on their spatial parts, ``z = (x + iy) / w`` and ``dz = (dx +
    i dy - z dw) / w``, where ``dx``, ``dy``, ``dw`` are complex-step
    derivatives of the real projections.  In the visual metric from the
    foot the endpoint variations are ``W = 2 n0 dz / (1 + |z|^2)``, of the
    lengths of ``J + J'`` and ``J - J'``, and the energy is ``(|W+|^2 +
    |W-|^2) / 2``.

    A tangent is scaled by ``1 / sqrt(|J|^2 + |J'|^2)`` (a zero one by 0).
    The pair spans a plane when both raw energies are above ``1e-12`` of the
    larger (or of 1) and the unit energies of ``x -+ y`` (twice the squared
    singular values of the unit-energy pair) are within a ratio ``1e-14``.

    Raises ``NumericalError``, naming the row by ``params``, when a form is
    not finite.
    """
    with np.errstate(all="ignore"):
        # per side, forward then backward, the value and both derivatives of foot +- dir
        jet = np.stack((f + d, f - d))
        n = jet[:, 0]
        # the spatial parts in every pole's frame, of which each row reads
        # those of its own pole
        proj = (jet[..., 1:] @ _POLE_FRAMES).reshape(*jet.shape[:-1], len(_POLES), 3)
        pole = np.argmin(np.max(proj[:, 0, :, :, 2] / n[..., :1], axis=0), axis=1)
        x, y, p = np.moveaxis(proj[:, :, np.arange(len(pole)), pole], -1, 0)
        xy, w = x + 1j * y, jet[..., 0] - p
        z = xy[:, 0] / w[:, 0]
        dz = (xy[:, 1:] - z[:, None] * w[:, 1:]) / w[:, None, 0]
        # 2 Q on the axis tangents
        prod = dz[0, :, None] * dz[1, None, :]
        q2 = (prod + prod.transpose(1, 0, 2)) / (z[0] - z[1]) ** 2
        ends = dz * (2.0 * n[..., 0] / (1.0 + (z * np.conj(z)).real))[:, None]
        energy = 0.5 * (np.conj(ends[:, :, None]) * ends[:, None]).real.sum(axis=0)
        forms = np.stack((q2.imag, -2.0 * q2.real, energy))
    finite = np.isfinite(forms).all(axis=(0, 1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalError(f"chart tangents at {tuple(params[k].tolist())} are not finite")
    e = np.sqrt(np.diagonal(energy))
    scale = np.divide(1.0, e, out=np.zeros_like(e), where=e > 0.0).T
    forms = forms * scale[:, None] * scale
    m = forms[2]
    minus, plus = (m[0, 0] + m[1, 1] - sgn * 2.0 * m[0, 1] for sgn in (1, -1))
    full_rank = e.min(axis=1) > 1e-12 * np.maximum(e.max(axis=1), 1.0)
    full_rank &= np.minimum(minus, plus) > 1e-14 * np.maximum(minus, plus)
    return forms, ends * scale, full_rank


def grid_axes(chart: FoliationChart, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The two sample axes of an ``n x m`` grid over the chart domain,
    endpoints included."""
    (a0, a1), (b0, b1) = chart.domain
    return np.linspace(a0, a1, grid[0]), np.linspace(b0, b1, grid[1])


def grid_params(axes: tuple[np.ndarray, np.ndarray], s: slice) -> tuple[np.ndarray, np.ndarray]:
    """The parameters of the samples ``s`` (in row-major order, the second
    parameter varying fastest) of the grid of two axes, as two flat arrays:
    views into the samples of the grid rows they meet."""
    (a, b), size = axes, s.stop - s.start
    i, j = divmod(s.start, len(b))
    rows = -(-(j + size) // len(b))
    return np.repeat(a[i : i + rows], len(b))[j : j + size], np.tile(b, rows)[j : j + size]


def grid_arrays(chart: FoliationChart, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Row-major sample parameters of ``grid_axes`` as two flat arrays
    (``grid_params`` of all samples)."""
    return grid_params(grid_axes(chart, grid), slice(0, grid[0] * grid[1]))


# ---------------------------------------------------------------------------
# chart tangents by finite differences: the independent check of the kernel


def chart_tangent(
    chart: FoliationChart, params: tuple[float, float], h: float = FD_STEP
) -> tuple[JacobiData, JacobiData]:
    """Chart tangents along both parameter axes, as orthogonal Jacobi data
    on the one center geodesic, by central differences of ``chart.map``.

    Each central difference of the foot and of the direction is projected
    to the tangent space at the foot and stripped of its ``dir`` component
    in one step: its part normal to the leaf's plane.  Different
    presentations of the same chart change the raw variation field only by
    that tangential part ``(a + b s) dir``, so the result is the class of
    the variation, whatever the presentation.
    """
    a, b = float(params[0]), float(params[1])
    if a + h == a or b + h == b:
        raise NumericalError("finite-difference step underflowed")
    g0 = chart.map(a, b)
    f, d = g0.foot.v, g0.dir.w
    fields = []
    for plus, minus in (((a + h, b), (a - h, b)), ((a, b + h), (a, b - h))):
        g_plus, g_minus = chart.map(*plus), chart.map(*minus)
        u = np.array((g_plus.foot.v - g_minus.foot.v, g_plus.dir.w - g_minus.dir.w)) / (2.0 * h)
        j0, j0p = u + mink(u, f)[:, None] * f - mink(u, d)[:, None] * d
        fields.append(JacobiData(g0, HTangent(g0.foot, j0), HTangent(g0.foot, j0p)))
    return fields[0], fields[1]


# ---------------------------------------------------------------------------
# classification

_FLAT_DIRECTIONS = np.array([(math.cos(k * math.pi / 8.0), math.sin(k * math.pi / 8.0)) for k in range(8)])


def _null_directions(grams: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Directions on which each 2x2 form of a stack vanishes: ``(N, 8, 2)``
    unit directions of which the first ``count`` ``(N,)`` are used.

    The count names the branch taken: 0 definite, 1 kernel, 2 cone and 8
    flat.  A fully flat Gram makes every direction null; a fixed fan of 8
    directions is sampled then.  A single small eigenvalue contributes its
    eigenvector; an indefinite pair contributes the two cone directions; a
    definite form has none.

    Every row's eigenvalues come from ``eigvalsh``; only the kernel and
    cone rows read eigenvectors, so ``eigh`` runs on those rows alone (not
    at all when there are none).  This relies on LAPACK giving both the
    same eigenvalues bit for bit and treating each matrix of a stack alone,
    which ``tests/util.py`` ``reference_verdicts`` (one ``eigh`` on every
    row) checks.
    """
    evals = np.linalg.eigvalsh(grams)
    small = np.abs(evals) <= tol
    flat = small.all(axis=1)
    kernel = small.any(axis=1) & ~flat
    cone = ~small.any(axis=1) & (evals[:, 0] < 0.0) & (evals[:, 1] > 0.0)
    count = np.where(flat, 8, np.where(kernel, 1, np.where(cone, 2, 0)))
    dirs = np.repeat(_FLAT_DIRECTIONS[None], len(grams), axis=0)
    rows = np.flatnonzero(kernel | cone)
    if rows.size:
        evals, evecs = evals[rows], np.linalg.eigh(grams[rows])[1]
        kernel, cone = kernel[rows], cone[rows]
        smallest = np.argmin(np.abs(evals[kernel]), axis=1)
        dirs[rows[kernel], 0] = evecs[kernel][np.arange(len(smallest)), :, smallest]
        lo, hi = evals[cone, 0, None], evals[cone, 1, None]
        for slot, sgn in enumerate((1.0, -1.0)):
            d = np.sqrt(hi) * evecs[cone, :, 0] + sgn * np.sqrt(-lo) * evecs[cone, :, 1]
            dirs[rows[cone], slot] = d / np.linalg.norm(d, axis=1, keepdims=True)
    return dirs, count


def _verdicts(jets: ChartJets, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``ClassificationReport`` columns ``k_values`` ``(n, 8)``,
    ``k_count`` and ``verdict_code`` ``(n,)`` of the kernel's samples;
    rank-deficient tangents are reported, not classified.

    The Killing value on a null direction ``d`` is the Killing square norm
    over the energy of the combination ``d`` of the unit-energy axis
    tangents, ``d^T K d / d^T M d``.  Both square norms are summed as
    explicit products, ``(((0.0 + d0 F00 d0) + d0 F01 d1) + d1 F10 d0) + d1
    F11 d1``: the order of ``np.einsum``, whose sum starts from +0.0, so a
    value of ``-0.0`` reads ``0.0`` as it always has.
    """
    ok = jets.full_rank
    n = len(ok)
    k_values, k_count, code = np.full((n, 8), np.nan), np.zeros(n, dtype=int), np.full(n, -1)
    dirs, count = _null_directions(jets.cross[ok], tol)
    d0, d1 = dirs[..., 0], dirs[..., 1]

    def square_norms(f: np.ndarray) -> np.ndarray:
        (f00, f01), (f10, f11) = f[ok].transpose(1, 2, 0)[..., None]
        return 0.0 + d0 * f00 * d0 + d0 * f01 * d1 + d1 * f10 * d0 + d1 * f11 * d1

    # the Killing and energy square norms of the null directions
    killing, energy = square_norms(jets.killing), square_norms(jets.energy)
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
    code[ok] = np.where(count == 0, 3, np.where(semi, 2, np.where(almost, 1, 0)))
    return k_values, k_count, code


def classify_chart(
    chart: FoliationChart,
    grid: tuple[int, int] = (20, 20),
    tol: float = VERDICT_TOL,
) -> ClassificationReport:
    """Classify every grid sample; the aggregate is the worst verdict seen.

    The kernel and ``_verdicts`` run one block of ``row_blocks`` at a time,
    so the first failing block names the error.  Unclassified
    (rank-deficient) samples are recorded but excluded from the aggregate;
    if nothing could be classified the aggregate is "degenerate".
    """
    params = np.column_stack(grid_arrays(chart, grid))
    n = len(params)
    gram, k_values = np.empty((n, 2, 2)), np.empty((n, 8))
    k_count, code = np.empty(n, dtype=int), np.empty(n, dtype=int)
    for s in row_blocks(n):
        jets = chart_jets(chart, *params[s].T)
        gram[s] = np.where(jets.full_rank[:, None, None], jets.cross, np.nan)
        k_values[s], k_count[s], code[s] = _verdicts(jets, tol)
    ok = code >= 0
    aggregate = VERDICTS[code[ok].min()] if ok.any() else "degenerate"
    return ClassificationReport(chart.name, tuple(grid), tol, params, gram, k_values, k_count, code, aggregate)


# ---------------------------------------------------------------------------
# vector-field side


def ball_samples(radius: float, count: int, seed: int = 0) -> np.ndarray:
    """``count`` deterministic (seeded) points of the geodesic ball about
    the base point, as a ``(count, 4)`` array, drawn from the standard
    library's ``random.Random(seed)``: per point three normal components of
    a direction, then a uniform radius fraction.  The seed is a nonnegative
    integer (``TypeError`` otherwise, ``ValueError`` if negative)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    d, r = np.empty((count, 3)), np.empty((count, 1))
    for k in range(count):  # the draws interleave; a scalar norm and power keep each row's bits
        d[k] = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        d[k] /= np.linalg.norm(d[k])
        r[k] = radius * rng.random() ** (1.0 / 3.0)
    # at the base point the tangent space is the spatial part of R^{3,1};
    # the square is summed in ``mink``'s order, so the points keep their bits
    w = r * d
    ch, sc = cosh_sinhc(w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2])
    points = _rescaled(np.column_stack((ch, sc[:, None] * w)), -1.0)
    if not all(ok.all() for _, ok in model_checks(points)):
        raise GeometryError("ball sample is not a point of the hyperboloid")
    return points


def _field_steps(field, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One complex-step call of ``field`` at ``p + i CS_STEP e_j`` for
    every one of the ``(N, 4)`` points and every vector ``e_j`` of its
    ``orthonormal_complement`` frame: the ``(N, 3, 4)`` frames, the ``(N, 4)``
    field values and the ``(N, 3, 4)`` ambient derivatives along the frames."""
    frames = orthonormal_complement(points[:, None])
    values = np.asarray(field((points[:, None] + 1j * CS_STEP * frames).reshape(-1, 4))).reshape(-1, 3, 4)
    # the real part is the value at p: the step moves it by CS_STEP^2
    return frames, np.real(values[:, 0]), np.imag(values) / CS_STEP


def field_checks(
    field: Callable[[np.ndarray], np.ndarray], points
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The geodesic residual of a unit vector field, and at each of the
    ``(N, 4)`` points the verdict and endpoint ranks of its transverse
    chart, from the one field call of ``_field_steps``.

    ``field(points) -> values`` maps ``(N, 4)`` points of the hyperboloid to
    the ``(N, 4)`` field vectors at them.  Like ``FoliationChart.arrays`` it
    must accept complex points and be analytic in them (numpy arithmetic and
    elementary functions; no ``abs``, comparisons or casts to float), since
    its covariant differentials are complex-step derivatives of it; under
    pytest a ``ComplexWarning`` (a complex value cast to float) is an error.

    The residual is the max norm of the self-derivative ``nabla_X X`` over
    the points; zero certifies (at the points) that integral curves are
    geodesics.  At ``p``, with ``e`` and ``e'`` the two frame vectors
    farthest from ``X``, the integral geodesics through ``exp_p(a e + b
    e')`` form a chart whose tangent along ``a`` at ``(0, 0)`` is ``J = e``,
    ``J' = nabla_e X``, and likewise along ``b``.  As ``exp_p(i CS_STEP e)``
    is ``p + i CS_STEP e`` bit for bit, the field's steps are that chart's
    jets.  Returns the residual, the ``(N,)`` verdict codes of ``_verdicts``
    at ``VERDICT_TOL`` and the ``(N,)`` forward and backward endpoint ranks.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    frames, v, derivatives = _field_steps(field, points)
    axes = mink(frames, v[:, None])
    nabla_x = np.einsum("nij,nj->ni", mink(frames[:, :, None], derivatives[:, None]), axes)
    rows, pair = np.arange(len(points))[:, None], np.argsort(np.abs(axes), axis=1)[:, :2]
    f, d = (np.concatenate((x[None], np.moveaxis(dx[rows, pair], 1, 0))) for x, dx in ((points, frames), (v, derivatives)))
    jets = _jets(points, f, d)
    code = _verdicts(jets, VERDICT_TOL)[2]
    return float(np.max(np.linalg.norm(nabla_x, axis=1), initial=0.0)), code, *jets.endpoint_ranks()


# ---------------------------------------------------------------------------
# critical points of the squared distance


@dataclass(frozen=True)
class CriticalPoint:
    a: float
    b: float
    value: float

    def to_dict(self) -> dict:
        return {"params": [self.a, self.b], "value": self.value}


#: iteration cap of the leaf solver: its calls per start, when no other stop comes first
_ITERATIONS = 40
#: roundoff of the leaf solver: a clamped step below this times ``max(|x|, 1)``
#: in both coordinates, or a decrease of ``<r, r>`` below this times ``<r, r>``
_ROUNDOFF = 4.0 * np.finfo(float).eps


def _newton_steps(gram: np.ndarray, grad: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Gauss-Newton steps ``(n, 2)`` from the ``(2, 2, n)`` Gram matrices
    ``G`` of the Jacobian columns and the ``(2, n)`` gradients ``g`` (half
    that of ``<r, r>``): the solution of the normal equations ``G x = -g``.
    Where ``held`` ``(n, 2)`` fixes a coordinate, or where ``G`` is too near
    singular to solve, the step is the minimum of the quadratic model along
    ``-g`` on the free coordinates: the 1-D Newton step when one coordinate
    is held, zero when both are.  A step that is not finite is zero."""
    (g00, g01), (_, g11) = gram
    grad = np.where(held.T, 0.0, grad)
    with np.errstate(all="ignore"):
        det = g00 * g11 - g01 * g01
        full = np.array((g01 * grad[1] - g11 * grad[0], g01 * grad[0] - g00 * grad[1])) / det
        curvature = g00 * grad[0] ** 2 + 2.0 * g01 * grad[0] * grad[1] + g11 * grad[1] ** 2
        along = grad * -((grad * grad).sum(axis=0) / curvature)
        step = np.where(~held.any(axis=1) & (det > 1e-12 * g00 * g11), full, along).T
    return np.where(np.isfinite(step), step, 0.0)


def _refine_minima(chart: FoliationChart, q: np.ndarray, a, b, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton on the leaf residual from every start ``(a[k], b[k])``
    at once; returns the best ``a``, ``b`` and their ``<r, r>``.

    For a leaf with foot ``f`` and direction ``d`` the residual ``r =
    leaf_residual(f, d, q)`` has ``<r, r> = sinh^2 dist(q, leaf)``.  Each
    iteration makes one chart call of ``2n`` rows for the ``n`` active
    starts, ``(a + i CS_STEP, b)`` stacked on ``(a, b + i CS_STEP)``: its
    real parts are the leaves, each checked by ``check_leaves``, and its
    imaginary parts give the two Jacobian columns of ``r``, whose parts on
    the leaf's normal plane (where the Minkowski form is positive definite)
    give the step (``_newton_steps``).  A coordinate at a bound whose step
    points outward is held, and the step is clamped to ``bounds``.  A point
    is kept only if ``<r, r>`` does not grow; otherwise the clamped step
    from the best point is halved.  A start stops at ``<r, r> = 0``, at a
    clamped step below roundoff (``_ROUNDOFF``), where the quadratic
    model's decrease of ``<r, r>`` along the step is below roundoff of
    ``<r, r>`` (at a minimum that is not zero the value resolves the
    parameters only to about the square root of roundoff), or after
    ``_ITERATIONS`` calls.  ``q`` is the base point divided by a power of
    two (``critical_point_scan``), so that the Gram products do not overflow.
    """
    lo, hi = np.array(bounds, dtype=float).T
    out = np.array((a, b), dtype=float).T
    out_rr = np.full(len(out), np.inf)
    # the active starts: their rows of out, best points, <r, r>, steps, the
    # model's decrease of <r, r> along each step, and the next points
    idx, best, best_rr, x = np.arange(len(out)), out.copy(), out_rr.copy(), out.copy()
    step, gain = np.zeros_like(out), np.zeros(len(out))
    for _ in range(_ITERATIONS):
        if not idx.size:
            break
        n, (xa, xb) = len(idx), x.T
        steps = np.concatenate((xa + 1j * CS_STEP, xa)), np.concatenate((xb, xb + 1j * CS_STEP))
        foot, direction = _evaluate(chart, *steps)
        f, d = np.real(foot[:n]), np.real(direction[:n])
        check_leaves(f, d, (xa, xb))
        r = leaf_residual(f, d, q)
        rr = np.maximum(mink(r, r), 0.0)
        with np.errstate(all="ignore"):
            jac = np.imag(leaf_residual(foot, direction, q)).reshape(2, n, 4) / CS_STEP
        # the columns' parts on the leaf's normal plane, the orthogonal
        # complement of the plane of f (timelike unit) and d (spacelike unit)
        jac = jac + mink(jac, f)[..., None] * f - mink(jac, d)[..., None] * d
        gram, grad = mink(jac[:, None], jac[None]), mink(jac, r)
        new = _newton_steps(gram, grad, np.zeros((n, 2), dtype=bool))
        held = ((x <= lo) & (new < 0.0)) | ((x >= hi) & (new > 0.0))
        if held.any():
            new = _newton_steps(gram, grad, held)
        kept = rr <= best_rr
        best = np.where(kept[:, None], x, best)
        best_rr = np.where(kept, rr, best_rr)
        step = np.where(kept[:, None], new, 0.5 * (x - best))
        gain = np.where(kept, -(grad.T * new).sum(axis=1), 0.5 * gain)
        x = np.clip(best + step, lo, hi)
        going = (best_rr > 0.0) & (gain > _ROUNDOFF * best_rr)
        going &= (np.abs(x - best) > _ROUNDOFF * np.maximum(np.abs(best), 1.0)).any(axis=1)
        if not going.all():
            out[idx], out_rr[idx] = best, best_rr
            idx, best, best_rr, step, gain, x = (v[going] for v in (idx, best, best_rr, step, gain, x))
    out[idx], out_rr[idx] = best, best_rr
    return out[:, 0], out[:, 1], out_rr


#: the name the benchmark's layer tracer wraps; ROADMAP item 1's benchmark
#: change retargets it, and this alias goes then
_coordinate_descent = _refine_minima


def critical_point_scan(
    chart: FoliationChart,
    base: np.ndarray = ORIGIN.v,
    grid: tuple[int, int] = (25, 25),
) -> tuple[list[CriticalPoint], list[float]]:
    """Local minima of the squared distance from ``base``, a ``(4,)`` point
    of the hyperboloid, over the chart, and the ring minima of the same grid.

    ``base`` is divided once, exactly, by ``2^k``, the power of two of its
    largest component, so that no product overflows; every value is
    ``arcsinh(2^k sqrt<r, r>)^2`` of its residuals ``r``.  One array call
    evaluates the grid.  Its local minima (8-neighborhood) are refined
    together by the Gauss-Newton solver ``_refine_minima`` (each leaf it
    evaluates is validated), merged within ``0.75`` of the grid spacing and
    sorted by value; the ring minima are ``ring_growth_evidence`` of the grid.

    A minimum that is not isolated, such as a valley of equal distance
    along a curve of leaves, is reported as one point of the valley per
    merged start: the solver takes a start to the valley but not along it,
    where its step is roundoff, so the count of such minima follows the
    grid.
    """
    avals, bvals = axes = grid_axes(chart, grid)
    a, b = grid_params(axes, slice(0, grid[0] * grid[1]))
    foot, direction = _evaluate(chart, a, b)
    check_leaves(foot, direction, (a, b))
    k = math.frexp(float(np.max(np.abs(base))))[1]
    q = np.ldexp(base, -k)

    def dist_sq(rr):
        return np.arcsinh(np.ldexp(np.sqrt(np.maximum(rr, 0.0)), k)) ** 2

    r = leaf_residual(foot, direction, q)
    values = dist_sq(mink(r, r)).reshape(grid)
    padded = np.full((grid[0] + 2, grid[1] + 2), np.inf)
    padded[1:-1, 1:-1] = values
    shifted = [padded[i : i + grid[0], j : j + grid[1]] for i in range(3) for j in range(3)]
    rows, cols = np.nonzero(values <= np.min(shifted, axis=0))
    spacing = max((x[-1] - x[0]) / max(len(x) - 1, 1) for x in axes)
    a, b, rr = _refine_minima(chart, q, avals[rows], bvals[cols], chart.domain)
    refined = sorted(zip(a.tolist(), b.tolist(), dist_sq(rr).tolist()), key=lambda r: (r[2], r[0], r[1]))
    merged: list[CriticalPoint] = []
    for a, b, v in refined:
        if all(math.hypot(a - m.a, b - m.b) > 0.75 * spacing for m in merged):
            merged.append(CriticalPoint(a, b, v))
    return merged, ring_growth_evidence(values)


def ring_growth_evidence(values: np.ndarray) -> list[float]:
    """Minimum of a grid of values on concentric rings about its center, inside out.

    Ring ``k`` holds the cells whose Chebyshev distance from the center
    rounds half up to ``k``, so a grid with an even side has no ring 0.  On the
    squared-distance grid of ``critical_point_scan``, growth along the rings
    is reported as sampled evidence that the functional escapes to infinity
    along the chart; it is not a proof.
    """
    n, m = values.shape
    di, dj = np.abs(np.arange(n) - (n - 1) / 2.0), np.abs(np.arange(m) - (m - 1) / 2.0)
    ring = (np.maximum.outer(di, dj) + 0.5).astype(np.intp).ravel()
    # the rings that occur are contiguous: ring 0 only with two odd sides;
    # one scatter-minimum over the flat ring indices reads them all
    ring -= ring.min()
    minima = np.full(int(ring.max()) + 1, np.inf)
    np.minimum.at(minima, ring, np.ravel(values))
    return minima.tolist()
