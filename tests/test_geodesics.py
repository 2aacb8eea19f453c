"""Oriented geodesics, the chart, Jacobi calculus, metrics, endpoint maps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from hypfol.geodesics import check_leaves, endpoint_images
from util import (
    NonOrthogonalJacobiError,
    asymptote,
    boost_matrix,
    boundary_from_sphere,
    cross,
    dist,
    eval_geodesic,
    exp_map,
    is_orthogonal,
    jacobi_basis,
    jacobi_eval,
    jacobi_variation_chart,
    killing_metric,
    minner,
    norm_sq,
    normalized,
    perp_component,
    project_to_tangent,
    rand_geodesic,
    rand_jacobi,
    rand_point,
    rand_unit_tangent,
    reverse,
    rk4_jacobi,
    transport_along,
    transport_to,
)

O = hf.ORIGIN
E1 = hf.HTangent(O, (0.0, 1.0, 0.0, 0.0))
E2 = hf.HTangent(O, (0.0, 0.0, 1.0, 0.0))
E3 = hf.HTangent(O, (0.0, 0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# construction and canonical form


def test_make_geodesic_through_base():
    g = hf.make_geodesic(O, E1)
    assert np.allclose(g.foot.v, O.v)
    assert np.allclose(g.dir.w, E1.w)


def test_make_geodesic_orthogonal_offset_keeps_foot():
    p = exp_map(hf.HTangent(O, (0.0, 0.0, 1.0, 0.0)))
    w = normalized(project_to_tangent(p, E1.w))  # ambient e1 is tangent here
    g = hf.make_geodesic(p, w)
    assert dist(g.foot, p) < 1e-12
    # canonical velocity is orthogonal to the base position
    assert abs(hf.mink_inner(O.v, g.dir.w)) < 1e-12


def test_make_geodesic_rejects_non_unit():
    with pytest.raises(hf.GeometryError):
        hf.make_geodesic(O, hf.HTangent(O, (0.0, 2.0, 0.0, 0.0)))


@pytest.mark.parametrize("distance", [12.0, 14.0])
def test_unit_checks_scale_with_distance(rng, distance):
    # unit directions far from the base point carry roundoff of order
    # eps * |w|^2 in their norm; all three unit checks accept them (make_geodesic
    # canonicalizes about p itself, so only its unit check is exercised)
    for _ in range(50):
        u = rng.standard_normal(3)
        p = exp_map(hf.HTangent(O, np.concatenate(([0.0], distance * u / np.linalg.norm(u)))))
        w = rand_unit_tangent(rng, p)
        hf.OrientedGeodesic(p, w)
        hf.make_geodesic(p, w, base=p)
        transport_along(w, 0.5, w)
    # twice a unit vector at the origin is still rejected everywhere
    double = hf.HTangent(O, 2.0 * E3.w)
    for build in (
        lambda: hf.OrientedGeodesic(O, double),
        lambda: hf.make_geodesic(O, double),
        lambda: transport_along(double, 0.5, E1),
    ):
        with pytest.raises(hf.GeometryError, match="unit vector"):
            build()


def test_canonical_foot_minimizes_distance(rng):
    # derivative of s -> dist(base, gamma(s)) vanishes at the foot (scan
    # oracle); the distance is even about the foot, so the central
    # difference cancels all odd terms and measures pure residual
    worst = 0.0
    for _ in range(20):
        g = rand_geodesic(rng, scale=0.5)
        h = 1e-3
        d_plus = dist(O, eval_geodesic(g, h)[0])
        d_minus = dist(O, eval_geodesic(g, -h)[0])
        worst = max(worst, abs(d_plus - d_minus) / (2 * h))
    assert worst < 1e-10
    # the canonical invariant itself, on wider draws; the construction
    # loses precision like the square of the foot magnitude
    for _ in range(20):
        g = rand_geodesic(rng, scale=1.5)
        scale = float(np.max(np.abs(g.foot.v))) ** 2
        assert abs(hf.mink_inner(O.v, g.dir.w)) < 1e-10 * max(1.0, scale)


@pytest.mark.parametrize(
    "distance",
    [
        4.0,
        pytest.param(
            12.0,
            marks=pytest.mark.xfail(
                strict=True,
                reason="make_geodesic cancels in a - b far from the base point "
                "(ROADMAP item 1; FOUND line on make_geodesic in CHANGES.md)",
            ),
        ),
    ],
)
def test_make_geodesic_far_from_base(rng, distance):
    # canonical representatives of 200 geodesics through points at the given
    # distance: the trajectory keeps the point, and the foot is closest to
    # the base point (its velocity is orthogonal to the base position)
    for _ in range(200):
        u = rng.standard_normal(3)
        p = exp_map(hf.HTangent(O, np.concatenate(([0.0], distance * u / np.linalg.norm(u)))))
        g = hf.make_geodesic(p, rand_unit_tangent(rng, p))
        assert hf.dist_to_geodesic(p, g) < 1e-8
        assert abs(hf.mink_inner(O.v, g.dir.w)) < 1e-8


def test_make_geodesic_raises_where_it_cannot_be_accurate(rng):
    # through points at distance 5 to 10 the data fix the canonical foot only
    # to about eps e^{3D}: each draw is canonicalized to 1e-8 (up to the
    # checks' own roundoff, below 1e-9 here) or raises NumericalError
    returned = raised = 0
    for distance in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
        for _ in range(100):
            u = rng.standard_normal(3)
            p = exp_map(hf.HTangent(O, np.concatenate(([0.0], distance * u / np.linalg.norm(u)))))
            try:
                g = hf.make_geodesic(p, rand_unit_tangent(rng, p))
            except hf.NumericalError:
                raised += 1
                continue
            returned += 1
            assert hf.dist_to_geodesic(p, g) <= 1.1e-8
            assert abs(hf.mink_inner(O.v, g.dir.w)) <= 1.1e-8
    assert returned and raised


def test_eval_matches_exp_and_unit_speed(rng):
    g = rand_geodesic(rng)
    for s in (-1.7, 0.0, 0.4, 2.2):
        pt, vel = eval_geodesic(g, s)
        assert dist(g.foot, pt) == pytest.approx(abs(s), abs=1e-10)
        assert norm_sq(vel) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pt.v, exp_map(hf.HTangent(g.foot, s * g.dir.w)).v, atol=1e-12)


def test_eval_recovers_construction_data(rng):
    p = rand_point(rng)
    w = rand_unit_tangent(rng, p)
    g = hf.make_geodesic(p, w)
    # the construction point sits at minus the canonicalizing shift
    a = -hf.mink_inner(O.v, p.v)
    b = -hf.mink_inner(O.v, w.w)
    s_star = 0.5 * np.log((a - b) / (a + b))
    pt, vel = eval_geodesic(g, -s_star)
    assert np.allclose(pt.v, p.v, atol=1e-10)
    assert np.allclose(vel.w, w.w, atol=1e-10)


def test_reverse_convention(rng):
    g = rand_geodesic(rng)
    r = reverse(g)
    assert np.allclose(r.foot.v, g.foot.v)
    assert np.allclose(r.dir.w, -g.dir.w)


# ---------------------------------------------------------------------------
# distance to a geodesic


def test_dist_sq_equals_v_norm_sq(rng):
    # the geodesic through exp(v) with direction u, a unit vector at the base
    # point orthogonal to v, has its closest point to the base point at exp(v)
    # (u keeps its ambient components along the radial geodesic)
    for _ in range(20):
        u = rand_unit_tangent(rng, O)
        v_raw = project_to_tangent(O, rng.standard_normal(4)).w
        v_raw = v_raw - hf.mink_inner(v_raw, u.w) * u.w
        foot = exp_map(hf.HTangent(O, v_raw))
        g = hf.OrientedGeodesic(foot, hf.HTangent(foot, u.w))
        assert hf.geodesic_dist_sq(g) == pytest.approx(minner(v_raw, v_raw), abs=1e-10)


def test_dist_sq_against_scan_oracle(rng):
    for _ in range(5):
        g = rand_geodesic(rng, scale=1.2)
        grid = np.linspace(-8.0, 8.0, 4001)
        s0 = grid[np.argmin([dist(O, eval_geodesic(g, s)[0]) for s in grid])]
        fine = np.linspace(s0 - 0.01, s0 + 0.01, 2001)
        dmin = min(dist(O, eval_geodesic(g, s)[0]) for s in fine)
        assert hf.geodesic_dist_sq(g) == pytest.approx(dmin**2, abs=1e-8)


@pytest.mark.parametrize("d", [1e-9, 1e-8, 1e-7, 1e-6])
def test_dist_to_geodesic_near_the_leaf(rng, d):
    # points at distance d along a unit normal at the foot, measured against
    # a representative whose foot is elsewhere on the leaf
    for _ in range(20):
        g = rand_geodesic(rng)
        n = perp_component(g, rng.standard_normal(4))
        q = exp_map(hf.HTangent(g.foot, d * n / np.sqrt(minner(n, n))))
        moved = hf.OrientedGeodesic(*eval_geodesic(g, rng.uniform(-2.0, 2.0)))
        assert hf.dist_to_geodesic(q, moved) == pytest.approx(d, rel=1e-6)


# ---------------------------------------------------------------------------
# validation of leaf arrays

_LEAF_A = np.array([1.2, 1.5, 2.0, 2.5, 2.9])
_LEAF_B = np.array([0.1, 1.0, 2.0, 3.0, 4.0])


def _spiral_leaves():
    foot, direction = hf.spiral_chart(hf.SpiralParams(lam=0.07)).arrays(_LEAF_A, _LEAF_B)
    return foot.copy(), direction.copy()


def _non_finite(foot, direction, k):
    foot[k, 1] = np.nan  # every later check fails as well


def _off_hyperboloid(foot, direction, k):
    foot[k] *= 1.5


def _past_sheet(foot, direction, k):
    foot[k] *= -1.0


def _not_tangent(foot, direction, k):
    # a boost of the direction toward the foot keeps it a unit vector
    direction[k] = np.cosh(0.5) * direction[k] + np.sinh(0.5) * foot[k]


def _not_unit(foot, direction, k):
    direction[k] *= 1.5


_LEAF_FAULTS = [
    (_non_finite, "non-finite leaf"),
    (_off_hyperboloid, "point is not on the unit hyperboloid"),
    (_past_sheet, "point is on the past sheet"),
    (_not_tangent, "vector is not tangent at its base point"),
    (_not_unit, "direction must be a unit vector"),
]


def _leaf_failure(foot, direction):
    with pytest.raises(hf.NumericalError) as exc:
        check_leaves(foot, direction, (_LEAF_A, _LEAF_B))
    return str(exc.value)


def test_check_leaves_accepts_valid_leaves_without_reading_params():
    check_leaves(*_spiral_leaves(), None)


def test_check_leaves_rejects_an_overflowing_square():
    # every other check passes on a direction whose square overflows
    foot, direction = _spiral_leaves()
    direction[3] = (0.0, 0.0, 0.0, 1e200)
    assert _leaf_failure(foot, direction) == "chart leaf at (2.5, 3.0): non-finite leaf"


@pytest.mark.parametrize("fault,message", _LEAF_FAULTS)
def test_check_leaves_names_the_first_failing_row(fault, message):
    foot, direction = _spiral_leaves()
    for k in (3, 1):
        fault(foot, direction, k)
    assert _leaf_failure(foot, direction) == f"chart leaf at (1.5, 1.0): {message}"


@pytest.mark.parametrize("i,j", [(i, j) for i in range(len(_LEAF_FAULTS)) for j in range(i + 1, len(_LEAF_FAULTS))])
def test_check_leaves_reports_the_earlier_check(i, j):
    (fault, message), (later, _) = _LEAF_FAULTS[i], _LEAF_FAULTS[j]
    # one row failing both checks
    foot, direction = _spiral_leaves()
    fault(foot, direction, 2)
    later(foot, direction, 2)
    assert _leaf_failure(foot, direction) == f"chart leaf at (2.0, 2.0): {message}"
    # a row failing the earlier check after one failing only the later check
    foot, direction = _spiral_leaves()
    fault(foot, direction, 4)
    later(foot, direction, 0)
    assert _leaf_failure(foot, direction) == f"chart leaf at (2.9, 4.0): {message}"


def _overflowing(foot, direction, k):
    foot[k] *= 1e200  # finite components whose squares overflow


#: the value objects name what is non-finite, a component or a square;
#: ``check_leaves`` reports either as a non-finite leaf
_AS_LEAF = {"non-finite Minkowski components": "non-finite leaf", "non-finite squares": "non-finite leaf"}


#: the messages of the checks on the feet alone; every fault here that fails
#: one of them changes only the foot
_POINT_MESSAGES = ("non-finite leaf", "point is not on the unit hyperboloid", "point is on the past sheet")


def _scalar_failure(foot, direction=None):
    """The message with which the value objects reject one leaf, or None:
    ``HPoint``, then ``HTangent`` and ``OrientedGeodesic`` unless
    ``direction`` is None."""
    try:
        p = hf.HPoint(foot)
        if direction is not None:
            hf.OrientedGeodesic(p, hf.HTangent(p, direction))
    except hf.GeometryError as exc:
        return _AS_LEAF.get(str(exc), str(exc))
    return None


def _assert_parity(foot, direction):
    """``check_leaves`` and the value objects reject the same rows with the
    same messages, and ``HPoint`` alone the rows whose feet fail; returns
    the messages."""
    messages = [_array_failure(f, d) for f, d in zip(foot, direction)]
    assert [_scalar_failure(f, d) for f, d in zip(foot, direction)] == messages
    assert [_scalar_failure(f) for f in foot] == [m if m in _POINT_MESSAGES else None for m in messages]
    return messages


def _array_failure(foot, direction):
    """The message with which ``check_leaves`` rejects one leaf, or None."""
    try:
        check_leaves(foot[None], direction[None], ([0.0], [0.0]))
    except hf.NumericalError as exc:
        return str(exc).removeprefix("chart leaf at (0.0, 0.0): ")
    return None


def _moved_leaves(rng, distances):
    """The spiral leaves, then their copies moved by a seeded boost of each length."""
    foot, direction = _spiral_leaves()
    feet, directions = [foot], [direction]
    for distance in distances:
        b = boost_matrix(rng.standard_normal(3), distance)
        feet.append(foot @ b.T)
        directions.append(direction @ b.T)
    return np.concatenate(feet), np.concatenate(directions)


@pytest.mark.parametrize("fault", [None, _overflowing] + [fault for fault, _ in _LEAF_FAULTS])
def test_value_objects_reject_the_rows_check_leaves_rejects(rng, fault):
    foot, direction = _moved_leaves(rng, (5.0, 10.0, 15.0, 20.0))
    if fault is not None:
        for k in range(0, len(foot), 2):
            fault(foot, direction, k)
    messages = _assert_parity(foot, direction)
    if fault is None:
        # every moved leaf is valid to far below the tolerance
        assert messages == [None] * len(foot)
    else:
        # far out the relative tolerances admit the milder faults, so only the
        # unmoved rows are sure to fail
        want = dict(_LEAF_FAULTS).get(fault, "non-finite leaf")
        assert messages[:5] == [want, None, want, None, want]


def _ratios(foot, direction):
    """How far a leaf is from each tolerance, as multiples of it: the
    hyperboloid, tangency and unit deviations over ``MODEL_TOL`` of their
    scales, in oracle arithmetic."""
    fs, ds = float(np.dot(foot, foot)), float(np.dot(direction, direction))
    deviations = (minner(foot, foot) + 1.0, minner(foot, direction), minner(direction, direction) - 1.0)
    scales = (fs, np.sqrt(fs * ds), ds)
    return [abs(x) / (hf.MODEL_TOL * max(1.0, s)) for x, s in zip(deviations, scales)]


def _at_tolerance(invariant, c, foot, direction):
    """The leaf moved to ``c`` times the tolerance of one invariant."""
    foot, direction = foot.copy(), direction.copy()
    if invariant == 0:
        # <f, f> falls by c MODEL_TOL |f|^2 as the time component grows
        foot[0] = np.sqrt(foot[0] ** 2 + c * hf.MODEL_TOL * max(1.0, float(np.dot(foot, foot))))
    elif invariant == 1:
        # <f, d + t f> = <f, d> - t, while <d + t f, d + t f> = 1 - t^2; the
        # step moves |d| too, so t is refined once
        t = 0.0
        for _ in range(2):
            t = c * hf.MODEL_TOL * max(1.0, float(np.linalg.norm(foot) * np.linalg.norm(direction + t * foot)))
        direction += t * foot
    else:
        # a scaled direction stays tangent; <sd, sd> - 1 = c MODEL_TOL |sd|^2
        direction /= np.sqrt(1.0 - c * hf.MODEL_TOL * float(np.dot(direction, direction)))
    return foot, direction


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("invariant", [0, 1, 2], ids=["hyperboloid", "tangent", "unit"])
def test_value_objects_and_check_leaves_share_each_tolerance(rng, invariant, c):
    # the perturbations are small against the leaf up to a distance of about 6
    want = None if c < 1.0 else [message for _, message in _LEAF_FAULTS][[1, 3, 4][invariant]]
    for foot, direction in zip(*_moved_leaves(rng, (3.0, 6.0))):
        foot, direction = _at_tolerance(invariant, c, foot, direction)
        ratios = _ratios(foot, direction)
        assert ratios[invariant] == pytest.approx(c, rel=1e-2)
        # the invariants checked before this one hold, and at c = 0.5 all do
        assert max(ratios[:invariant], default=0.0) < 0.5 and (c > 1.0 or max(ratios) < 1.0)
        assert _assert_parity(foot[None], direction[None]) == [want]


# ---------------------------------------------------------------------------
# Jacobi fields


def test_jacobi_eval_initial_conditions(rng):
    g = rand_geodesic(rng)
    jd = rand_jacobi(rng, g)
    j, jp = jacobi_eval(jd, 0.0)
    assert np.allclose(j.w, jd.j0.w, atol=1e-12)
    assert np.allclose(jp.w, jd.j0p.w, atol=1e-12)


def test_stable_data_decays_exponentially(rng):
    g = rand_geodesic(rng)
    j0 = perp_component(g, rng.standard_normal(4))
    jd = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, -j0))
    n0 = np.sqrt(minner(j0, j0))
    for s in (0.5, 1.0, 2.0, 4.0):
        j, _ = jacobi_eval(jd, s)
        assert np.sqrt(max(minner(j.w, j.w), 0.0)) == pytest.approx(
            np.exp(-s) * n0, rel=1e-10
        )


def test_jacobi_eval_matches_rk4(rng):
    cases = []
    for _ in range(10):
        g = rand_geodesic(rng)
        jd = rand_jacobi(rng, g)
        cases += [(jd, s) for s in (0.7, 1.8, 3.0)]
    j_nums, _ = rk4_jacobi([jd for jd, _ in cases], [s for _, s in cases])
    worst = 0.0
    for (jd, s), j_num in zip(cases, j_nums):
        j_cf, _ = jacobi_eval(jd, s)
        worst = max(worst, np.linalg.norm(j_cf.w - j_num) / max(np.linalg.norm(j_num), 1.0))
    assert worst < 1e-8


def test_jacobi_orthogonality_preserved(rng):
    g = rand_geodesic(rng)
    jd = rand_jacobi(rng, g)
    for s in np.linspace(-5, 5, 11):
        j, jp = jacobi_eval(jd, s)
        _, vel = eval_geodesic(g, s)
        scale = max(1.0, np.linalg.norm(j.w))
        assert abs(hf.mink_inner(j.w, vel.w)) < 1e-10 * scale
        assert abs(hf.mink_inner(jp.w, vel.w)) < 1e-10 * scale


def test_jacobi_eval_general_data_satisfies_ode(rng):
    # non-orthogonal data: validate against the same independent integrator
    g = rand_geodesic(rng)
    j0 = project_to_tangent(g.foot, rng.standard_normal(4)).w
    j0p = project_to_tangent(g.foot, rng.standard_normal(4)).w
    jd = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, j0p))
    assert not is_orthogonal(jd)
    (j_num,), _ = rk4_jacobi([jd], [2.0])
    j_cf, _ = jacobi_eval(jd, 2.0)
    assert np.linalg.norm(j_cf.w - j_num) / np.linalg.norm(j_num) < 1e-8


# ---------------------------------------------------------------------------
# the parallel frame of the plane normal to the leaf


def _frame_residual(g):
    """Largest entry of M eta M^T - eta for M = [foot; dir; E1; E2], and det M."""
    m = np.vstack((g.foot.v, g.dir.w, *hf.orthonormal_complement((g.foot.v, g.dir.w))))
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return float(np.max(np.abs(m @ eta @ m.T - eta))), float(np.linalg.det(m))


def test_geodesic_frame_is_orthonormal_far_from_base(rng):
    # the spiral foot at x0 ~ 10 (a lone Gram-Schmidt pass left 2.7e-11 there)
    g = hf.spiral_chart(hf.SpiralParams(lam=0.3)).map(3.0, -0.1)
    resid, det = _frame_residual(g)
    assert resid <= 1e-12
    assert det == pytest.approx(1.0, abs=1e-9)
    # 200 geodesics through points at distance 8, where foot and dir alone are
    # orthonormal only to about 1e-9
    worst = 0.0
    for _ in range(200):
        u = rng.standard_normal(3)
        p = exp_map(hf.HTangent(O, np.concatenate(([0.0], 8.0 * u / np.linalg.norm(u)))))
        resid, det = _frame_residual(hf.OrientedGeodesic(p, rand_unit_tangent(rng, p)))
        assert det > 0.0
        worst = max(worst, resid)
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# the two neutral metrics


def test_cross_metric_zeros(rng):
    g = rand_geodesic(rng)
    j0 = perp_component(g, rng.standard_normal(4))
    stable = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, -j0))
    assert abs(hf.cross_metric(stable)) < 1e-12
    no_deriv = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, np.zeros(4)))
    assert abs(hf.cross_metric(no_deriv)) < 1e-12


def test_killing_metric_values(rng):
    g = rand_geodesic(rng)
    j0 = perp_component(g, rng.standard_normal(4))
    j0 = j0 / np.sqrt(minner(j0, j0))
    stable = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, -j0))
    assert abs(killing_metric(stable)) < 1e-12
    unit = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, np.zeros(4)))
    assert killing_metric(unit) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_killing_norm_of_proportional_data(a):
    # J' = a J gives square norm (1 - a^2) |J(0)|^2
    g = hf.make_geodesic(O, E3)
    j0 = np.array([0.0, 0.7, -0.2, 0.0])
    jd = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, a * j0))
    want = (1.0 - a * a) * minner(j0, j0)
    assert killing_metric(jd) == pytest.approx(want, abs=1e-10)


def test_killing_metric_rejects_non_orthogonal():
    g = hf.make_geodesic(O, E3)
    jd = hf.JacobiData(g, E3, hf.HTangent(O, np.zeros(4)))
    with pytest.raises(NonOrthogonalJacobiError):
        killing_metric(jd)


def test_metric_geodesic_mismatch(rng):
    g1, g2 = rand_geodesic(rng), rand_geodesic(rng)
    x, y = rand_jacobi(rng, g1), rand_jacobi(rng, g2)
    with pytest.raises(hf.GeodesicMismatchError):
        hf.cross_metric(x, y)
    with pytest.raises(hf.GeodesicMismatchError):
        killing_metric(x, y)


def test_cross_metric_matches_direct_pairing(rng):
    # at moderate arc length the generic cross-product route is accurate;
    # the frame-based evaluation must agree with the defining expression
    for _ in range(20):
        g = rand_geodesic(rng)
        x = rand_jacobi(rng, g)
        for s in (-1.0, 0.0, 0.7):
            pt, vel = eval_geodesic(g, s)
            j, jp = jacobi_eval(x, s)
            direct = hf.mink_inner(cross(pt, vel, j).w, jp.w)
            assert hf.cross_metric(x, s=s) == pytest.approx(direct, abs=1e-9)


def test_metrics_constant_along_geodesic(rng):
    worst = 0.0
    for _ in range(20):
        g = rand_geodesic(rng)
        x = rand_jacobi(rng, g)
        vals = [hf.cross_metric(x, s=s) for s in np.linspace(-5, 5, 11)]
        worst = max(worst, max(vals) - min(vals))
        kvals = [killing_metric(x, s=s) for s in np.linspace(-5, 5, 11)]
        worst = max(worst, max(kvals) - min(kvals))
    assert worst < 1e-9


def test_signature_two_two(rng):
    for _ in range(20):
        g = rand_geodesic(rng)
        basis = jacobi_basis(g)
        gram_x = np.array([[hf.cross_metric(a, b) for b in basis] for a in basis])
        gram_k = np.array([[killing_metric(a, b) for b in basis] for a in basis])
        for gram in (gram_x, gram_k):
            ev = np.sort(np.linalg.eigvalsh(gram))
            assert ev[0] < -1e-6 and ev[1] < -1e-6
            assert ev[2] > 1e-6 and ev[3] > 1e-6


# ---------------------------------------------------------------------------
# endpoint maps


def test_gauss_map_through_base(rng):
    v = rand_unit_tangent(rng, O)
    g = hf.make_geodesic(O, v)
    u = endpoint_images(g.foot.v, g.dir.w, 1)
    assert np.allclose(u, v.w[1:], atol=1e-12)


def test_gauss_map_reverse_identity(rng):
    g = rand_geodesic(rng)
    r = reverse(g)
    fwd = endpoint_images(r.foot.v, r.dir.w, 1)
    bwd = endpoint_images(g.foot.v, g.dir.w, -1)
    assert np.array_equal(fwd, bwd)


def test_gauss_map_large_s_limit(rng):
    worst = 0.0
    for _ in range(20):
        g = rand_geodesic(rng)
        pt, _ = eval_geodesic(g, 20.0)
        approx = pt.v[1:] / np.linalg.norm(pt.v[1:])
        exact = endpoint_images(g.foot.v, g.dir.w, 1)
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    assert worst < 1e-7


def test_asymptote_vector_at_base():
    v = asymptote(O, np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(v.w, E1.w, atol=1e-14)


def test_asymptote_round_trip(rng):
    for _ in range(30):
        p = rand_point(rng, scale=1.5)
        b = boundary_from_sphere(rng.standard_normal(3))
        v = asymptote(p, b)
        assert norm_sq(v) == pytest.approx(1.0, abs=1e-9)
        g = hf.make_geodesic(p, v)
        again = endpoint_images(g.foot.v, g.dir.w, 1)
        assert np.max(np.abs(again - b[1:])) <= 1e-9


def test_asymptote_field_equation(rng):
    # along any curve: derivative of W is <c', W> W - c'
    worst = 0.0
    for _ in range(10):
        b = boundary_from_sphere(rng.standard_normal(3))
        g = rand_geodesic(rng)
        h = 1e-4
        for t in (-0.5, 0.2, 1.0):
            pt, vel = eval_geodesic(g, t)
            p_plus, _ = eval_geodesic(g, t + h)
            p_minus, _ = eval_geodesic(g, t - h)
            w_here = asymptote(pt, b)
            w_plus = transport_to(asymptote(p_plus, b), pt)
            w_minus = transport_to(asymptote(p_minus, b), pt)
            deriv = (w_plus.w - w_minus.w) / (2.0 * h)
            want = hf.mink_inner(vel.w, w_here.w) * w_here.w - vel.w
            worst = max(worst, float(np.max(np.abs(deriv - want))))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# endpoint differentials


def test_gauss_jacobian_kernel_is_stable_direction(rng):
    worst_kernel = 0.0
    for _ in range(10):
        g = rand_geodesic(rng)
        j0a = perp_component(g, rng.standard_normal(4))
        j0b = perp_component(g, rng.standard_normal(4))
        stable = hf.JacobiData(g, hf.HTangent(g.foot, j0a), hf.HTangent(g.foot, -j0a))
        generic = hf.JacobiData(g, hf.HTangent(g.foot, j0b), hf.HTangent(g.foot, 0.5 * j0b))
        chart = jacobi_variation_chart(stable, generic)
        jac, _ = hf.gauss_map_jacobian(chart, (0.0, 0.0))
        worst_kernel = max(worst_kernel, float(np.linalg.norm(jac[:, 0])))
        assert np.linalg.norm(jac[:, 1]) > 1e-3
    assert worst_kernel < 1e-6


def test_backward_jacobian_kernel_is_unstable_direction(rng):
    # finite-difference evidence only: reversing the geodesic swaps the roles
    g = rand_geodesic(rng)
    j0a = perp_component(g, rng.standard_normal(4))
    j0b = perp_component(g, rng.standard_normal(4))
    unstable = hf.JacobiData(g, hf.HTangent(g.foot, j0a), hf.HTangent(g.foot, j0a))
    generic = hf.JacobiData(g, hf.HTangent(g.foot, j0b), hf.HTangent(g.foot, -0.3 * j0b))
    chart = jacobi_variation_chart(unstable, generic)
    _, jac = hf.gauss_map_jacobian(chart, (0.0, 0.0))
    assert np.linalg.norm(jac[:, 0]) < 1e-6
    assert np.linalg.norm(jac[:, 1]) > 1e-3


def test_endpoint_velocity_rank_matches_jacobian(rng):
    g = rand_geodesic(rng)
    j0a = perp_component(g, rng.standard_normal(4))
    j0b = perp_component(g, rng.standard_normal(4))
    stable = hf.JacobiData(g, hf.HTangent(g.foot, j0a), hf.HTangent(g.foot, -j0a))
    generic = hf.JacobiData(g, hf.HTangent(g.foot, j0b), hf.HTangent(g.foot, 0.5 * j0b))
    chart = jacobi_variation_chart(stable, generic)
    forward, backward = hf.chart_jets(chart, [0.0], [0.0]).endpoint_ranks()
    assert (forward[0], backward[0]) == (1, 2)
    jac_f, jac_b = hf.gauss_map_jacobian(chart, (0.0, 0.0))
    assert hf.svd_rank(jac_f) == 1
    assert hf.svd_rank(jac_b) == 2


def test_gauss_jacobian_step_underflow():
    _, chart = hf.vertical_family()
    with pytest.raises(hf.NumericalError):
        hf.gauss_map_jacobian(chart, (0.0, 0.0), h=0.0)
