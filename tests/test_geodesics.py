"""Oriented geodesics, the chart, Jacobi calculus, metrics, endpoint maps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from util import (
    jacobi_basis,
    minner,
    perp_component,
    rand_geodesic,
    rand_jacobi,
    rand_point,
    rand_unit_tangent,
    rk4_jacobi,
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
    p = hf.exp_map(hf.HTangent(O, (0.0, 0.0, 1.0, 0.0)))
    w = hf.project_to_tangent(p, E1.w).normalized()  # ambient e1 is tangent here
    g = hf.make_geodesic(p, w)
    assert hf.dist(g.foot, p) < 1e-12
    # canonical velocity is orthogonal to the base position
    assert abs(hf.mink_inner(O.v, g.dir.w)) < 1e-12


def test_make_geodesic_rejects_non_unit():
    with pytest.raises(hf.GeometryError):
        hf.make_geodesic(O, hf.HTangent(O, (0.0, 2.0, 0.0, 0.0)))


@pytest.mark.parametrize("distance", [12.0, 14.0])
def test_unit_checks_scale_with_distance(rng, distance):
    # unit directions far from the base point carry roundoff of order
    # eps * |w|^2 in their norm; all four unit checks accept them (make_geodesic
    # canonicalizes about p itself, so only its unit check is exercised)
    for _ in range(50):
        u = rng.standard_normal(3)
        p = hf.exp_map(hf.HTangent(O, np.concatenate(([0.0], distance * u / np.linalg.norm(u)))))
        w = rand_unit_tangent(rng, p)
        hf.OrientedGeodesic(p, w)
        hf.make_geodesic(p, w, base=p)
        hf.ChartPoint(w, hf.HTangent(p, np.zeros(4)))
        hf.transport_along(w, 0.5, w)
    # twice a unit vector at the origin is still rejected everywhere
    double = hf.HTangent(O, 2.0 * E3.w)
    for build in (
        lambda: hf.OrientedGeodesic(O, double),
        lambda: hf.make_geodesic(O, double),
        lambda: hf.ChartPoint(double, E1),
        lambda: hf.transport_along(double, 0.5, E1),
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
        d_plus = hf.dist(O, g.eval(h)[0])
        d_minus = hf.dist(O, g.eval(-h)[0])
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
                "(ROADMAP item 4; FOUND line on make_geodesic in CHANGES.md)",
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
        p = hf.exp_map(hf.HTangent(O, np.concatenate(([0.0], distance * u / np.linalg.norm(u)))))
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
            p = hf.exp_map(hf.HTangent(O, np.concatenate(([0.0], distance * u / np.linalg.norm(u)))))
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
        pt, vel = g.eval(s)
        assert hf.dist(g.foot, pt) == pytest.approx(abs(s), abs=1e-10)
        assert vel.norm_sq == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pt.v, hf.exp_map(hf.HTangent(g.foot, s * g.dir.w)).v, atol=1e-12)


def test_eval_recovers_construction_data(rng):
    p = rand_point(rng)
    w = rand_unit_tangent(rng, p)
    g = hf.make_geodesic(p, w)
    # the construction point sits at minus the canonicalizing shift
    a = -hf.mink_inner(O.v, p.v)
    b = -hf.mink_inner(O.v, w.w)
    s_star = 0.5 * np.log((a - b) / (a + b))
    pt, vel = g.eval(-s_star)
    assert np.allclose(pt.v, p.v, atol=1e-10)
    assert np.allclose(vel.w, w.w, atol=1e-10)


def test_reverse_convention(rng):
    g = rand_geodesic(rng)
    r = g.reverse()
    assert np.allclose(r.foot.v, g.foot.v)
    assert np.allclose(r.dir.w, -g.dir.w)


# ---------------------------------------------------------------------------
# the global chart


def test_chart_trivials():
    c = hf.ChartPoint(E1, hf.HTangent(O, np.zeros(4)))
    g = hf.geodesic_from_chart(c)
    assert np.allclose(g.foot.v, O.v)
    assert np.allclose(g.dir.w, E1.w)
    back = hf.chart_of_geodesic(g)
    assert back.v.norm < 1e-12
    assert np.allclose(back.u.w, E1.w, atol=1e-12)


def test_chart_round_trip(rng):
    worst = 0.0
    for _ in range(50):
        p = rand_point(rng, scale=1.5)
        u = rand_unit_tangent(rng, O)
        v_raw = hf.project_to_tangent(O, rng.standard_normal(4)).w
        v_raw = v_raw - hf.mink_inner(v_raw, u.w) * u.w
        c = hf.ChartPoint(u, hf.HTangent(O, v_raw))
        g = hf.geodesic_from_chart(c)
        back = hf.chart_of_geodesic(g)
        worst = max(worst, float(np.max(np.abs(back.u.w - c.u.w))))
        worst = max(worst, float(np.max(np.abs(back.v.w - c.v.w))))
    assert worst < 1e-10


def test_dist_sq_equals_v_norm_sq(rng):
    for _ in range(20):
        u = rand_unit_tangent(rng, O)
        v_raw = hf.project_to_tangent(O, rng.standard_normal(4)).w
        v_raw = v_raw - hf.mink_inner(v_raw, u.w) * u.w
        c = hf.ChartPoint(u, hf.HTangent(O, v_raw))
        g = hf.geodesic_from_chart(c)
        assert hf.geodesic_dist_sq(g) == pytest.approx(c.v.norm_sq, abs=1e-10)


def test_dist_sq_against_scan_oracle(rng):
    for _ in range(5):
        g = rand_geodesic(rng, scale=1.2)
        grid = np.linspace(-8.0, 8.0, 4001)
        coarse = min(hf.dist(O, g.eval(s)[0]) for s in grid)
        s0 = min(grid, key=lambda s: hf.dist(O, g.eval(s)[0]))
        fine = np.linspace(s0 - 0.01, s0 + 0.01, 2001)
        dmin = min(hf.dist(O, g.eval(s)[0]) for s in fine)
        assert hf.geodesic_dist_sq(g) == pytest.approx(dmin**2, abs=1e-8)


@pytest.mark.parametrize("d", [1e-9, 1e-8, 1e-7, 1e-6])
def test_dist_to_geodesic_near_the_leaf(rng, d):
    # points at distance d along a unit normal at the foot, measured against
    # a representative whose foot is elsewhere on the leaf
    for _ in range(20):
        g = rand_geodesic(rng)
        n = perp_component(g, rng.standard_normal(4))
        q = hf.exp_map(hf.HTangent(g.foot, d * n / np.sqrt(minner(n, n))))
        moved = hf.OrientedGeodesic(*g.eval(rng.uniform(-2.0, 2.0)))
        assert hf.dist_to_geodesic(q, moved) == pytest.approx(d, rel=1e-6)


# ---------------------------------------------------------------------------
# Jacobi fields


def test_jacobi_eval_initial_conditions(rng):
    g = rand_geodesic(rng)
    jd = rand_jacobi(rng, g)
    j, jp = hf.jacobi_eval(jd, 0.0)
    assert np.allclose(j.w, jd.j0.w, atol=1e-12)
    assert np.allclose(jp.w, jd.j0p.w, atol=1e-12)


def test_stable_data_decays_exponentially(rng):
    g = rand_geodesic(rng)
    j0 = perp_component(g, rng.standard_normal(4))
    jd = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, -j0))
    n0 = np.sqrt(minner(j0, j0))
    for s in (0.5, 1.0, 2.0, 4.0):
        j, _ = hf.jacobi_eval(jd, s)
        assert np.sqrt(max(minner(j.w, j.w), 0.0)) == pytest.approx(
            np.exp(-s) * n0, rel=1e-10
        )


def test_jacobi_eval_matches_rk4(rng):
    worst = 0.0
    for _ in range(10):
        g = rand_geodesic(rng)
        jd = rand_jacobi(rng, g)
        for s in (0.7, 1.8, 3.0):
            j_num, _ = rk4_jacobi(g, jd.j0.w, jd.j0p.w, s)
            j_cf, _ = hf.jacobi_eval(jd, s)
            worst = max(
                worst, np.linalg.norm(j_cf.w - j_num) / max(np.linalg.norm(j_num), 1.0)
            )
    assert worst < 1e-8


def test_jacobi_orthogonality_preserved(rng):
    g = rand_geodesic(rng)
    jd = rand_jacobi(rng, g)
    for s in np.linspace(-5, 5, 11):
        j, jp = hf.jacobi_eval(jd, s)
        _, vel = g.eval(s)
        scale = max(1.0, np.linalg.norm(j.w))
        assert abs(hf.mink_inner(j.w, vel.w)) < 1e-10 * scale
        assert abs(hf.mink_inner(jp.w, vel.w)) < 1e-10 * scale


def test_jacobi_eval_general_data_satisfies_ode(rng):
    # non-orthogonal data: validate against the same independent integrator
    g = rand_geodesic(rng)
    j0 = hf.project_to_tangent(g.foot, rng.standard_normal(4)).w
    j0p = hf.project_to_tangent(g.foot, rng.standard_normal(4)).w
    jd = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, j0p))
    assert not jd.is_orthogonal
    j_num, _ = rk4_jacobi(g, j0, j0p, 2.0)
    j_cf, _ = hf.jacobi_eval(jd, 2.0)
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
        p = hf.exp_map(hf.HTangent(O, np.concatenate(([0.0], 8.0 * u / np.linalg.norm(u)))))
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
    assert abs(hf.killing_metric(stable)) < 1e-12
    unit = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, np.zeros(4)))
    assert hf.killing_metric(unit) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_killing_norm_of_proportional_data(a):
    # J' = a J gives square norm (1 - a^2) |J(0)|^2
    g = hf.make_geodesic(O, E3)
    j0 = np.array([0.0, 0.7, -0.2, 0.0])
    jd = hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, a * j0))
    want = (1.0 - a * a) * minner(j0, j0)
    assert hf.killing_metric(jd) == pytest.approx(want, abs=1e-10)


def test_killing_metric_rejects_non_orthogonal():
    g = hf.make_geodesic(O, E3)
    jd = hf.JacobiData(g, E3, hf.HTangent(O, np.zeros(4)))
    with pytest.raises(hf.NonOrthogonalJacobiError):
        hf.killing_metric(jd)


def test_metric_geodesic_mismatch(rng):
    g1, g2 = rand_geodesic(rng), rand_geodesic(rng)
    x, y = rand_jacobi(rng, g1), rand_jacobi(rng, g2)
    with pytest.raises(hf.GeodesicMismatchError):
        hf.cross_metric(x, y)
    with pytest.raises(hf.GeodesicMismatchError):
        hf.killing_metric(x, y)


def test_cross_metric_matches_direct_pairing(rng):
    # at moderate arc length the generic cross-product route is accurate;
    # the frame-based evaluation must agree with the defining expression
    for _ in range(20):
        g = rand_geodesic(rng)
        x = rand_jacobi(rng, g)
        for s in (-1.0, 0.0, 0.7):
            pt, vel = g.eval(s)
            j, jp = hf.jacobi_eval(x, s)
            direct = hf.mink_inner(hf.cross(pt, vel, j).w, jp.w)
            assert hf.cross_metric(x, s=s) == pytest.approx(direct, abs=1e-9)


def test_metrics_constant_along_geodesic(rng):
    worst = 0.0
    for _ in range(20):
        g = rand_geodesic(rng)
        x = rand_jacobi(rng, g)
        vals = [hf.cross_metric(x, s=s) for s in np.linspace(-5, 5, 11)]
        worst = max(worst, max(vals) - min(vals))
        kvals = [hf.killing_metric(x, s=s) for s in np.linspace(-5, 5, 11)]
        worst = max(worst, max(kvals) - min(kvals))
    assert worst < 1e-9


def test_signature_two_two(rng):
    for _ in range(20):
        g = rand_geodesic(rng)
        basis = jacobi_basis(g)
        gram_x = np.array([[hf.cross_metric(a, b) for b in basis] for a in basis])
        gram_k = np.array([[hf.killing_metric(a, b) for b in basis] for a in basis])
        for gram in (gram_x, gram_k):
            ev = np.sort(np.linalg.eigvalsh(gram))
            assert ev[0] < -1e-6 and ev[1] < -1e-6
            assert ev[2] > 1e-6 and ev[3] > 1e-6


# ---------------------------------------------------------------------------
# stability


def test_stability_classify_trivials(rng):
    g = rand_geodesic(rng)
    j0 = perp_component(g, rng.standard_normal(4))
    mk = lambda j0p: hf.JacobiData(g, hf.HTangent(g.foot, j0), hf.HTangent(g.foot, j0p))
    assert hf.stability_classify(mk(-j0)) == "stable"
    assert hf.stability_classify(mk(j0)) == "unstable"
    assert hf.stability_classify(mk(np.zeros(4))) == "neither"


# ---------------------------------------------------------------------------
# endpoint maps


def test_gauss_map_through_base(rng):
    v = rand_unit_tangent(rng, O)
    g = hf.make_geodesic(O, v)
    b = hf.gauss_map(g, 1)
    assert np.allclose(b.n, O.v + v.w, atol=1e-12)


def test_gauss_map_reverse_identity(rng):
    g = rand_geodesic(rng)
    fwd = hf.gauss_map(g.reverse(), 1)
    bwd = hf.gauss_map(g, -1)
    assert np.array_equal(fwd.n, bwd.n)


def test_gauss_map_large_s_limit(rng):
    worst = 0.0
    for _ in range(20):
        g = rand_geodesic(rng)
        pt, _ = g.eval(20.0)
        approx = pt.v[1:] / np.linalg.norm(pt.v[1:])
        exact = hf.sphere_coords(hf.gauss_map(g, 1))
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    assert worst < 1e-7


def test_asymptote_vector_at_base():
    b = hf.BoundaryPoint((1.0, 1.0, 0.0, 0.0))
    v = hf.asymptote_vector(O, b)
    assert np.allclose(v.w, E1.w, atol=1e-14)


def test_asymptote_round_trip(rng):
    for _ in range(30):
        p = rand_point(rng, scale=1.5)
        b = hf.boundary_from_sphere(rng.standard_normal(3))
        v = hf.asymptote_vector(p, b)
        assert v.norm_sq == pytest.approx(1.0, abs=1e-9)
        again = hf.gauss_map(hf.make_geodesic(p, v), 1)
        assert hf.same_ray(again, b)


def test_asymptote_field_equation(rng):
    # along any curve: derivative of W is <c', W> W - c'
    worst = 0.0
    for _ in range(10):
        b = hf.boundary_from_sphere(rng.standard_normal(3))
        g = rand_geodesic(rng)
        h = 1e-4
        for t in (-0.5, 0.2, 1.0):
            pt, vel = g.eval(t)
            p_plus, _ = g.eval(t + h)
            p_minus, _ = g.eval(t - h)
            w_here = hf.asymptote_vector(pt, b)
            w_plus = hf.transport_to(hf.asymptote_vector(p_plus, b), pt)
            w_minus = hf.transport_to(hf.asymptote_vector(p_minus, b), pt)
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
        chart = hf.jacobi_variation_chart(stable, generic)
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
    chart = hf.jacobi_variation_chart(unstable, generic)
    _, jac = hf.gauss_map_jacobian(chart, (0.0, 0.0))
    assert np.linalg.norm(jac[:, 0]) < 1e-6
    assert np.linalg.norm(jac[:, 1]) > 1e-3


def test_endpoint_velocity_rank_matches_jacobian(rng):
    g = rand_geodesic(rng)
    j0a = perp_component(g, rng.standard_normal(4))
    j0b = perp_component(g, rng.standard_normal(4))
    stable = hf.JacobiData(g, hf.HTangent(g.foot, j0a), hf.HTangent(g.foot, -j0a))
    generic = hf.JacobiData(g, hf.HTangent(g.foot, j0b), hf.HTangent(g.foot, 0.5 * j0b))
    assert hf.endpoint_velocity_rank(stable, generic) == (1, 2)
    chart = hf.jacobi_variation_chart(stable, generic)
    jac_f, jac_b = hf.gauss_map_jacobian(chart, (0.0, 0.0))
    assert hf.svd_rank(jac_f) == 1
    assert hf.svd_rank(jac_b) == 2


def test_gauss_jacobian_step_underflow():
    _, chart = hf.vertical_family()
    with pytest.raises(hf.NumericalError):
        hf.gauss_map_jacobian(chart, (0.0, 0.0), h=0.0)
