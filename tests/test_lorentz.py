"""Hyperboloid model: inner product, exp/log, transport, cross, models, boundary."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from util import minner, rand_point, rand_unit_tangent

O = hf.ORIGIN
E1 = hf.HTangent(O, (0.0, 1.0, 0.0, 0.0))
E2 = hf.HTangent(O, (0.0, 0.0, 1.0, 0.0))
E3 = hf.HTangent(O, (0.0, 0.0, 0.0, 1.0))

coords = st.floats(-2.0, 2.0, allow_nan=False)


def test_mink_inner_signature():
    assert hf.mink_inner(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0])) == -1.0
    assert hf.mink_inner(np.array([0.0, 1, 0, 0]), np.array([0.0, 1, 0, 0])) == 1.0
    assert hf.mink_inner(np.array([1.0, 1, 0, 0]), np.array([1.0, 1, 0, 0])) == 0.0


def test_mink_inner_symmetric(rng):
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    assert hf.mink_inner(a, b) == pytest.approx(hf.mink_inner(b, a), abs=1e-15)


def test_mink_vec_constructor():
    v = hf.mink_vec(1.0, 2.0, 3.0, 4.0)
    assert v.shape == (4,)
    assert not v.flags.writeable
    with pytest.raises(hf.GeometryError):
        hf.mink_vec(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(hf.GeometryError):
        hf.mink_vec(np.inf, 0.0, 0.0, 0.0)


def test_constructors_reject_bad_data():
    with pytest.raises(hf.GeometryError):
        hf.HPoint((1.0, 0.5, 0.0, 0.0))  # not on the hyperboloid
    with pytest.raises(hf.GeometryError):
        hf.HPoint((-1.0, 0.0, 0.0, 0.0))  # past sheet
    with pytest.raises(hf.GeometryError):
        hf.HPoint((np.inf, 0.0, 0.0, 0.0))
    with pytest.raises(hf.GeometryError):
        hf.HTangent(O, (1.0, 0.0, 0.0, 0.0))  # not tangent
    with pytest.raises(hf.GeometryError):
        hf.BoundaryPoint((1.0, 1.0, 1.0, 0.0))  # not null


def test_exp_map_trivials():
    assert hf.exp_map(hf.HTangent(O, np.zeros(4))) is O
    s = 1.3
    p = hf.exp_map(hf.HTangent(O, (0.0, s, 0.0, 0.0)))
    assert np.allclose(p.v, [np.cosh(s), np.sinh(s), 0.0, 0.0])


def test_dist_trivials():
    assert hf.dist(O, O) == 0.0
    q = hf.HPoint((np.cosh(2.0), np.sinh(2.0), 0.0, 0.0))
    assert hf.dist(O, q) == pytest.approx(2.0, abs=1e-12)


@given(coords, coords, coords)
def test_exp_dist_consistency(x, y, z):
    w = hf.HTangent(O, (0.0, x, y, z))
    assert hf.dist(O, hf.exp_map(w)) == pytest.approx(w.norm, abs=1e-10)


def test_log_map_trivials():
    assert np.allclose(hf.log_map(O, O).w, 0.0)
    q = hf.HPoint((np.cosh(1.0), np.sinh(1.0), 0.0, 0.0))
    w = hf.log_map(O, q)
    assert np.allclose(w.w, [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_exp_log_round_trip(rng):
    worst = 0.0
    for _ in range(100):
        p = rand_point(rng, scale=0.8)
        w = rand_unit_tangent(rng, p)
        r = rng.uniform(0.0, 10.0)
        t = hf.HTangent(p, r * w.w)
        back = hf.log_map(p, hf.exp_map(t))
        worst = max(worst, float(np.max(np.abs(back.w - t.w))))
    assert worst < 1e-10


def test_dist_triangle_inequality(rng):
    for _ in range(50):
        p, q, r = (rand_point(rng, scale=1.5) for _ in range(3))
        assert hf.dist(p, r) <= hf.dist(p, q) + hf.dist(q, r) + 1e-12


def test_dist_symmetric_and_separating(rng):
    p, q = rand_point(rng), rand_point(rng)
    assert hf.dist(p, q) == pytest.approx(hf.dist(q, p), abs=1e-14)
    assert hf.dist(p, p) == 0.0
    assert hf.dist(p, q) > 0.0


# ---------------------------------------------------------------------------
# parallel transport


def test_transport_moves_velocity_to_velocity():
    g = hf.make_geodesic(O, E1)
    moved = hf.transport_along(g.dir, 0.7, g.dir)
    _, vel = g.eval(0.7)
    assert np.allclose(moved.w, vel.w, atol=1e-12)


def test_transport_is_isometry(rng):
    from util import rand_geodesic

    for _ in range(20):
        g = rand_geodesic(rng)
        t = rand_unit_tangent(rng, g.foot)
        moved = hf.transport_along(g.dir, 1.3, t)
        assert moved.norm_sq == pytest.approx(t.norm_sq, abs=1e-12)


def test_transport_round_trip(rng):
    from util import rand_geodesic

    worst = 0.0
    for _ in range(100):
        g = rand_geodesic(rng, scale=0.3)
        s = rng.uniform(-3.0, 3.0)
        t = rand_unit_tangent(rng, g.foot)
        moved = hf.transport_along(g.dir, s, t)
        pt, vel = g.eval(s)
        back = hf.transport_along(vel, -s, moved)
        worst = max(worst, float(np.max(np.abs(back.w - t.w))))
    assert worst < 1e-12


def test_transport_gram_preservation(rng):
    from util import rand_geodesic

    worst = 0.0
    for _ in range(30):
        g = rand_geodesic(rng)
        # orthonormal tangent triple at the foot
        triple = []
        for _k in range(3):
            w = hf.project_to_tangent(g.foot, rng.standard_normal(4)).w
            for f in triple:
                w = w - minner(w, f.w) * f.w
            triple.append(hf.HTangent(g.foot, w).normalized())
        moved = [hf.transport_along(g.dir, 2.1, t) for t in triple]
        for i in range(3):
            for j in range(3):
                want = 1.0 if i == j else 0.0
                worst = max(worst, abs(hf.mink_inner(moved[i].w, moved[j].w) - want))
    assert worst < 1e-12


def test_transport_base_mismatch():
    g = hf.make_geodesic(O, E1)
    p = hf.exp_map(hf.HTangent(O, (0.0, 0.0, 0.9, 0.0)))
    t = hf.project_to_tangent(p, np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(hf.BaseMismatchError):
        hf.transport_along(g.dir, 1.0, t)


# ---------------------------------------------------------------------------
# cross product


def test_cross_orientation_convention():
    assert np.allclose(hf.cross(O, E1, E2).w, E3.w, atol=1e-14)
    assert np.allclose(hf.cross(O, E2, E3).w, E1.w, atol=1e-14)
    assert np.allclose(hf.cross(O, E3, E1).w, E2.w, atol=1e-14)


def test_cross_antisymmetry_and_orthogonality(rng):
    for _ in range(30):
        p = rand_point(rng)
        a = hf.project_to_tangent(p, rng.standard_normal(4))
        b = hf.project_to_tangent(p, rng.standard_normal(4))
        c = hf.cross(p, a, b)
        scale = max(1.0, float(np.max(np.abs(a.w))) ** 2)
        assert np.allclose(hf.cross(p, a, a).w, 0.0, atol=1e-12 * scale)
        assert abs(hf.mink_inner(c.w, a.w)) < 1e-10 * scale
        assert abs(hf.mink_inner(c.w, b.w)) < 1e-10 * scale
        want = a.norm_sq * b.norm_sq - hf.mink_inner(a.w, b.w) ** 2
        assert c.norm_sq == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_cross_base_mismatch():
    p = hf.exp_map(hf.HTangent(O, (0.0, 1.0, 0.0, 0.0)))
    with pytest.raises(hf.BaseMismatchError):
        hf.cross(p, E1, E2)


# ---------------------------------------------------------------------------
# model conversions


def test_half_space_convention():
    assert np.allclose(hf.to_half_space(O), [0.0, 0.0, 1.0])
    assert np.allclose(hf.from_half_space(0.0, 0.0, 1.0).v, O.v, atol=1e-15)
    # the geodesic leaving the base point along e3 is the vertical line
    g = hf.make_geodesic(O, E3)
    for t in (-1.0, 0.3, 2.0):
        pt, _ = g.eval(t)
        assert np.allclose(hf.to_half_space(pt), [0.0, 0.0, np.exp(t)], atol=1e-12)


def test_half_space_rejects_nonpositive_z():
    with pytest.raises(hf.GeometryError):
        hf.from_half_space(0.0, 0.0, 0.0)
    with pytest.raises(hf.GeometryError):
        hf.from_half_space(0.1, 0.2, -1.0)


def _half_space_dist(a, b):
    # independent distance formula of the half-space model
    diff = np.asarray(a) - np.asarray(b)
    return np.arccosh(1.0 + float(np.dot(diff, diff)) / (2.0 * a[2] * b[2]))


def test_model_conversions_preserve_distance(rng):
    worst_h = worst_b = 0.0
    for _ in range(50):
        p, q = rand_point(rng, scale=2.0), rand_point(rng, scale=2.0)
        if hf.dist(p, q) > 8.0:
            continue
        dh = _half_space_dist(hf.to_half_space(p), hf.to_half_space(q))
        worst_h = max(worst_h, abs(dh - hf.dist(p, q)))
        rp = hf.from_ball(hf.to_ball(p))
        worst_b = max(worst_b, hf.dist(rp, p))
    assert worst_h < 1e-9
    assert worst_b < 1e-9


def test_ball_range_and_round_trip(rng):
    for _ in range(20):
        p = rand_point(rng, scale=2.0)
        u = hf.to_ball(p)
        assert np.linalg.norm(u) < 1.0
        assert np.allclose(hf.from_ball(u).v, p.v, atol=1e-9 * max(1.0, np.max(np.abs(p.v))))
    hs = hf.to_half_space(p)
    back = hf.from_half_space(*hs)
    assert hf.dist(back, p) < 1e-9


def test_convert_model_dispatch():
    assert np.allclose(hf.convert_model(O, "ball"), 0.0)
    with pytest.raises(hf.GeometryError):
        hf.convert_model(O, "klein")


# ---------------------------------------------------------------------------
# ideal boundary


def test_boundary_chart_convention():
    b = hf.BoundaryPoint((1.0, 1.0, 0.0, 0.0))
    assert np.allclose(hf.sphere_coords(b), [1.0, 0.0, 0.0])
    u = np.array([0.3, -0.4, 0.5])
    back = hf.sphere_coords(hf.boundary_from_sphere(u))
    assert np.allclose(back, u / np.linalg.norm(u), atol=1e-14)


def test_boundary_normalization_exact():
    b = hf.BoundaryPoint((2.0, 0.0, 0.0, 2.0))
    assert b.n[0] == 1.0
    assert np.allclose(b.n, [1.0, 0.0, 0.0, 1.0])


def test_endpoint_antipodes_only_through_base(rng):
    # through the base point the two endpoints are antipodal on the sphere...
    v = rand_unit_tangent(rng, O)
    g = hf.make_geodesic(O, v)
    fwd = hf.sphere_coords(hf.gauss_map(g, 1))
    bwd = hf.sphere_coords(hf.gauss_map(g, -1))
    assert np.allclose(fwd, -bwd, atol=1e-12)
    # ...but not in general
    p = hf.exp_map(hf.HTangent(O, (0.0, 1.0, 0.0, 0.0)))
    g2 = hf.make_geodesic(p, hf.project_to_tangent(p, np.array([0.0, 0.0, 0.0, 1.0])).normalized())
    fwd2 = hf.sphere_coords(hf.gauss_map(g2, 1))
    bwd2 = hf.sphere_coords(hf.gauss_map(g2, -1))
    assert not np.allclose(fwd2, -bwd2, atol=1e-6)
