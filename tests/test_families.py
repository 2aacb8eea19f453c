"""The three study families: frames, directions, margins, scans."""

import math

import numpy as np
import pytest

import hypfol as hf
from util import minner

O = hf.ORIGIN
SINH_2 = 3.626860407847019  # frozen from direct evaluation


@pytest.fixture(scope="module")
def params():
    return hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.07, delta=0.1)


# ---------------------------------------------------------------------------
# vertical family


def test_vertical_field_at_base():
    field, _ = hf.vertical_family()
    v = field.func(O)
    # the upward direction of the half-space model at (0, 0, 1)
    assert np.allclose(v.w, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_vertical_leaves_share_forward_endpoint():
    _, chart = hf.vertical_family()
    for a, b in ((0.0, 0.0), (0.7, -0.4), (-1.0, 1.0)):
        end = hf.gauss_map(chart.map(a, b), 1)
        assert np.array_equal(end.n, hf.VERTICAL_END.n)


def test_vertical_field_is_geodesic():
    field, _ = hf.vertical_family()
    samples = hf.ball_samples(O, 1.0, 10, seed=2)
    assert hf.check_geodesic_field(field, samples) < 1e-6


def test_vertical_chart_and_field_agree():
    field, chart = hf.vertical_family()
    g = chart.map(0.3, -0.5)
    v = field.func(g.foot)
    assert np.max(np.abs(v.w - g.dir.w)) < 1e-9


# ---------------------------------------------------------------------------
# plane-normal family


def test_plane_normal_leaf_through_base():
    _, chart = hf.plane_normal_family()
    g = chart.map(0.0, 0.0)
    assert np.allclose(g.foot.v, O.v)
    assert np.allclose(g.dir.w, [0.0, 0.0, 0.0, 1.0])


def test_plane_normal_derivative_vanishes_on_plane():
    _, chart = hf.plane_normal_family()
    for params in ((0.0, 0.0), (0.5, -0.2)):
        for x in hf.chart_tangent(chart, params):
            assert np.max(np.abs(x.j0p.w)) < 1e-9


def test_plane_normal_classifies_semidefinite():
    _, chart = hf.plane_normal_family()
    rep = hf.classify_chart(chart, grid=(8, 8))
    assert rep.aggregate == "semidefinite"


def test_plane_normal_field_is_geodesic():
    field, _ = hf.plane_normal_family()
    samples = hf.ball_samples(O, 1.0, 10, seed=3)
    assert hf.check_geodesic_field(field, samples) < 1e-6


# ---------------------------------------------------------------------------
# polar frame


def test_polar_frame_orthonormal():
    for r, t in ((1.0, 0.0), (2.0, 1.0), (2.7, 5.9)):
        fr = hf.polar_frame(r, t)
        vecs = (fr.radial, fr.angular, fr.normal)
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                want = 1.0 if i == j else 0.0
                assert abs(hf.mink_inner(a.w, b.w) - want) < 1e-10


def test_polar_frame_normal_is_cross_product():
    fr = hf.polar_frame(2.0, 1.0)
    c = hf.cross(fr.point, fr.radial, fr.angular)
    assert np.max(np.abs(c.w - fr.normal.w)) < 1e-12


def test_polar_frame_is_polar_parametrization():
    r, t = 2.0, 1.0
    fr = hf.polar_frame(r, t)
    want = hf.exp_map(
        hf.HTangent(O, (0.0, r * math.cos(t), r * math.sin(t), 0.0))
    )
    assert hf.dist(fr.point, want) < 1e-12
    # radial is the r-derivative, angular the normalized t-derivative
    h = 1e-6
    dr = (hf.polar_frame(r + h, t).point.v - hf.polar_frame(r - h, t).point.v) / (2 * h)
    dt = (hf.polar_frame(r, t + h).point.v - hf.polar_frame(r, t - h).point.v) / (2 * h)
    assert np.max(np.abs(dr - fr.radial.w)) < 1e-8
    assert np.max(np.abs(dt / math.sinh(r) - fr.angular.w)) < 1e-8


def _frame_derivative(component, along, r, t, h=1e-5):
    """Covariant derivative of a frame component along a frame direction."""
    fr = hf.polar_frame(r, t)
    if along == "radial":
        plus, minus = hf.polar_frame(r + h, t), hf.polar_frame(r - h, t)
        den = 2.0 * h
    else:
        plus, minus = hf.polar_frame(r, t + h), hf.polar_frame(r, t - h)
        den = 2.0 * h * math.sinh(r)  # unit-speed reparametrization
    wp = hf.transport_to(getattr(plus, component), fr.point)
    wm = hf.transport_to(getattr(minus, component), fr.point)
    return (wp.w - wm.w) / den, fr


def test_polar_frame_connection_identities():
    # radial lines are geodesics; the angular direction rotates at coth r
    r, t = 2.0, 1.0
    fr = hf.polar_frame(r, t)
    cases = {
        ("radial", "radial"): np.zeros(4),
        ("angular", "radial"): np.zeros(4),
        ("normal", "radial"): np.zeros(4),
        ("radial", "angular"): (1.0 / math.tanh(r)) * fr.angular.w,
        ("angular", "angular"): -(1.0 / math.tanh(r)) * fr.radial.w,
        ("normal", "angular"): np.zeros(4),
    }
    for (component, along), want in cases.items():
        got, _ = _frame_derivative(component, along, r, t)
        assert np.max(np.abs(got - want)) < 1e-5, (component, along)


# ---------------------------------------------------------------------------
# spiral directions and chart


def test_spiral_direction_unit_and_orthogonal_to_radial(params):
    for r, t in ((1.2, 0.3), (2.0, 4.0), (2.9, 6.0)):
        v = hf.spiral_direction(r, t, params)
        fr = hf.polar_frame(r, t)
        assert v.norm_sq == pytest.approx(1.0, abs=1e-12)
        assert abs(hf.mink_inner(v.w, fr.radial.w)) < 1e-12


def test_spiral_direction_zero_tilt_is_angular(params):
    # tilt vanishes along t = r - alpha0/lam
    r = 2.0
    t = r - params.alpha0 / params.lam
    v = hf.spiral_direction(r, t, params)
    fr = hf.polar_frame(r, t)
    assert np.max(np.abs(v.w - fr.angular.w)) < 1e-12


def test_spiral_chart_seeds_on_annulus(params):
    chart = hf.spiral_chart(params)
    g = chart.map(2.0, 1.0)
    assert hf.dist(g.foot, hf.polar_frame(2.0, 1.0).point) < 1e-12


def test_spiral_raw_tangents_match_closed_forms(params):
    chart = hf.spiral_chart(params)
    r, t = 2.0, 1.0
    fr = hf.polar_frame(r, t)
    alpha = params.tilt(r, t)
    lam = params.lam
    for axis, (x, y) in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
        raw = hf.chart_variation_raw(chart, (r, t))[axis]
        j0_want = x * fr.radial.w + y * math.sinh(r) * fr.angular.w
        j0p_want = (
            -(y * math.cosh(r) * math.cos(alpha)) * fr.radial.w
            + lam * (x - y) * math.sin(alpha) * fr.angular.w
            - lam * (x - y) * math.cos(alpha) * fr.normal.w
        )
        assert np.max(np.abs(raw.j0.w - j0_want)) < 1e-6
        assert np.max(np.abs(raw.j0p.w - j0p_want)) < 1e-5


def test_spiral_gram_matches_quadratic_form(params, rng):
    chart = hf.spiral_chart(params)
    (r0, r1), (t0, t1) = params.rect
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(r0 + 0.05, r1 - 0.05)
        t = rng.uniform(t0 + 0.05, t1 - 0.05)
        x, y = rng.standard_normal(2)
        q = hf.cross_form_matrix(r, t, params)
        want = float(np.array([x, y]) @ q @ np.array([x, y]))
        x0, x1 = hf.chart_tangent(chart, (r, t))
        got = (
            x * x * hf.cross_metric(x0)
            + 2.0 * x * y * hf.cross_metric(x0, x1)
            + y * y * hf.cross_metric(x1)
        )
        scale = max(1.0, abs(want))
        worst = max(worst, abs(got - want) / scale)
    assert worst < 1e-5


def test_spiral_radial_norm_is_pitch(params):
    chart = hf.spiral_chart(params)
    for r, t in ((1.3, 0.0), (2.0, 2.0), (2.8, 5.5)):
        x0, _ = hf.chart_tangent(chart, (r, t))
        assert hf.cross_metric(x0) == pytest.approx(params.lam, rel=1e-6)


# ---------------------------------------------------------------------------
# margin function and pitch scan


def test_margin_direct_value(params):
    # at t = r the tilt is alpha0 = pi/4, so the margin is sinh(2r) - lam
    assert hf.definiteness_margin(1.0, 1.0, params) == pytest.approx(
        SINH_2 - params.lam, abs=1e-12
    )


def test_margin_small_pitch_limit():
    alpha0, delta = 0.6, 0.1
    for r, t in ((1.0, 0.0), (2.2, 3.0), (3.0, 6.3)):
        limit = math.sinh(2.0 * r) * math.sin(2.0 * alpha0)
        p = hf.SpiralParams(alpha0=alpha0, lam=1e-9, delta=delta)
        assert hf.definiteness_margin(r, t, p) == pytest.approx(limit, abs=1e-6)


def test_margin_determinant_identity(params, rng):
    for _ in range(20):
        r = rng.uniform(1.0, 3.0)
        t = rng.uniform(-0.1, 2.0 * math.pi + 0.1)
        q = hf.cross_form_matrix(r, t, params)
        det = float(np.linalg.det(q))
        want = 0.25 * params.lam * hf.definiteness_margin(r, t, params)
        assert det == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_scan_lambda_max():
    scan = hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1, grid=(200, 200))
    assert scan.lambda_max > 0.0
    # positive margin on the whole grid at the scan value
    p = hf.SpiralParams(alpha0=math.pi / 4.0, lam=scan.lambda_max, delta=0.1)
    rr = np.linspace(1.0, 3.0, 200)
    tt = np.linspace(-0.1, 2.0 * math.pi + 0.1, 200)
    margins = np.array(
        [hf.definiteness_margin(r, t, p) for r in rr[::10] for t in tt[::10]]
    )
    assert margins.min() > 0.0
    # doubling the pitch breaks positivity somewhere on the grid
    p2 = hf.SpiralParams(alpha0=math.pi / 4.0, lam=2.0 * scan.lambda_max, delta=0.1)
    worst = min(hf.definiteness_margin(r, t, p2) for r in rr[::4] for t in tt[::4])
    assert worst < 0.0
    # the trace records the bisection schedule
    assert len(scan.trace) > 10
    assert all(lam > 0.0 for lam, _ in scan.trace)


def test_spiral_params_validation():
    with pytest.raises(hf.GeometryError):
        hf.SpiralParams(alpha0=0.0, lam=0.1)
    with pytest.raises(hf.GeometryError):
        hf.SpiralParams(alpha0=0.5, lam=-1.0)
    with pytest.raises(hf.GeometryError):
        hf.SpiralParams(alpha0=0.5, lam=0.1, delta=0.0)
