"""The three study families: frames, directions, margins, scans."""

import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hypfol as hf
from hypfol import families
from hypfol.foliation import grid_params
from hypfol.geodesics import endpoint_images
from util import (
    cross,
    cross_form_matrix,
    dist,
    exp_map,
    field_value,
    norm_sq,
    perp_component,
    polar_frame,
    reference_margin,
    reference_scan_lambda_max,
    transport_to,
)

O = hf.ORIGIN
SINH_2 = 3.626860407847019  # frozen from direct evaluation


@pytest.fixture(scope="module")
def params():
    return hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.07, delta=0.1)


# ---------------------------------------------------------------------------
# vertical family


def test_vertical_field_at_base():
    field, _ = hf.vertical_family()
    v = field_value(field, O)
    # the upward direction of the half-space model at (0, 0, 1)
    assert np.allclose(v.w, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_vertical_leaves_share_forward_endpoint():
    assert not hf.VERTICAL_END.flags.writeable
    _, chart = hf.vertical_family()
    for a, b in ((0.0, 0.0), (0.7, -0.4), (-1.0, 1.0)):
        g = chart.map(a, b)
        assert np.array_equal(endpoint_images(g.foot.v, g.dir.w, 1), hf.VERTICAL_END[1:])


def test_vertical_field_is_geodesic():
    field, _ = hf.vertical_family()
    samples = hf.ball_samples(1.0, 10, seed=2)
    assert hf.field_checks(field, samples)[0] < 1e-6


def test_vertical_chart_and_field_agree():
    field, chart = hf.vertical_family()
    g = chart.map(0.3, -0.5)
    v = field_value(field, g.foot)
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
    samples = hf.ball_samples(1.0, 10, seed=3)
    assert hf.field_checks(field, samples)[0] < 1e-6


# ---------------------------------------------------------------------------
# polar frame


def test_polar_frame_orthonormal():
    for r, t in ((1.0, 0.0), (2.0, 1.0), (2.7, 5.9)):
        fr = polar_frame(r, t)
        vecs = (fr.radial, fr.angular, fr.normal)
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                want = 1.0 if i == j else 0.0
                assert abs(hf.mink_inner(a.w, b.w) - want) < 1e-10


def test_polar_frame_normal_is_cross_product():
    fr = polar_frame(2.0, 1.0)
    c = cross(fr.point, fr.radial, fr.angular)
    assert np.max(np.abs(c.w - fr.normal.w)) < 1e-12


def test_polar_frame_is_polar_parametrization():
    r, t = 2.0, 1.0
    fr = polar_frame(r, t)
    want = exp_map(
        hf.HTangent(O, (0.0, r * math.cos(t), r * math.sin(t), 0.0))
    )
    assert dist(fr.point, want) < 1e-12
    # radial is the r-derivative, angular the normalized t-derivative
    h = 1e-6
    dr = (polar_frame(r + h, t).point.v - polar_frame(r - h, t).point.v) / (2 * h)
    dt = (polar_frame(r, t + h).point.v - polar_frame(r, t - h).point.v) / (2 * h)
    assert np.max(np.abs(dr - fr.radial.w)) < 1e-8
    assert np.max(np.abs(dt / math.sinh(r) - fr.angular.w)) < 1e-8


def _frame_derivative(component, along, r, t, h=1e-5):
    """Covariant derivative of a frame component along a frame direction."""
    fr = polar_frame(r, t)
    if along == "radial":
        plus, minus = polar_frame(r + h, t), polar_frame(r - h, t)
        den = 2.0 * h
    else:
        plus, minus = polar_frame(r, t + h), polar_frame(r, t - h)
        den = 2.0 * h * math.sinh(r)  # unit-speed reparametrization
    wp = transport_to(getattr(plus, component), fr.point)
    wm = transport_to(getattr(minus, component), fr.point)
    return (wp.w - wm.w) / den, fr


def test_polar_frame_connection_identities():
    # radial lines are geodesics; the angular direction rotates at coth r
    r, t = 2.0, 1.0
    fr = polar_frame(r, t)
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
        v = hf.spiral_chart(params).map(r, t).dir
        fr = polar_frame(r, t)
        assert norm_sq(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(hf.mink_inner(v.w, fr.radial.w)) < 1e-12


def test_spiral_direction_zero_tilt_is_angular(params):
    # tilt vanishes along t = r - alpha0/lam
    r = 2.0
    t = r - params.alpha0 / params.lam
    v = hf.spiral_chart(params).map(r, t).dir
    fr = polar_frame(r, t)
    assert np.max(np.abs(v.w - fr.angular.w)) < 1e-12


def test_spiral_chart_seeds_on_annulus(params):
    chart = hf.spiral_chart(params)
    g = chart.map(2.0, 1.0)
    assert dist(g.foot, polar_frame(2.0, 1.0).point) < 1e-12


def test_spiral_raw_tangents_match_closed_forms(params):
    # chart_tangent is the orthogonal part of the closed-form raw variation
    chart = hf.spiral_chart(params)
    r, t = 2.0, 1.0
    fr = polar_frame(r, t)
    alpha = params.tilt(r, t)
    lam = params.lam
    for axis, (x, y) in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
        tangent = hf.chart_tangent(chart, (r, t))[axis]
        j0_raw = x * fr.radial.w + y * math.sinh(r) * fr.angular.w
        j0p_raw = (
            -(y * math.cosh(r) * math.cos(alpha)) * fr.radial.w
            + lam * (x - y) * math.sin(alpha) * fr.angular.w
            - lam * (x - y) * math.cos(alpha) * fr.normal.w
        )
        g = tangent.geo
        assert np.max(np.abs(tangent.j0.w - perp_component(g, j0_raw))) < 1e-6
        assert np.max(np.abs(tangent.j0p.w - perp_component(g, j0p_raw))) < 1e-5


def test_spiral_gram_matches_quadratic_form(params, rng):
    chart = hf.spiral_chart(params)
    (r0, r1), (t0, t1) = params.rect
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(r0 + 0.05, r1 - 0.05)
        t = rng.uniform(t0 + 0.05, t1 - 0.05)
        x, y = rng.standard_normal(2)
        q = cross_form_matrix(r, t, params)
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
        q = cross_form_matrix(r, t, params)
        det = float(np.linalg.det(q))
        want = 0.25 * params.lam * hf.definiteness_margin(r, t, params)
        assert det == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_scan_lambda_max():
    scan = hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1)
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


def _tilt_leaves(alpha0, delta, lam):
    """Whether the tilt, in the margin's operations, leaves ``(0, pi/2)`` at
    a corner of the rectangle: its least and largest ``t - r`` are those of
    ``(3, -delta)`` and ``(1, 2 pi + delta)``."""
    (r0, r1), (t0, t1) = hf.SpiralParams(alpha0, families.LAMBDA_SCAN_CAP, delta).rect
    return not (0.0 < lam * (t0 - r1) + alpha0 and lam * (t1 - r0) + alpha0 <= 0.5 * math.pi)


def _grid_margin(alpha0, delta, grid, lam):
    """The least ``definiteness_margin`` on the grid."""
    r = np.linspace(1.0, 3.0, grid[0])[:, None]
    t = np.linspace(-delta, 2.0 * math.pi + delta, grid[1])
    return hf.definiteness_margin(r, t, hf.SpiralParams(alpha0, lam, delta)).min()


@pytest.mark.parametrize("grid", [(40, 55), (7, 300)])
@pytest.mark.parametrize("alpha0", [math.pi / 4.0, 0.55])
def test_scan_lambda_trace_is_the_grid_minimum_of_the_margin(grid, alpha0):
    # where the tilt stays in (0, pi/2), a trace value is the grid minimum
    # bit for bit; where it leaves, it is -lam, the margin where the tilt
    # meets 0 or pi/2
    scan = hf.scan_lambda_max(alpha0=alpha0, delta=0.1)
    rr = np.linspace(1.0, 3.0, grid[0])[:, None]
    tt = np.linspace(-0.1, 2.0 * math.pi + 0.1, grid[1])[None, :]
    for lam, value in scan.trace:
        if _tilt_leaves(alpha0, 0.1, lam):
            assert value == -lam
            continue
        want = float(hf.definiteness_margin(rr, tt, hf.SpiralParams(alpha0, lam, 0.1)).min())
        written_out = float((np.sinh(2.0 * rr) * np.sin(2.0 * (alpha0 + lam * (tt - rr))) - lam).min())
        assert value.hex() == want.hex() == written_out.hex()
    assert scan.lambda_max == max(lam for lam, value in scan.trace if value > 0.0)


_alpha0s = st.one_of(
    st.sampled_from([1e-300, 1e-13, 1e-6, math.pi / 4.0, math.pi / 2.0 - 1e-6]),
    st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
)
_deltas = st.one_of(st.sampled_from([1e-300, 1e-6, 5.0]), st.floats(0.0, 5.0, exclude_min=True))
_sizes = st.integers(2, 400)
#: square-ish grids and the skewed 2 x M and N x 2 shapes
_grids = st.one_of(st.tuples(_sizes, _sizes), st.tuples(st.just(2), _sizes), st.tuples(_sizes, st.just(2)))


@given(_alpha0s, _deltas, _grids)
def test_scan_lambda_max_matches_full_grid_bisection(alpha0, delta, grid):
    # the corner scan is the grid bisection bit for bit unless the grid
    # bisection finds a positive minimum at a pitch whose tilt leaves
    # (0, pi/2), a grid that misses the zero of the margin where the tilt
    # meets 0 or pi/2; on every draw lambda_max is at the grid's threshold
    try:
        ref = reference_scan_lambda_max(alpha0=alpha0, delta=delta, grid=grid)
    except hf.GeometryError as exc:
        with pytest.raises(hf.GeometryError, match=f"^{re.escape(str(exc))}$"):
            hf.scan_lambda_max(alpha0=alpha0, delta=delta)
        return
    scan = hf.scan_lambda_max(alpha0=alpha0, delta=delta)
    if not any(value > 0.0 and _tilt_leaves(alpha0, delta, lam) for lam, value in ref.trace):
        def positive(result):
            return [(lam.hex(), value.hex()) for lam, value in result.trace if value > 0.0]

        assert scan.lambda_max.hex() == ref.lambda_max.hex()
        assert [lam for lam, _ in scan.trace] == [lam for lam, _ in ref.trace]
        assert positive(scan) == positive(ref)
    # within the scan's stated width, 1e-9 relative above the least normal float
    lam = scan.lambda_max
    above = lam + 1e-9 * max(lam, sys.float_info.min)
    assert _grid_margin(alpha0, delta, grid, lam) > 0.0 >= _grid_margin(alpha0, delta, grid, above)


@given(
    _alpha0s,
    _deltas,
    st.tuples(st.integers(2, 60), st.integers(2, 60)),
    st.floats(0.0, 14.0),
)
def test_margin_grid_minimum_is_at_a_corner(alpha0, delta, grid, decades):
    # with the tilt in (0, pi/2) the margin's logarithm is concave, so its
    # least grid cell, in the margin's float operations, is a corner cell
    lam = min(alpha0 / (3.0 + delta), (0.5 * math.pi - alpha0) / (2.0 * math.pi + delta - 1.0)) * 10.0**-decades
    assume(lam > 0.0 and not _tilt_leaves(alpha0, delta, lam))
    r, t = hf.grid_axes(hf.spiral_chart(hf.SpiralParams(alpha0, lam, delta)), grid)
    margin = hf.definiteness_margin(r[:, None], t, hf.SpiralParams(alpha0, lam, delta))
    assert margin.min() == margin[[0, 0, -1, -1], [0, -1, 0, -1]].min()


_lams = st.one_of(st.sampled_from([1e-300, families.LAMBDA_SCAN_CAP]), st.floats(1e-300, families.LAMBDA_SCAN_CAP))


def _hex(values):
    return [x.hex() for x in np.ravel(values).tolist()]


@given(_alpha0s, _lams, _deltas, st.tuples(st.integers(2, 40), st.integers(2, 40)), st.data())
def test_margin_is_the_in_place_oracle_bit_for_bit(alpha0, lam, delta, grid, data):
    # the one spelling of the margin makes the in-place oracle's operations
    # up to commutation, on scalars, on (n, 1) x (m,) grids and on the flat
    # blocks of the scan-lambda CSV
    params = hf.SpiralParams(alpha0, lam, delta)
    axes = hf.grid_axes(hf.spiral_chart(params), grid)
    start = data.draw(st.integers(0, grid[0] * grid[1] - 1))
    block = grid_params(axes, slice(start, data.draw(st.integers(start + 1, grid[0] * grid[1]))))
    point = data.draw(st.floats(1.0, 3.0)), data.draw(st.floats(-delta, 2.0 * math.pi + delta))
    for r, t in (point, (axes[0][:, None], axes[1]), block):
        want = reference_margin(np.sinh(2.0 * r), np.subtract(t, r), alpha0, lam, np.empty(np.broadcast(r, t).shape))
        assert _hex(hf.definiteness_margin(r, t, params)) == _hex(want)


@given(
    st.one_of(
        st.sampled_from([2e-13, 1.5707963267946]),
        st.floats(1e-300, 1e-11),
        st.floats(math.pi / 2.0 - 1e-11, math.pi / 2.0, exclude_max=True),
    ),
    st.floats(1e-6, 50.0),
    st.tuples(st.integers(2, 40), st.integers(2, 40)),
)
def test_scan_lambda_max_near_the_ends_of_the_tilt_range(alpha0, delta, grid):
    # a tilt too close to 0 or pi/2 for the pitch 1e-12 still has a positive pitch
    scan = hf.scan_lambda_max(alpha0=alpha0, delta=delta)
    assert scan.lambda_max > 0.0
    assert _grid_margin(alpha0, delta, grid, scan.lambda_max) > 0.0


@pytest.mark.parametrize("alpha0", [2e-13, 1e-11])
def test_scan_lambda_max_bisects_tiny_pitches_to_the_grid_threshold(alpha0):
    # a pitch below 1e-12 is bisected to 1e-9 relative, not left at its lower
    # bracket; the 2 x 2 grid is the rectangle's corners
    scan = hf.scan_lambda_max(alpha0=alpha0)
    lam = scan.lambda_max
    assert _grid_margin(alpha0, 0.1, (2, 2), lam) > 0.0 >= _grid_margin(alpha0, 0.1, (2, 2), lam * (1.0 + 1e-9))


@pytest.mark.parametrize("alpha0", [0.5, math.pi / 4.0, 1.0])
def test_scan_lambda_max_evaluates_few_cells(monkeypatch, alpha0):
    cells = []
    margin = families.definiteness_margin

    def counted(r, t, params):
        cells.append(np.broadcast(r, t).size)
        return margin(r, t, params)

    monkeypatch.setattr(families, "definiteness_margin", counted)
    scan = hf.scan_lambda_max(alpha0=alpha0, delta=0.1)
    assert len(scan.trace) == 50
    # at most one evaluation of the four corners per bisection step
    assert len(cells) <= len(scan.trace) and max(cells) <= 4


def test_scan_lambda_max_at_a_vanishing_tilt_is_fast():
    # about 1030 bisection steps, nearly all at pitches whose tilt leaves
    # (0, pi/2), which evaluate no margin
    times = []
    for _ in range(3):
        start = time.perf_counter()
        scan = hf.scan_lambda_max(alpha0=1e-300, delta=0.1)
        times.append(time.perf_counter() - start)
    assert min(times) <= 0.01
    assert scan.lambda_max == reference_scan_lambda_max(alpha0=1e-300, delta=0.1, grid=(2, 2)).lambda_max


def test_spiral_params_validation():
    with pytest.raises(hf.GeometryError):
        hf.SpiralParams(alpha0=0.0, lam=0.1)
    with pytest.raises(hf.GeometryError):
        hf.SpiralParams(alpha0=0.5, lam=-1.0)
    with pytest.raises(hf.GeometryError):
        hf.SpiralParams(alpha0=0.5, lam=0.1, delta=0.0)
