"""Chart tangents, classifiers, field operators, intersections, critical points."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from util import (
    CROSS_FORM,
    KILLING_FORM,
    collapsed_chart,
    counting_chart,
    frame_coords,
    minner,
    rand_geodesic,
    rand_point,
)

O = hf.ORIGIN


@pytest.fixture(scope="module")
def vertical():
    return hf.vertical_family()


@pytest.fixture(scope="module")
def plane_normal():
    return hf.plane_normal_family()


@pytest.fixture(scope="module")
def spiral():
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.07, delta=0.1)
    return params, hf.spiral_chart(params)


# ---------------------------------------------------------------------------
# chart tangents


def test_chart_tangent_zero_on_constant_axis():
    _, chart = hf.plane_normal_family()
    _, x = hf.chart_tangent(collapsed_chart(chart), (0.2, -0.1))
    assert np.linalg.norm(x.j0.w) < 1e-12
    assert np.linalg.norm(x.j0p.w) < 1e-12


def test_chart_tangent_is_orthogonal_jacobi_data(spiral):
    _, chart = spiral
    x, _ = hf.chart_tangent(chart, (1.7, 2.3))
    assert x.is_orthogonal


def test_chart_tangent_radial_axis_recovers_frame_field(spiral):
    params, chart = spiral
    fr = hf.polar_frame(2.0, 0.5)
    x, _ = hf.chart_tangent(chart, (2.0, 0.5))
    # the radial-axis variation is already orthogonal, so J(0) is the radial vector
    assert np.max(np.abs(x.j0.w - fr.radial.w)) < 1e-6


def test_chart_tangent_schemes_consistent(spiral):
    _, chart = spiral
    params = (1.9, 1.1)
    _, central = hf.chart_tangent(chart, params, h=1e-4)
    _, half = hf.chart_tangent(chart, params, h=5e-5)
    assert np.max(np.abs(central.j0.w - half.j0.w)) < 1e-6


def test_chart_tangent_bad_axis_and_step(spiral):
    _, chart = spiral
    with pytest.raises(hf.NumericalError):
        hf.chart_tangent(chart, (2.0, 1.0), h=0.0)


# ---------------------------------------------------------------------------
# classification


def test_classify_point_on_families(vertical, plane_normal, spiral):
    _, chartv = vertical
    _, chartp = plane_normal
    _, charts = spiral
    assert hf.classify_point(chartv, (0.3, -0.2)).verdict == "almost_semidefinite"
    assert hf.classify_point(chartp, (0.3, -0.2)).verdict == "semidefinite"
    assert hf.classify_point(charts, (2.0, 3.0)).verdict == "definite"


def test_classify_evaluates_chart_arrays_three_times(spiral):
    # the leaves, then one complex step per parameter, whatever the grid
    _, chart = spiral
    calls = []
    assert hf.classify_point(counting_chart(chart, calls), (2.0, 3.0)).verdict == "definite"
    assert calls == [1, 1, 1]
    for grid in ((2, 2), (7, 5)):
        calls.clear()
        assert hf.classify_chart(counting_chart(chart, calls), grid=grid).aggregate == "definite"
        assert calls == [grid[0] * grid[1]] * 3


def test_classify_point_builds_no_frame(vertical, spiral, monkeypatch):
    # Gram matrix, Killing values and energies come from determinants and
    # Minkowski pairings of the ambient Jacobi data
    frames = []
    builder = hf.lorentz.orthonormal_complement

    def counted(rows):
        frames.append(rows)
        return builder(rows)

    for module in (hf.geodesics, hf.foliation):
        monkeypatch.setattr(module, "orthonormal_complement", counted)
    cases = ((vertical, (0.3, 0.2), "almost_semidefinite"), (spiral, (2.0, 3.0), "definite"))
    for (_, chart), params, verdict in cases:
        assert hf.classify_point(chart, params).verdict == verdict
    assert frames == []


def _energy(x):
    return float(np.linalg.norm(frame_coords(x)))


def _scaled(x, factor):
    foot = x.geo.foot
    return hf.JacobiData(x.geo, hf.HTangent(foot, factor * x.j0.w), hf.HTangent(foot, factor * x.j0p.w))


def _kernel_tangents(chart, params):
    """The kernel's two unit-energy axis tangents at one sample, as Jacobi data."""
    jets = hf.chart_jets(chart, [params[0]], [params[1]])
    foot = hf.HPoint(jets.foot[0])
    geo = hf.OrientedGeodesic(foot, hf.HTangent(foot, jets.dir[0]))
    return [
        hf.JacobiData(geo, hf.HTangent(foot, 0.5 * (p + m)), hf.HTangent(foot, 0.5 * (p - m)))
        for p, m in zip(jets.unit_plus[:, 0], jets.unit_minus[:, 0])
    ]


def test_classify_point_matches_metrics_of_normalized_tangents(vertical, plane_normal):
    # every branch: flat (the closed families), definite, cone (steep spiral)
    # and kernel (the grid corner of the spiral at the largest valid pitch)
    lam_max = hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1, grid=(4, 4)).lambda_max
    spirals = [
        hf.spiral_chart(hf.SpiralParams(alpha0=math.pi / 4.0, lam=lam, delta=0.1)) for lam in (lam_max, 0.3)
    ]
    branches = set()
    for chart in (vertical[1], plane_normal[1], *spirals):
        for params in hf.grid_params(chart, (4, 4)):
            rec = hf.classify_point(chart, params)
            x1, x2 = (_scaled(x, 1.0 / _energy(x)) for x in _kernel_tangents(chart, params))
            want = [[hf.cross_metric(a, b) for b in (x1, x2)] for a in (x1, x2)]
            assert np.max(np.abs(np.array(rec.gram) - want)) <= 1e-12
            dirs, count = hf.foliation._null_directions(np.array([rec.gram]), hf.VERDICT_TOL)
            branches.add(hf.foliation.NULL_BRANCHES[count[0]])
            assert count[0] == len(rec.k_values)
            for (alpha, beta), k in zip(dirs[0], rec.k_values):
                foot = x1.geo.foot
                y = hf.JacobiData(
                    x1.geo,
                    hf.HTangent(foot, alpha * x1.j0.w + beta * x2.j0.w),
                    hf.HTangent(foot, alpha * x1.j0p.w + beta * x2.j0p.w),
                )
                assert abs(hf.killing_metric(_scaled(y, 1.0 / _energy(y))) - k) <= 1e-12
    assert branches == {"flat", "kernel", "definite", "cone"}


def _killing_matrix(jets, unit=True):
    p, m = (jets.unit_plus, jets.unit_minus) if unit else (jets.plus, jets.minus)
    return np.array(
        [[hf.geodesics.killing_pairing(p[x], m[x], p[y], m[y]) for y in (0, 1)] for x in (0, 1)]
    ).transpose(2, 0, 1)


def test_kernel_raw_gram_matches_closed_form(rng):
    # complex-step tangents carry no truncation error: 600 random spiral
    # samples over three pitches agree with the closed form to roundoff
    worst = 0.0
    for lam in (0.02, 0.07, 0.3):
        params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=lam, delta=0.1)
        (r0, r1), (t0, t1) = params.rect
        r, t = rng.uniform(r0, r1, 200), rng.uniform(t0, t1, 200)
        gram = hf.chart_jets(hf.spiral_chart(params), r, t).gram(unit=False)
        for g, rr, tt in zip(gram, r, t):
            want = hf.cross_form_matrix(rr, tt, params)
            worst = max(worst, float(np.max(np.abs(g - want)) / np.max(np.abs(want))))
    assert worst <= 1e-12


def _stereographic_jet(chart, a, b, sign, axis):
    """Stereographic coordinate ``z = (u1 + i u2) / (1 - u3)`` of the endpoints
    and its derivative along one parameter, from a complex step of the sphere
    coordinates ``u``."""
    h = 1e-30
    step = 1j * h * np.eye(2)[axis]
    foot, direction = chart.arrays(a + step[0], b + step[1])
    n = foot + sign * direction
    u = (n / n[:, :1])[:, 1:]
    u = u / np.sqrt(np.sum(u * u, axis=1, keepdims=True))
    u, du = u.real, u.imag / h
    w, dw = u[:, 0] + 1j * u[:, 1], du[:, 0] + 1j * du[:, 1]
    return w / (1.0 - u[:, 2]), dw / (1.0 - u[:, 2]) + w * du[:, 2] / (1.0 - u[:, 2]) ** 2


def test_kernel_forms_match_endpoint_identity(rng, plane_normal):
    # with Q(x, y) the symmetrized dz+(x) dz-(y) / (z+ - z-)^2 of the
    # stereographic endpoint coordinates, cross = 2 Im Q and Killing = -4 Re Q
    spiral = hf.spiral_chart(hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.3, delta=0.1))
    rho, theta = rng.uniform(0.3, 1.0, 100), rng.uniform(0.0, 2.0 * math.pi, 100)
    samples = (
        (spiral, rng.uniform(1.0, 3.0, 100), rng.uniform(0.0, 2.0 * math.pi, 100)),
        # away from the leaf whose forward endpoint is the projection pole
        (plane_normal[1], rho * np.cos(theta), rho * np.sin(theta)),
    )
    for chart, a, b in samples:
        jets = hf.chart_jets(chart, a, b)
        (zp, dzp0), (_, dzp1) = (_stereographic_jet(chart, a, b, 1, axis) for axis in (0, 1))
        (zm, dzm0), (_, dzm1) = (_stereographic_jet(chart, a, b, -1, axis) for axis in (0, 1))
        dzp, dzm = (dzp0, dzp1), (dzm0, dzm1)
        q = np.array(
            [[0.5 * (dzp[x] * dzm[y] + dzp[y] * dzm[x]) / (zp - zm) ** 2 for y in (0, 1)] for x in (0, 1)]
        ).transpose(2, 0, 1)
        gram, killing = jets.gram(unit=False), _killing_matrix(jets, unit=False)
        scale = np.max(np.abs(gram)) + np.max(np.abs(killing))
        assert np.max(np.abs(gram - 2.0 * q.imag)) <= 1e-11 * scale
        assert np.max(np.abs(killing + 4.0 * q.real)) <= 1e-11 * scale


def test_kernel_matches_finite_difference_tangents(vertical, plane_normal, spiral):
    # the finite-difference tangents in the parallel frame, an independent
    # route to the same normalized forms, agree to finite-difference accuracy
    worst = 0.0
    for chart in (vertical[1], plane_normal[1], spiral[1]):
        a, b = hf.grid_arrays(chart, (4, 4))
        jets = hf.chart_jets(chart, a, b)
        gram, killing = jets.gram(), _killing_matrix(jets)
        for k, params in enumerate(zip(a, b)):
            z = frame_coords(*hf.chart_tangent(chart, params))
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(z @ CROSS_FORM @ z.T - gram[k]))))
            worst = max(worst, float(np.max(np.abs(z @ KILLING_FORM @ z.T - killing[k]))))
    assert worst <= 1e-6


def _boosted(chart, distance):
    """The chart moved by a boost of length ``distance`` along e1."""
    ch, sh = math.cosh(distance), math.sinh(distance)

    def arrays(a, b):
        return tuple(
            np.stack((ch * x[:, 0] + sh * x[:, 1], sh * x[:, 0] + ch * x[:, 1], x[:, 2], x[:, 3]), axis=-1)
            for x in chart.arrays(a, b)
        )

    return hf.FoliationChart(arrays=arrays, domain=chart.domain, name=chart.name)


@pytest.mark.parametrize("distance", [6.0, 12.0])
def test_far_field_verdicts(vertical, spiral, distance):
    # verdicts are isometry invariants; central differences gave wrong ones
    # from a distance of about 6 (ROADMAP item 1, far field)
    for (_, chart), verdict in ((vertical, "almost_semidefinite"), (spiral, "definite")):
        rep = hf.classify_chart(_boosted(chart, distance), grid=(6, 6))
        assert [s.verdict for s in rep.samples] == [verdict] * 36


def test_classify_chart_aggregates(vertical, plane_normal):
    _, chartv = vertical
    repv = hf.classify_chart(chartv, grid=(10, 10))
    assert repv.aggregate == "almost_semidefinite"
    assert all(s.verdict == "almost_semidefinite" for s in repv.samples)
    _, chartp = plane_normal
    repp = hf.classify_chart(chartp, grid=(10, 10))
    assert repp.aggregate == "semidefinite"


def test_classify_large_pitch_contains_bad_samples():
    scan = hf.scan_lambda_max(grid=(80, 80))
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=2.0 * scan.lambda_max, delta=0.1)
    chart = hf.spiral_chart(params)
    rep = hf.classify_chart(chart, grid=(12, 12))
    bad = [s for s in rep.samples if s.verdict in (None, "indefinite")]
    assert bad, "expected indefinite or degenerate samples at double the validated pitch"
    assert rep.aggregate in ("indefinite", "degenerate")


def test_classifier_flags_rank_deficient_plane(plane_normal):
    _, chart = plane_normal
    rec = hf.classify_point(collapsed_chart(chart), (0.1, 0.1))
    assert rec.verdict is None
    assert "rank-deficient" in rec.note


def test_classifier_matches_margin_sign(spiral):
    # definite exactly where the closed-form margin is positive
    scan = hf.scan_lambda_max(grid=(60, 60))
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=1.5 * scan.lambda_max, delta=0.1)
    chart = hf.spiral_chart(params)
    tol = 1e-7
    for r in (1.0, 1.5, 2.0, 2.5, 3.0):
        for t in (0.0, 1.5, 3.0, 4.5, 6.0):
            margin = hf.definiteness_margin(r, t, params)
            rec = hf.classify_point(chart, (r, t), tol=tol)
            if margin > 1e-4:
                assert rec.verdict == "definite", (r, t, margin)
            elif margin < -1e-4:
                assert rec.verdict != "definite", (r, t, margin)


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
)
def test_verdict_lattice_is_monotone(g11, g12, g22, kvals):
    # the decision procedure respects definite > semidefinite > almost > indefinite
    tol = 1e-7
    kv = np.asarray(kvals)
    semi = bool(np.all(kv > tol))
    almost = bool(np.all(kv >= -tol))
    assert (semi and not almost) is False
    order = {v: k for k, v in enumerate(hf.VERDICTS)}
    verdict = "semidefinite" if semi else ("almost_semidefinite" if almost else "indefinite")
    assert order[verdict] >= order["indefinite"]


def test_field_chart_tangents_satisfy_derivative_identity(vertical, plane_normal):
    # J'(0) equals the covariant differential of the field applied to J(0)
    for field, chart in (vertical, plane_normal):
        for params in ((0.25, -0.35), (0.0, 0.4)):
            x, _ = hf.chart_tangent(chart, params)
            g = chart.map(*params)
            mat, frame = hf.covariant_differential(field, g.foot)
            j0_coords = np.array([minner(x.j0.w, e.w) for e in frame])
            want = mat @ j0_coords
            got = np.array([minner(x.j0p.w, e.w) for e in frame])
            assert np.max(np.abs(want - got)) < 1e-5


# ---------------------------------------------------------------------------
# geodesic fields


def test_check_geodesic_field_families(vertical, plane_normal, rng):
    samples = hf.ball_samples(O, 0.8, 8, seed=5)
    for field, _ in (vertical, plane_normal):
        assert hf.check_geodesic_field(field, samples) < 1e-6


def test_perturbed_field_fails_residual(vertical):
    field, _ = vertical

    def perturbed(p):
        v = field.func(p)
        u = hf.project_to_tangent(p, np.array([0.0, 1.0, 0.0, 0.0])).w
        u = u - hf.mink_inner(u, v.w) * v.w  # tangent to the horospheres
        u = u / np.sqrt(minner(u, u))
        w = v.w + 0.1 * u
        return hf.HTangent(p, w / np.sqrt(minner(w, w)))

    bad = hf.UnitField(func=perturbed, center=O, name="perturbed")
    samples = hf.ball_samples(O, 0.8, 8, seed=5)
    assert hf.check_geodesic_field(bad, samples) > 1e-2


def test_covariant_differential_vertical(vertical, rng):
    field, _ = vertical
    for _ in range(5):
        p = rand_point(rng, scale=0.7)
        mat, frame = hf.covariant_differential(field, p)
        v = field.func(p)
        vc = np.array([minner(v.w, e.w) for e in frame])
        # on the orthogonal complement of the field the operator is minus the identity
        x = rng.standard_normal(3)
        x -= np.dot(x, vc) * vc
        x /= np.linalg.norm(x)
        assert np.linalg.norm(mat @ x + x) < 1e-5
        # the field column vanishes for geodesic fields
        assert np.linalg.norm(mat @ vc) < 1e-5


def test_covariant_differential_plane_normal_on_plane(plane_normal):
    field, _ = plane_normal
    mat, _ = hf.covariant_differential(field, O)
    # at the plane the whole operator vanishes: totally geodesic leaves
    assert np.max(np.abs(mat)) < 1e-6


def test_eigencheck_families(vertical, plane_normal, rng):
    fieldv, _ = vertical
    p = rand_point(rng, scale=0.6)
    resv = hf.nondegeneracy_eigencheck(fieldv, p)
    assert resv.degenerate
    assert resv.witness is not None
    assert resv.eigenvalue == pytest.approx(-1.0, abs=1e-4)
    fieldp, _ = plane_normal
    resp = hf.nondegeneracy_eigencheck(fieldp, O)
    assert resp.degenerate
    assert resp.eigenvalue == pytest.approx(0.0, abs=1e-4)


def test_eigencheck_synthetic_nondegenerate():
    # rotation + shear block: the only real eigenvector is the axis itself
    mat = np.array([[0.0, 0.3, -0.1], [0.0, 0.2, 0.9], [0.0, -0.9, 0.2]])
    degenerate, witness, _ = hf.operator_eigencheck(mat, np.array([1.0, 0.0, 0.0]))
    assert not degenerate
    assert witness is None


def test_eigencheck_synthetic_degenerate():
    mat = -np.eye(3)
    degenerate, witness, lam = hf.operator_eigencheck(mat, np.array([1.0, 0.0, 0.0]))
    assert degenerate
    assert lam == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# intersections


def test_intersect_identical(rng):
    g = rand_geodesic(rng)
    assert hf.geodesics_intersect(g, g).kind == "identical"
    assert hf.geodesics_intersect(g, g.reverse()).kind == "identical"


def test_intersect_vertical_pair_disjoint(vertical):
    _, chart = vertical
    res = hf.geodesics_intersect(chart.map(0.4, 0.0), chart.map(-0.2, 0.3))
    assert res.kind == "disjoint"
    # the shared endpoint at infinity is reported as a witness
    assert res.boundary is not None
    assert hf.same_ray(res.boundary, hf.VERTICAL_END)


def test_intersect_generic_disjoint(plane_normal):
    _, chart = plane_normal
    res = hf.geodesics_intersect(chart.map(0.0, 0.0), chart.map(0.5, 0.0))
    assert res.kind == "disjoint"
    assert res.boundary is None


def test_intersect_at_point(rng):
    for _ in range(10):
        p = rand_point(rng, scale=1.0)
        w1 = hf.project_to_tangent(p, rng.standard_normal(4)).normalized()
        w2 = hf.project_to_tangent(p, rng.standard_normal(4)).normalized()
        if abs(hf.mink_inner(w1.w, w2.w)) > 0.99:
            continue
        res = hf.geodesics_intersect(hf.make_geodesic(p, w1), hf.make_geodesic(p, w2))
        assert res.kind == "point"
        assert hf.dist(res.point, p) < 1e-8


def test_intersect_far_crossing_is_ambiguous(rng):
    # crossing at distance ~12 from the base: the plane intersection is null
    # at tolerance and no endpoint is shared, so the outcome is undecidable
    far = hf.exp_map(hf.HTangent(O, (0.0, 12.0, 0.0, 0.0)))
    w1 = hf.project_to_tangent(far, np.array([0.0, 0.0, 1.0, 0.2])).normalized()
    w2 = hf.project_to_tangent(far, np.array([0.0, 0.0, 0.2, 1.0])).normalized()
    res = hf.geodesics_intersect(hf.make_geodesic(far, w1), hf.make_geodesic(far, w2))
    assert res.kind == "ambiguous"


def test_spiral_leaves_intersect_on_seed_annulus(spiral):
    params, chart = spiral
    for r in (1.5, 2.0, 2.5):
        res = hf.geodesics_intersect(chart.map(r, 0.0), chart.map(r, 2.0 * math.pi))
        assert res.kind == "point"
        assert hf.dist(res.point, hf.polar_frame(r, 0.0).point) < 1e-8


# ---------------------------------------------------------------------------
# critical points of the squared distance


def test_critical_scan_plane_normal(plane_normal):
    _, chart = plane_normal
    minima, _ = hf.critical_point_scan(chart, grid=(15, 15))
    assert len(minima) == 1
    assert minima[0].value < 1e-12
    assert math.hypot(minima[0].a, minima[0].b) < 1e-5


def test_critical_scan_vertical(vertical):
    _, chart = vertical
    minima, _ = hf.critical_point_scan(chart, grid=(15, 15))
    assert len(minima) == 1
    assert minima[0].value < 1e-12


def test_critical_scan_spiral_two_minima(spiral):
    params, chart = spiral
    base = hf.polar_frame(2.0, 0.0).point
    minima, _ = hf.critical_point_scan(chart, base=base, grid=(25, 25))
    small = [m for m in minima if m.value < 1e-10]
    assert len(small) >= 2
    ts = sorted(m.b for m in small)
    assert abs(ts[0] - 0.0) < 1e-3
    assert abs(ts[-1] - 2.0 * math.pi) < 1e-3


def test_ring_growth_evidence(plane_normal):
    _, chart = plane_normal
    _, rings = hf.critical_point_scan(chart, grid=(15, 15))
    assert rings[0] < rings[-1]


def test_ring_growth_evidence_of_synthetic_grid():
    # odd sides: ring 0 is the center cell; the minima sit off the corners
    values = np.full((5, 5), 9.0)
    values[2, 2] = 4.0
    values[1, 3] = 2.0
    values[4, 1] = 1.0
    values[0, 0] = 5.0
    assert hf.ring_growth_evidence(values) == [4.0, 2.0, 1.0]
    # even sides: the central 2x2 block is ring 1 and there is no ring 0
    assert hf.ring_growth_evidence(np.arange(16.0).reshape(4, 4)) == [5.0, 0.0]
    # a rectangle: rings are Chebyshev distances from the center cell
    assert hf.ring_growth_evidence(np.arange(15.0).reshape(3, 5)[:, ::-1]) == [7.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# initial-value rank


def test_initial_value_rank_families(vertical, plane_normal):
    _, chartv = vertical
    _, chartp = plane_normal
    for chart in (chartv, chartp):
        for params in ((0.0, 0.0), (0.4, -0.3)):
            assert hf.initial_value_rank(chart, params) == 2


def test_initial_value_rank_collapsed(plane_normal):
    _, chart = plane_normal
    assert hf.initial_value_rank(collapsed_chart(chart), (0.2, 0.2)) < 2


# ---------------------------------------------------------------------------
# genuine foliations never classify indefinite


def test_genuine_fields_never_indefinite(vertical, plane_normal):
    for _, chart in (vertical, plane_normal):
        rep = hf.classify_chart(chart, grid=(8, 8))
        assert all(s.verdict != "indefinite" for s in rep.samples if s.verdict)
