"""Chart tangents, classifiers, field operators, leaf crossings, critical points."""

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from hypfol import cli, foliation
from hypfol.geodesics import leaf_dist
from hypfol.lorentz import mink
from hypfol.report import report_payload, write_report
from util import (
    CROSS_FORM,
    KILLING_FORM,
    ambient_forms,
    ambient_tangents,
    boost_matrix,
    classify_point,
    collapsed_chart,
    counting_chart,
    covariant_differentials,
    cross_form_matrix,
    energy_form_matrix,
    field_value,
    frame_coords,
    grid_params,
    initial_value_rank,
    is_orthogonal,
    killing_metric,
    minner,
    operator_eigencheck,
    orthonormal_complement,
    polar_frame,
    rand_point,
    reference_ball_samples,
    reference_covariant_differential,
    reference_descent,
    reference_field_checks,
    reference_grid_minima,
    reference_ring_growth,
    reference_ring_growth_masks,
    reference_verdicts,
    sample,
)

O = hf.ORIGIN
_DEFINITE = hf.VERDICTS.index("definite")
#: branch of ``foliation._null_directions`` by the number of null directions it returns
NULL_BRANCHES = {0: "definite", 1: "kernel", 2: "cone", 8: "flat"}


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
    assert is_orthogonal(x)


def test_chart_tangent_radial_axis_recovers_frame_field(spiral):
    params, chart = spiral
    fr = polar_frame(2.0, 0.5)
    x, _ = hf.chart_tangent(chart, (2.0, 0.5))
    # the radial-axis variation is already orthogonal, so J(0) is the radial vector
    assert np.max(np.abs(x.j0.w - fr.radial.w)) < 1e-6


def test_chart_tangent_schemes_consistent(spiral):
    _, chart = spiral
    params = (1.9, 1.1)
    _, central = hf.chart_tangent(chart, params, h=1e-4)
    _, half = hf.chart_tangent(chart, params, h=5e-5)
    assert np.max(np.abs(central.j0.w - half.j0.w)) < 1e-6


def test_chart_map_and_chart_jets_reject_an_overflowing_leaf():
    def arrays(a, b):
        rows = np.ones_like(a)[:, None]
        return rows * np.array([1e200, 1e200, 0.0, 0.0]), rows * np.array([0.0, 0.0, 1.0, 0.0])

    chart = hf.FoliationChart(arrays=arrays, domain=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(hf.NumericalError, match=r"^chart leaf at \(0.5, 0.5\): non-finite squares$"):
        chart.map(0.5, 0.5)
    with pytest.raises(hf.NumericalError, match=r"^chart leaf at \(0.5, 0.5\): non-finite leaf$"):
        hf.chart_jets(chart, [0.5], [0.5])


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
    assert classify_point(chartv, (0.3, -0.2)).verdict == "almost_semidefinite"
    assert classify_point(chartp, (0.3, -0.2)).verdict == "semidefinite"
    assert classify_point(charts, (2.0, 3.0)).verdict == "definite"


def test_classify_evaluates_chart_arrays_three_times(spiral):
    # the leaves, then one complex step per parameter, whatever the grid
    _, chart = spiral
    calls = []
    assert classify_point(counting_chart(chart, calls), (2.0, 3.0)).verdict == "definite"
    assert calls == [1, 1, 1]
    for grid in ((2, 2), (7, 5)):
        calls.clear()
        assert hf.classify_chart(counting_chart(chart, calls), grid=grid).aggregate == "definite"
        assert calls == [grid[0] * grid[1]] * 3


def _count_frame_builders(monkeypatch, modules) -> list:
    """Wrap both frame builders, ``tangent_frames`` and ``sphere_frames``,
    where each of ``modules`` imports them; returns the list of their calls."""
    frames = []
    for module in modules:
        for name in ("tangent_frames", "sphere_frames"):
            if hasattr(module, name):

                def counted(x, builder=getattr(hf.lorentz, name)):
                    frames.append(x)
                    return builder(x)

                monkeypatch.setattr(module, name, counted)
    return frames


def test_classify_point_builds_no_frame(vertical, spiral, monkeypatch):
    # Gram matrix, Killing values and energies come from the sphere
    # endpoints and their variations, with no frame
    frames = _count_frame_builders(monkeypatch, (hf.geodesics, hf.foliation))
    cases = ((vertical, (0.3, 0.2), "almost_semidefinite"), (spiral, (2.0, 3.0), "definite"))
    for (_, chart), params, verdict in cases:
        assert classify_point(chart, params).verdict == verdict
    assert frames == []


def _energy(x):
    return float(np.linalg.norm(frame_coords(x)))


def _scaled(x, factor):
    foot = x.geo.foot
    return hf.JacobiData(x.geo, hf.HTangent(foot, factor * x.j0.w), hf.HTangent(foot, factor * x.j0p.w))


def _ambient_tangents(chart, params):
    """The two complex-step axis tangents at one sample, as Jacobi data."""
    foot, direction, plus, minus = ambient_tangents(chart, [params[0]], [params[1]])
    p = hf.HPoint(foot[0])
    geo = hf.OrientedGeodesic(p, hf.HTangent(p, direction[0]))
    return [
        hf.JacobiData(geo, hf.HTangent(p, 0.5 * (jp + jm)), hf.HTangent(p, 0.5 * (jp - jm)))
        for jp, jm in zip(plus[:, 0], minus[:, 0])
    ]


def test_classify_point_matches_metrics_of_normalized_tangents(vertical, plane_normal):
    # every branch: flat (the closed families), definite, cone (steep spiral)
    # and kernel (the grid corner of the spiral at the largest valid pitch)
    lam_max = hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1).lambda_max
    spirals = [
        hf.spiral_chart(hf.SpiralParams(alpha0=math.pi / 4.0, lam=lam, delta=0.1)) for lam in (lam_max, 0.3)
    ]
    branches = set()
    for chart in (vertical[1], plane_normal[1], *spirals):
        for params in grid_params(chart, (4, 4)):
            rec = classify_point(chart, params)
            x1, x2 = (_scaled(x, 1.0 / _energy(x)) for x in _ambient_tangents(chart, params))
            want = [[hf.cross_metric(a, b) for b in (x1, x2)] for a in (x1, x2)]
            assert np.max(np.abs(np.array(rec.gram) - want)) <= 1e-12
            dirs, count = hf.foliation._null_directions(np.array([rec.gram]), hf.VERDICT_TOL)
            branches.add(NULL_BRANCHES[count[0]])
            assert count[0] == len(rec.k_values)
            for (alpha, beta), k in zip(dirs[0], rec.k_values):
                foot = x1.geo.foot
                y = hf.JacobiData(
                    x1.geo,
                    hf.HTangent(foot, alpha * x1.j0.w + beta * x2.j0.w),
                    hf.HTangent(foot, alpha * x1.j0p.w + beta * x2.j0p.w),
                )
                assert abs(killing_metric(_scaled(y, 1.0 / _energy(y))) - k) <= 1e-12
    assert branches == {"flat", "kernel", "definite", "cone"}


def _unit(form, energy):
    """A ``(..., 2, 2)`` form on its tangents scaled by their own energies."""
    s = 1.0 / np.sqrt(np.diagonal(energy, axis1=-2, axis2=-1))
    return form * s[..., :, None] * s[..., None, :]


def test_kernel_unit_gram_matches_closed_form(rng):
    # complex-step tangents carry no truncation error: 600 random spiral
    # samples over three pitches agree with the closed form, scaled to unit
    # energy by the closed-form energies, to roundoff
    worst = 0.0
    for lam in (0.02, 0.07, 0.3):
        params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=lam, delta=0.1)
        (r0, r1), (t0, t1) = params.rect
        r, t = rng.uniform(r0, r1, 200), rng.uniform(t0, t1, 200)
        gram = hf.chart_jets(hf.spiral_chart(params), r, t).cross
        for g, rr, tt in zip(gram, r, t):
            want = _unit(cross_form_matrix(rr, tt, params), energy_form_matrix(rr, tt, params))
            worst = max(worst, float(np.max(np.abs(g - want)) / np.max(np.abs(want))))
    assert worst <= 1e-12


def test_kernel_forms_match_endpoint_identity(rng, plane_normal):
    # the kernel reads cross = Im(T + T^T) and Killing = 2 Re(T + T^T) from
    # the endpoints u+- and their variations du+-: T(x, y) pairs the mirror
    # image of du+(x) at u- with du-(y) and with du-(y) x u-, over
    # |u+ - u-|^2, and the energy is that of the endpoint variations; the
    # ambient Jacobi data give the same forms from determinants and
    # Minkowski pairings, once both are scaled to unit-energy tangents
    spiral = hf.spiral_chart(hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.3, delta=0.1))
    rho, theta = rng.uniform(0.0, 1.0, 100), rng.uniform(0.0, 2.0 * math.pi, 100)
    samples = (
        (spiral, rng.uniform(1.0, 3.0, 100), rng.uniform(0.0, 2.0 * math.pi, 100)),
        (plane_normal[1], rho * np.cos(theta), rho * np.sin(theta)),
    )
    for chart, a, b in samples:
        jets = hf.chart_jets(chart, a, b)
        raw = ambient_forms(chart, a, b)
        forms = [_unit(f, raw[2]) for f in raw]
        scale = max(float(np.max(np.abs(f))) for f in forms)
        for got, want in zip((jets.cross, jets.killing, jets.energy), forms):
            assert np.max(np.abs(got - want)) <= 1e-11 * scale


def test_kernel_matches_finite_difference_tangents(vertical, plane_normal, spiral):
    # the finite-difference tangents in the parallel frame, an independent
    # route to the same normalized forms, agree to finite-difference accuracy
    worst = 0.0
    for chart in (vertical[1], plane_normal[1], spiral[1]):
        a, b = hf.grid_arrays(chart, (4, 4))
        jets = hf.chart_jets(chart, a, b)
        for k, params in enumerate(zip(a, b)):
            z = frame_coords(*hf.chart_tangent(chart, params))
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(z @ CROSS_FORM @ z.T - jets.cross[k]))))
            worst = max(worst, float(np.max(np.abs(z @ KILLING_FORM @ z.T - jets.killing[k]))))
    assert worst <= 1e-6


def _moved(chart, matrix):
    """The chart moved by a linear map of R^{3,1} (applied to every row)."""

    def arrays(a, b):
        return tuple(x @ matrix.T for x in chart.arrays(a, b))

    return hf.FoliationChart(arrays=arrays, domain=chart.domain, name=chart.name)


@pytest.mark.parametrize("distance", [6.0, 8.0, 12.0, 16.0, 20.0, 24.0])
def test_far_field_verdicts(vertical, spiral, distance):
    # verdicts are isometry invariants; central differences gave wrong ones
    # from a distance of about 6, and determinants and Minkowski pairings of
    # ambient Jacobi data from about 10 off the e1 axis.  Far out the
    # vertical chart's own leaves may fail the value objects' checks: a
    # limit of the data, reported as a numerical failure
    for direction in ((1.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-0.3, 0.8, 0.5), (1.0, 1.0, 1.0)):
        boost = boost_matrix(direction, distance)
        try:
            rep = hf.classify_chart(_moved(vertical[1], boost), grid=(6, 6))
        except hf.NumericalError as exc:
            assert str(exc).startswith("chart leaf at")
        else:
            assert [sample(rep, k).verdict for k in range(36)] == ["almost_semidefinite"] * 36
        rep = hf.classify_chart(_moved(spiral[1], boost), grid=(6, 6))
        assert [sample(rep, k).verdict for k in range(36)] == ["definite"] * 36


EPS = np.finfo(float).eps


def _rotation(q):
    """The rotation of R^{3,1} that fixes the base point, from a quaternion
    ``q = (w, x, y, z)`` (normalized here)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    rotation = np.eye(4)
    rotation[1:, 1:] = (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )
    return rotation


def _assert_isometry_invariant(chart, isometry, bound):
    """The kernel's unit-energy forms of a chart and of its copy moved by
    ``isometry`` agree within ``bound`` on a 6x6 grid, and the rank checks,
    endpoint ranks and verdicts are equal; returns the moved chart and its
    jets."""
    moved = _moved(chart, isometry)
    a, b = hf.grid_arrays(chart, (6, 6))
    jets, moved_jets = hf.chart_jets(chart, a, b), hf.chart_jets(moved, a, b)
    for name in ("cross", "killing", "energy"):
        assert np.max(np.abs(getattr(jets, name) - getattr(moved_jets, name))) <= bound, name
    assert np.array_equal(jets.full_rank, moved_jets.full_rank)
    for ranks, moved_ranks in zip(jets.endpoint_ranks(), moved_jets.endpoint_ranks()):
        assert np.array_equal(ranks, moved_ranks)
    codes, moved_codes = (hf.classify_chart(c, grid=(6, 6)).verdict_code for c in (chart, moved))
    assert np.array_equal(codes, moved_codes)
    return moved, moved_jets


def test_kernel_forms_are_rotation_invariant(vertical, plane_normal, spiral, tmp_path):
    # the forms are read from the sphere endpoints with no coordinate choice,
    # so a rotation moves them only by roundoff.  The corpus rotates the
    # vertical family's common forward endpoint to the 6 axis points and the
    # 8 cube diagonals of the sphere
    diagonals = np.array([(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]) / math.sqrt(3.0)
    for k, pole in enumerate([*np.eye(3), *-np.eye(3), *diagonals]):
        rotation = np.eye(4)
        t1, t2 = (t[1:] for t in orthonormal_complement((O.v, np.concatenate(([0.0], pole)))))
        rotation[1:, 1:] = np.column_stack((t1, t2, pole))
        for _, chart in (plane_normal, spiral):
            _assert_isometry_invariant(chart, rotation, 1e-14)
        chart, jets = _assert_isometry_invariant(vertical[1], rotation, 1e-14)
        assert np.max(np.abs(jets.foot + jets.dir - np.concatenate(([1.0], pole)))) <= 1e-12
        forward, backward = jets.endpoint_ranks()
        assert forward.tolist() == [0] * 36 and backward.tolist() == [2] * 36
        texts = []
        for run in range(2):
            rep = hf.classify_chart(chart, grid=(6, 6))
            assert [sample(rep, j).verdict for j in range(36)] == ["almost_semidefinite"] * 36
            path = tmp_path / f"pole-{k}-{run}.json"
            write_report(path, report_payload("classify", {}, {"classification": rep}, hf.__version__))
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) >= 0.5)


@given(_quaternions)
def test_kernel_forms_under_random_rotations(vertical, plane_normal, spiral, q):
    for _, chart in (vertical, plane_normal, spiral):
        _assert_isometry_invariant(chart, _rotation(q), 1e-14)


@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) >= 0.5), st.floats(0.0, 20.0))
def test_kernel_forms_under_random_boosts(vertical, spiral, direction, distance):
    # off the coordinate axes the endpoints of a leaf at distance D crowd
    # together to about e^-D, so the forms lose about eps e^D (measured: at
    # most 24 eps e^D on these draws); the verdicts stay
    bound = 64.0 * EPS * math.exp(distance)
    for _, chart in (vertical, spiral):
        _assert_isometry_invariant(chart, boost_matrix(direction, distance), bound)


def test_classify_chart_aggregates(vertical, plane_normal):
    _, chartv = vertical
    repv = hf.classify_chart(chartv, grid=(10, 10))
    assert repv.aggregate == "almost_semidefinite"
    assert [sample(repv, k).verdict for k in range(100)] == ["almost_semidefinite"] * 100
    _, chartp = plane_normal
    repp = hf.classify_chart(chartp, grid=(10, 10))
    assert repp.aggregate == "semidefinite"


#: the verdict tolerance is not scaled by the pitch (ROADMAP item 2)
_UNSCALED_TOL = pytest.mark.xfail(
    strict=True,
    reason="the cross Gram's small eigenvalue scales with the pitch, under the unscaled "
    "VERDICT_TOL (ROADMAP item 2; FOUND line on the small-pitch spiral in CHANGES.md)",
)


@pytest.mark.parametrize("lam", [1e-6, pytest.param(1e-7, marks=_UNSCALED_TOL), pytest.param(1e-8, marks=_UNSCALED_TOL)])
def test_spiral_with_a_clear_margin_is_definite_at_small_pitch(lam):
    # the margin is at least 3.62 on the grid, so every sample is definite;
    # measured: at 1e-7 (VERDICT_TOL) 133 of 144 samples read semidefinite,
    # at 1e-8 all 144, on the kernel branch
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=lam, delta=0.1)
    chart = hf.spiral_chart(params)
    r, t = hf.grid_axes(chart, (12, 12))
    assert hf.definiteness_margin(r[:, None], t, params).min() > 3.62
    rep = hf.classify_chart(chart, grid=(12, 12))
    assert rep.verdict_code.tolist() == [_DEFINITE] * 144


def test_classify_large_pitch_contains_bad_samples():
    scan = hf.scan_lambda_max()
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=2.0 * scan.lambda_max, delta=0.1)
    chart = hf.spiral_chart(params)
    rep = hf.classify_chart(chart, grid=(12, 12))
    bad = [k for k in range(144) if sample(rep, k).verdict in (None, "indefinite")]
    assert bad, "expected indefinite or degenerate samples at double the validated pitch"
    assert rep.aggregate in ("indefinite", "degenerate")


def test_classifier_flags_rank_deficient_plane(plane_normal):
    _, chart = plane_normal
    rec = classify_point(collapsed_chart(chart), (0.1, 0.1))
    assert rec.verdict is None
    assert "rank-deficient" in rec.note


def test_classifier_matches_margin_sign(spiral):
    # definite exactly where the closed-form margin is positive
    scan = hf.scan_lambda_max()
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=1.5 * scan.lambda_max, delta=0.1)
    chart = hf.spiral_chart(params)
    tol = 1e-7
    for r in (1.0, 1.5, 2.0, 2.5, 3.0):
        for t in (0.0, 1.5, 3.0, 4.5, 6.0):
            margin = hf.definiteness_margin(r, t, params)
            rec = classify_point(chart, (r, t), tol=tol)
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


def _assert_reference_verdicts(jets, tol=hf.VERDICT_TOL) -> np.ndarray:
    """``_verdicts`` equals ``reference_verdicts`` bit for bit: Killing values
    as int64 bit patterns (so NaN slots and the sign of zero count), counts
    and codes; returns the counts."""
    (k_values, k_count, code), (want_values, want_count, want_code) = (
        f(jets, tol) for f in (foliation._verdicts, reference_verdicts)
    )
    assert np.array_equal(k_values.view(np.int64), want_values.view(np.int64))
    assert k_count.dtype == want_count.dtype and np.array_equal(k_count, want_count)
    assert code.dtype == want_code.dtype and np.array_equal(code, want_code)
    return k_count


def _classify_mix_charts():
    """The five 12x12 charts of the classify-mix benchmark workload: the two
    closed families, and the spiral at 0.3, 1 and 4 times the pitch
    ``lambda_max`` of that grid, which puts one grid corner on the kernel."""
    lam_max = hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1).lambda_max
    spirals = [hf.spiral_chart(hf.SpiralParams(math.pi / 4.0, s * lam_max, 0.1)) for s in (0.3, 1.0, 4.0)]
    return [hf.vertical_family()[1], hf.plane_normal_family()[1], *spirals]


def test_verdicts_match_the_reference_on_every_branch():
    # the classify-mix charts reach all four branches; the squared second
    # parameter leaves the b = 0 column of its grid rank-deficient
    branches = set()
    for chart in _classify_mix_charts():
        branches.update(_assert_reference_verdicts(hf.chart_jets(chart, *hf.grid_arrays(chart, (12, 12)))).tolist())
    assert branches == set(NULL_BRANCHES)
    plane = hf.plane_normal_family()[1]
    for chart in (collapsed_chart(plane), hf.FoliationChart(lambda a, b: plane.arrays(a, b * b), plane.domain)):
        jets = hf.chart_jets(chart, *hf.grid_arrays(chart, (5, 5)))
        _assert_reference_verdicts(jets)
        assert not jets.full_rank.all()
    assert jets.full_rank.any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_verdicts_match_the_reference(vertical, plane_normal, monkeypatch, seed):
    seen, verdicts = [], foliation._verdicts
    monkeypatch.setattr(foliation, "_verdicts", lambda jets, tol: seen.append((jets, tol)) or verdicts(jets, tol))
    for field, _ in (vertical, plane_normal):
        hf.field_checks(field, hf.ball_samples(0.8, 50, seed))
    monkeypatch.undo()
    assert len(seen) == 2
    for jets, tol in seen:
        _assert_reference_verdicts(jets, tol)


#: eigenvalues on and around the tolerance and zero, or anywhere in [-1, 1]
_EIGENVALUES = st.one_of(
    st.sampled_from([0.0, -0.0, *(s * hf.VERDICT_TOL * (1.0 + e) for s in (1.0, -1.0) for e in (-1e-12, 0.0, 1e-12))]),
    st.floats(-1.0, 1.0),
)


@given(
    st.lists(
        st.tuples(
            _EIGENVALUES,
            _EIGENVALUES,
            st.floats(0.0, 2.0 * math.pi),
            st.floats(-1.0, 1.0),
            st.floats(-1.0, 1.0),
            st.floats(-1.0, 1.0),
            st.floats(-0.9, 0.9),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_verdicts_match_the_reference_on_rotated_diagonal_grams(rows):
    # stacks of Grams R diag(l0, l1) R^T next to arbitrary Killing forms and
    # unit-energy forms, some rows rank-deficient
    l0, l1, angle, k00, k01, k11, e01, full_rank = (np.array(x) for x in zip(*rows))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=1)
    gram = (rot * np.stack((l0, l1), axis=-1)[:, None]) @ rot.transpose(0, 2, 1)
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    n = len(rows)
    killing = np.stack((np.stack((k00, k01), axis=-1), np.stack((k01, k11), axis=-1)), axis=1)
    energy = np.stack((np.stack((np.ones(n), e01), axis=-1), np.stack((e01, np.ones(n)), axis=-1)), axis=1)
    zeros = np.zeros((n, 4))
    jets = hf.ChartJets(np.zeros((n, 2)), zeros, zeros, gram, killing, energy, np.zeros((2, 2, n)), full_rank)
    _assert_reference_verdicts(jets)


def test_classifier_takes_eigenvectors_only_on_kernel_and_cone_rows(monkeypatch):
    # definite and flat samples read eigenvalues alone; the lambda_max grid
    # has one kernel sample and no cone
    rows, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: rows.append(len(a)) or eigh(a, *args, **kw))
    vertical, plane, definite, corner, _ = _classify_mix_charts()
    for chart, want in ((vertical, 0), (plane, 0), (definite, 0), (corner, 1)):
        rows.clear()
        rep = hf.classify_chart(chart, grid=(12, 12))
        assert sum(rows) == want, (chart.name, rows)
        assert np.count_nonzero((rep.k_count == 1) | (rep.k_count == 2)) == want


def test_field_chart_tangents_satisfy_derivative_identity(vertical, plane_normal):
    # J' equals the covariant differential of the field applied to J, since
    # the leaves are the field's integral curves; both sides are complex-step
    # derivatives, so the identity holds to roundoff
    a, b = np.array([0.25, 0.0, -0.7, 0.9]), np.array([-0.35, 0.4, 0.6, -0.8])
    for field, chart in (vertical, plane_normal):
        foot, _, plus, minus = ambient_tangents(chart, a, b)
        mats, frames, _ = covariant_differentials(field, foot)
        for k, (mat, frame) in enumerate(zip(mats, frames)):
            for jplus, jminus in zip(plus[:, k], minus[:, k]):
                j, jp = 0.5 * (jplus + jminus), 0.5 * (jplus - jminus)
                want = mat @ np.array([minner(j, e) for e in frame])
                got = np.array([minner(jp, e) for e in frame])
                assert np.max(np.abs(want - got)) < 1e-13


# ---------------------------------------------------------------------------
# geodesic fields


def _perturbed(field):
    """The field tilted by 0.1 toward the part of e1 tangent at the point
    and orthogonal to the field: a unit field whose integral curves are not
    geodesics."""

    def perturbed(p):
        v = field(p)
        u = np.array([0.0, 1.0, 0.0, 0.0]) + p[:, 1:2] * p  # e1 projected to T_p
        u = u - mink(u, v)[:, None] * v
        u = u / np.sqrt(mink(u, u))[:, None]
        w = v + 0.1 * u
        return w / np.sqrt(mink(w, w))[:, None]

    return perturbed


def test_check_geodesic_field_families(vertical, plane_normal, rng):
    samples = hf.ball_samples(0.8, 8, seed=5)
    for field, _ in (vertical, plane_normal):
        assert hf.field_checks(field, samples)[0] <= 1e-14


def test_perturbed_field_fails_residual(vertical):
    bad = _perturbed(vertical[0])
    samples = hf.ball_samples(0.8, 8, seed=5)
    assert hf.field_checks(bad, samples)[0] > 1e-2


def test_covariant_differentials_match_transported_differences(vertical, plane_normal):
    samples = hf.ball_samples(0.8, 8, seed=5)
    for field in (vertical[0], plane_normal[0], _perturbed(vertical[0])):
        mats, frames, values = covariant_differentials(field, samples)
        for p, mat, frame, v in zip(map(hf.HPoint, samples), mats, frames, values):
            want, want_frame = reference_covariant_differential(field, p)
            assert np.array_equal(frame, [e.w for e in want_frame])
            assert np.max(np.abs(mat - want)) < 1e-7
            assert np.max(np.abs(v - field_value(field, p).w)) <= 1e-15


def test_field_checks_make_one_field_call_and_build_no_value_objects(vertical, monkeypatch):
    field, _ = vertical
    calls, built = [], []

    def counted(points):
        calls.append(points.shape)
        return field(points)

    for cls in (hf.HPoint, hf.HTangent):
        monkeypatch.setattr(cls, "__post_init__", lambda self, name=cls.__name__: built.append(name))
    samples = hf.ball_samples(0.8, 5, seed=1)
    residual, code, _, _ = hf.field_checks(counted, samples)
    assert residual <= 1e-14 and calls == [(15, 4)] and (code != _DEFINITE).all()
    # the samples, the verdicts and the ranks are arrays
    assert built == []


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("count", [0, 5, 8, 10])
def test_ball_samples_match_exp_map_loop(seed, count):
    # the base point's frame is (e1, e2, e3), so the drawn direction is the
    # tangent direction itself, bit for bit out to radius 12
    for radius in (0.8, 2.0, 8.0, 12.0):
        got = hf.ball_samples(radius, count, seed=seed)
        want = np.array([p.v for p in reference_ball_samples(O, radius, count, seed=seed)]).reshape(-1, 4)
        assert got.shape == (count, 4)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), radius


def test_ball_samples_build_no_frame(monkeypatch):
    frames = _count_frame_builders(monkeypatch, (hf.foliation,))
    assert hf.ball_samples(0.8, 5, seed=1).shape == (5, 4)
    assert frames == []


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), (None, TypeError)])
def test_ball_samples_reject_a_seed_that_is_not_a_nonnegative_integer(seed, error):
    # random.Random(-1) would silently draw the points of seed 1
    with pytest.raises(error):
        hf.ball_samples(0.8, 5, seed=seed)


def test_field_checks_match_eigencheck_loop(vertical, plane_normal):
    # the residual bit for bit that of the loop reference, on geodesic and
    # non-geodesic fields; on the geodesic fields, whose transverse charts
    # are charts of their leaves, the verdict is not definite exactly where
    # ``operator_eigencheck`` finds a real eigenvector off the field axis
    geodesic = (vertical[0], plane_normal[0])
    for field in (*geodesic, _perturbed(vertical[0])):
        for seed in (0, 1, 5):
            samples = hf.ball_samples(0.8, 8, seed=seed)
            residual, code, _, _ = hf.field_checks(field, samples)
            want_residual, want_degenerate, _, _ = reference_field_checks(field, samples)
            assert residual == want_residual
            if field in geodesic:
                assert (code != _DEFINITE).tolist() == want_degenerate
    # an empty stack
    residual, *got = hf.field_checks(vertical[0], np.empty((0, 4)))
    assert residual == 0.0 and [g.shape for g in got] == [(0,), (0,), (0,)]


def test_covariant_differential_vertical(vertical, rng):
    field, _ = vertical
    for _ in range(5):
        p = rand_point(rng, scale=0.7)
        (mat,), (frame,), (v,) = covariant_differentials(field, p.v)
        vc = np.array([minner(v, e) for e in frame])
        # on the orthogonal complement of the field the operator is minus the identity
        x = rng.standard_normal(3)
        x -= np.dot(x, vc) * vc
        x /= np.linalg.norm(x)
        assert np.linalg.norm(mat @ x + x) < 1e-5
        # the field column vanishes for geodesic fields
        assert np.linalg.norm(mat @ vc) < 1e-5


def test_covariant_differential_plane_normal_on_plane(plane_normal):
    field, _ = plane_normal
    (mat,), _, _ = covariant_differentials(field, O.v)
    # at the plane the whole operator vanishes: totally geodesic leaves
    assert np.max(np.abs(mat)) < 1e-6


def test_eigencheck_families(vertical, plane_normal, rng):
    fieldv, _ = vertical
    p = rand_point(rng, scale=0.6)
    _, (degenerate,), (lam,), (witness,) = reference_field_checks(fieldv, p.v)
    assert degenerate
    # a unit tangent at p orthogonal to the field
    assert abs(minner(witness, p.v)) < 1e-12 and minner(witness, witness) == pytest.approx(1.0, abs=1e-12)
    assert abs(minner(witness, field_value(fieldv, p).w)) < 1e-6
    assert lam == pytest.approx(-1.0, abs=1e-12)
    fieldp, _ = plane_normal
    _, (degenerate,), (lam,), _ = reference_field_checks(fieldp, O.v)
    assert degenerate
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_eigencheck_synthetic_nondegenerate():
    # rotation + shear block: the only real eigenvector is the axis itself
    mat = np.array([[0.0, 0.3, -0.1], [0.0, 0.2, 0.9], [0.0, -0.9, 0.2]])
    axis = np.array([1.0, 0.0, 0.0])
    degenerate, witness, lam = operator_eigencheck(mat, axis)
    assert not degenerate
    assert lam is None and witness is None


def test_eigencheck_synthetic_degenerate():
    mat = -np.eye(3)
    axis = np.array([1.0, 0.0, 0.0])
    degenerate, _, lam = operator_eigencheck(mat, axis)
    assert degenerate
    assert lam == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# the dictionary between a geodesic field's operator A = nabla X on the
# normal plane and its transverse chart: definite exactly where A has no real
# eigenvector, endpoint ranks rank(I +- A)


@pytest.mark.parametrize("radius", [0.8, 2.0, 4.0, 8.0])
def test_field_verdicts_follow_the_eigencheck_oracle(vertical, plane_normal, radius):
    samples = hf.ball_samples(radius, 50, seed=3)
    # plane-normal's transverse chart at distance s from the plane x3 = 0 has
    # A = tanh(s) I, so one endpoint variation is (1 - tanh|s|) v, under the
    # absolute rank floor of ``endpoint_ranks`` from |s| about 6.9 on
    near = np.abs(np.arcsinh(samples[:, 3])) < 6.5
    for (field, chart), verdict in ((vertical, "almost_semidefinite"), (plane_normal, "semidefinite")):
        _, code, forward, backward = hf.field_checks(field, samples)
        _, degenerate, _, _ = reference_field_checks(field, samples)
        assert (code != _DEFINITE).tolist() == degenerate
        assert {hf.VERDICTS[c] for c in code} == {verdict}
        # the ranks of the family's own chart: vertical (0, 2), plane-normal (2, 2)
        ranks = [set(r.tolist()) for r in hf.chart_jets(chart, *hf.grid_arrays(chart, (6, 6))).endpoint_ranks()]
        assert ranks == ([{0}, {2}] if field is vertical[0] else [{2}, {2}])
        keep = near if field is plane_normal[0] else slice(None)
        assert [set(r[keep].tolist()) for r in (forward, backward)] == ranks


@pytest.mark.parametrize("radius, residual", [(13.0, 2e-5), (16.0, 2e-3), (18.0, 0.15)])
def test_vertical_field_verdicts_far_from_the_base_point(vertical, radius, residual):
    # the closed-form tangent frames hold at any distance, so the vertical
    # field reads right out to radius 18; its geodesic residual, roundoff of
    # a field of size e^D, grows like eps e^{2D} (measured: 1.6e-5, 1.3e-3
    # and 0.12)
    got, code, forward, backward = hf.field_checks(vertical[0], hf.ball_samples(radius, 50, seed=3))
    assert got <= residual
    assert [hf.VERDICTS[c] for c in code] == ["almost_semidefinite"] * 50
    assert (set(forward.tolist()), set(backward.tolist())) == ({0}, {2})


def test_vertical_field_checks_at_distance_19_raise_numerical_error(vertical, rng):
    # there the transverse chart's forward endpoint p + X, of size e^-D, is
    # a difference of vectors of size e^D and rounds to a non-null vector, so
    # the kernel's forms are not finite
    u = rng.standard_normal((50, 3))
    points = np.column_stack((np.full(50, math.cosh(19.0)), math.sinh(19.0) * u / np.linalg.norm(u, axis=1)[:, None]))
    with pytest.raises(hf.NumericalError, match="chart tangents at .* are not finite"):
        hf.field_checks(vertical[0], points)


@pytest.mark.parametrize("lam", [0.035, 0.0711, 0.3])
def test_spiral_definite_exactly_where_its_operator_has_no_real_eigenvector(lam):
    # the other direction, on a family that is definite: A = J' J^-1 on each
    # leaf's normal plane, from the chart's ambient tangents
    params = hf.SpiralParams(lam=lam)
    chart = hf.spiral_chart(params)
    rep = hf.classify_chart(chart, grid=(20, 20))
    a, b = rep.params.T
    foot, direction, plus, minus = ambient_tangents(chart, a, b)
    normal = orthonormal_complement(np.stack((foot, direction), axis=1))
    # [n, i, k]: tangent k's J (or J') on vector i of the normal plane
    j, jp = (mink(normal[:, :, None], np.moveaxis(u, 0, 1)[:, None]) for u in (0.5 * (plus + minus), 0.5 * (plus - minus)))
    ops = np.zeros((len(a), 3, 3))
    ops[:, 1:, 1:] = jp @ np.linalg.inv(j)
    real = np.array([operator_eigencheck(op, np.array([1.0, 0.0, 0.0]))[0] for op in ops])
    clear = np.abs(hf.definiteness_margin(a, b, params)) >= 1e-6
    definite = rep.verdict_code == _DEFINITE
    assert clear.sum() >= 390
    assert np.array_equal(~real[clear], definite[clear])
    if lam == 0.3:
        assert 0 < definite.sum() < len(a)


def _transverse_jets(op):
    """The kernel's jets at the origin of the geodesics with direction ``e1``
    at the feet ``O + a e2 + b e3`` (to first order) and ``nabla X = op`` on
    the plane of ``e2`` and ``e3``."""
    e = np.eye(4)
    f = np.stack((O.v, e[2], e[3]))[:, None]
    d = np.stack((e[1], op[0, 0] * e[2] + op[1, 0] * e[3], op[0, 1] * e[2] + op[1, 1] * e[3]))[:, None]
    return foliation._jets(np.zeros((1, 2)), f, d)


@pytest.mark.parametrize(
    "op, verdict, ranks",
    [
        ([[0.2, 0.9], [-0.9, 0.2]], "definite", (2, 2)),
        ([[0.3, 0.0], [0.0, -0.5]], "semidefinite", (2, 2)),
        ([[-1.0, 0.0], [0.0, -1.0]], "almost_semidefinite", (0, 2)),
    ],
)
def test_synthetic_operators_through_the_shared_builder(op, verdict, ranks):
    op = np.array(op)
    jets = _transverse_jets(op)
    _, _, (code,) = foliation._verdicts(jets, hf.VERDICT_TOL)
    assert hf.VERDICTS[code] == verdict
    assert tuple(int(r[0]) for r in jets.endpoint_ranks()) == ranks
    mat = np.zeros((3, 3))
    mat[1:, 1:] = op
    assert operator_eigencheck(mat, np.array([1.0, 0.0, 0.0]))[0] == (verdict != "definite")


# ---------------------------------------------------------------------------
# leaf crossings


def test_spiral_leaves_intersect_on_seed_annulus(spiral):
    params, chart = spiral
    for r in (1.5, 2.0, 2.5):
        foot, direction = chart.arrays(np.array([r, r]), np.array([0.0, 2.0 * math.pi]))
        assert np.all(leaf_dist(foot, direction, polar_frame(r, 0.0).point.v) < 1e-8)
        # the feet are the polar point by construction; the leaves are two,
        # their directions a turn of 2 pi lam apart
        assert abs(mink(direction[0], direction[1]) - math.cos(2.0 * math.pi * params.lam)) < 1e-12


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
    base = polar_frame(2.0, 0.0).point
    minima, _ = hf.critical_point_scan(chart, base=base.v, grid=(25, 25))
    small = [m for m in minima if m.value < 1e-10]
    assert len(small) >= 2
    ts = sorted(m.b for m in small)
    assert abs(ts[0] - 0.0) < 1e-3
    assert abs(ts[-1] - 2.0 * math.pi) < 1e-3


def _critical_case(name):
    """Chart, base point and grid of a critical-point scan."""
    if name == "plane-normal":
        # four central cells of equal value, each with two equally good moves
        return hf.plane_normal_family()[1], O, (16, 16)
    if name == "vertical":
        return hf.vertical_family()[1], O, (15, 15)
    if name == "prop-crossing":
        chart = hf.spiral_chart(hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.0711, delta=0.1))
        return chart, polar_frame(2.0, 0.0).point, (40, 40)
    if name == "collapsed":
        # every leaf over a = 0.3 passes through the base point: the Gram
        # matrix of the solver is singular, and its steps are along a only
        chart = collapsed_chart(hf.plane_normal_family()[1])
        foot, direction = chart.arrays(np.array([0.3]), np.array([0.0]))
        return chart, hf.HPoint(math.cosh(0.5) * foot[0] + math.sinh(0.5) * direction[0]), (9, 12)
    # the nearest leaf of the whole family lies beyond b = 1, so the minimum is clamped to that edge
    return hf.plane_normal_family()[1], hf.HPoint(np.array([math.cosh(2.0), 0.0, math.sinh(2.0), 0.0])), (9, 12)


#: the minima of the ``_critical_case`` grids are zeros or clamped to the
#: domain's edge: there the reference's ends lie within its last step,
#: 1e-12, of the minimum and the solver's within roundoff
PARAM_TOL = 1e-11
#: the solver's minimum value is at most this above the descent's
VALUE_TOL = 1e-15


def _merged(ends, spacing):
    """``critical_point_scan``'s merge of refined ``(a, b, value)`` ends."""
    merged = []
    for a, b, v in sorted(ends, key=lambda r: (r[2], r[0], r[1])):
        if all(math.hypot(a - m[0], b - m[1]) > 0.75 * spacing for m in merged):
            merged.append((a, b, v))
    return merged


@pytest.mark.parametrize("case", ["plane-normal", "vertical", "prop-crossing", "clamped", "collapsed"])
def test_critical_descent_matches_scalar_reference(monkeypatch, case):
    # the scan's Gauss-Newton descent starts from the grid-local minima and
    # ends at the minima that a scalar coordinate descent on validated leaves
    # reaches from each of them, as many after merging and no higher
    chart, base, grid = _critical_case(case)
    runs = []
    solver = foliation._refine_minima

    def recorded(*args):
        runs.append(args)
        return solver(*args)

    monkeypatch.setattr(foliation, "_refine_minima", recorded)
    minima, _ = hf.critical_point_scan(chart, base=base.v, grid=grid)
    [(_, q, start_a, start_b, bounds)] = runs

    def fun(a, b):
        return hf.geodesic_dist_sq(chart.map(a, b), base)

    avals, bvals = (x.tolist() for x in hf.grid_axes(chart, grid))
    values = np.array([[fun(a, b) for b in bvals] for a in avals])
    cells = reference_grid_minima(values)
    (a0, a1), (b0, b1) = chart.domain
    spacing = max((a1 - a0) / (grid[0] - 1), (b1 - b0) / (grid[1] - 1))
    # the solver gets the base point divided by the power of two of its largest component
    k = math.frexp(float(np.max(np.abs(base.v))))[1]
    assert bounds == chart.domain and np.array_equal(q, np.ldexp(base.v, -k))
    assert list(zip(start_a.tolist(), start_b.tolist())) == [(avals[i], bvals[j]) for i, j in cells]
    reference = _merged([reference_descent(fun, avals[i], bvals[j], spacing, chart.domain) for i, j in cells], spacing)
    assert len(minima) == len(reference)
    for m in minima:
        a, b, v = min(reference, key=lambda r: math.hypot(r[0] - m.a, r[1] - m.b))
        assert math.hypot(m.a - a, m.b - b) < PARAM_TOL
        assert m.value <= v + VALUE_TOL
    if case == "clamped":
        assert [(m.a, m.b) for m in minima] == [(0.0, b1)]


def _value_objects_built(monkeypatch) -> list[str]:
    """The list to which the names of the ``HPoint``, ``HTangent`` and
    ``OrientedGeodesic`` constructed from now on are appended."""
    built = []
    for cls in (hf.HPoint, hf.HTangent, hf.OrientedGeodesic):
        monkeypatch.setattr(cls, "__post_init__", lambda self, name=cls.__name__: built.append(name))
    return built


def test_critical_scan_builds_no_value_objects(monkeypatch):
    chart, base, grid = _critical_case("prop-crossing")
    built = _value_objects_built(monkeypatch)
    minima, _ = hf.critical_point_scan(chart, base=base.v, grid=grid)
    assert len(minima) == 2 and built == []


def test_entry_points_hand_the_library_arrays(monkeypatch, tmp_path, capsys):
    # a critical command with a --base-point, and the counterexample script
    # through its crossing step, construct no value object
    script = _script("reproduce_counterexample")
    built = _value_objects_built(monkeypatch)
    point = [repr(math.cosh(2.0)), repr(math.sinh(2.0)), "0.0", "0.0"]
    argv = ["critical", "--family", "prop", "--lambda", "0.0711", "--grid", "12x12", "--base-point", *point]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 0
    args = argparse.Namespace(alpha0=math.pi / 4.0, delta=0.1, classify_grid="4x4", out=None)
    assert script.run(args) == 0
    assert "leaves through the seed point: 2," in capsys.readouterr().out
    assert built == []


@pytest.mark.parametrize("case,grid,starts,most", [("prop-crossing", (40, 40), 2, 5), ("plane-normal", (24, 24), 4, 4)])
def test_critical_solver_calls(case, grid, starts, most):
    # the two critical commands of the endpoint benchmark: one call for the
    # grid, then one call of 2 rows per active start for each solver
    # iteration; both converge quadratically to a zero minimum
    chart, base, _ = _critical_case(case)
    calls = []
    minima, _ = hf.critical_point_scan(counting_chart(chart, calls), base=base.v, grid=grid)
    assert calls[0] == grid[0] * grid[1] and calls[1] == 2 * starts
    assert 0 < len(calls) - 1 <= most and all(n % 2 == 0 and n <= starts * 2 for n in calls[1:])
    assert minima[0].value < 1e-30


@pytest.mark.parametrize("degrees,corner,most", [(45.0, True, 1), (70.0, False, 15)])
def test_critical_solver_holds_a_coordinate_at_its_bound(degrees, corner, most):
    # from distance 1.5 at this angle in the plane of the feet, the nearest
    # leaf lies beyond b = 1, and at 45 degrees beyond a = 1 as well: the
    # coordinates whose steps point out of the domain are held at their
    # bounds, so the corner's first step is zero and on the edge a takes 1-D
    # steps to a minimum that a coordinate descent cannot lower
    chart = hf.plane_normal_family()[1]
    t = math.radians(degrees)
    base = hf.HPoint(np.array([math.cosh(1.5), math.sinh(1.5) * math.cos(t), math.sinh(1.5) * math.sin(t), 0.0]))
    calls = []
    [m], _ = hf.critical_point_scan(counting_chart(chart, calls), base=base.v, grid=(9, 9))
    assert calls[0] == 81 and len(calls) - 1 <= most and set(calls[1:]) == {2}
    assert m.b == 1.0 and (m.a == 1.0) == corner

    def fun(a, b):
        return hf.geodesic_dist_sq(chart.map(a, b), base)

    assert reference_descent(fun, m.a, m.b, 0.25, chart.domain)[2] >= m.value * (1.0 - 1e-14)


@pytest.mark.parametrize(
    "warp,inverse,grid,most",
    [(lambda a: np.tanh(4.0 * a), lambda w: math.atanh(w) / 4.0, (4, 4), 8), (lambda a: a**3, math.cbrt, (5, 5), 15)],
    ids=["tanh", "cube"],
)
def test_critical_solver_halves_a_step_that_overshoots(warp, inverse, grid, most):
    # the plane-normal leaves with a warped: the first Gauss-Newton step
    # overshoots to a larger distance (under the cube, whose a-column
    # vanishes at the start a = 0, it is clamped to the domain's edge), and
    # the halved steps reach the zero at warp(a) = 0.05
    plane_normal = hf.plane_normal_family()[1]
    chart = hf.FoliationChart(arrays=lambda a, b: plane_normal.arrays(warp(a), b), domain=plane_normal.domain)
    foot, direction = plane_normal.arrays(np.array([0.05]), np.array([0.2]))
    base = hf.HPoint(math.cosh(0.2) * foot[0] + math.sinh(0.2) * direction[0])
    calls = []
    [m], _ = hf.critical_point_scan(counting_chart(chart, calls), base=base.v, grid=grid)
    assert abs(m.a - inverse(0.05)) < 1e-12 and abs(m.b - 0.2) < 1e-12 and m.value < 1e-30
    assert len(calls) - 1 <= most


def test_critical_scan_reports_a_valley_point_per_start(spiral):
    # from the base point every leaf with r = 1, the domain edge a = 1, is at
    # distance 1: the minima are not isolated, and the solver reports the
    # point of the valley each merged start reached, in one call: 6 minima,
    # where a coordinate descent moves along the valley and merges them into 5
    _, chart = spiral
    calls = []
    minima, _ = hf.critical_point_scan(counting_chart(chart, calls), grid=(15, 15))
    assert len(minima) == 6 and len(calls) == 2
    assert all(m.a == 1.0 and abs(m.value - 1.0) < 1e-12 for m in minima)


@pytest.mark.parametrize("shape", [(1, 5), (2, 2), (3, 7), (7, 3), (2, 500), (500, 2)])
def test_grid_params_of_a_slice_are_the_row_major_samples(rng, shape):
    # every slice, empty and whole included, starting and ending anywhere in a grid row
    n, m = shape
    axes = rng.standard_normal(n), rng.standard_normal(m)
    whole = np.repeat(axes[0], m), np.tile(axes[1], n)
    cuts = [(0, 0), (0, n * m), *np.sort(rng.integers(0, n * m + 1, size=(40, 2))).tolist()]
    for lo, hi in cuts:
        got = foliation.grid_params(axes, slice(lo, hi))
        assert [x.tolist() for x in got] == [x[lo:hi].tolist() for x in whole]


def test_ring_growth_evidence(plane_normal):
    _, chart = plane_normal
    _, rings = hf.critical_point_scan(chart, grid=(15, 15))
    assert rings[0] < rings[-1]


_RING_CHARTS = {
    "vertical": hf.vertical_family()[1],
    "plane-normal": hf.plane_normal_family()[1],
    "prop-crossing": hf.spiral_chart(hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.0711, delta=0.1)),
}


@given(
    st.sampled_from(sorted(_RING_CHARTS)),
    st.floats(0.0, 353.0),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: math.hypot(*u) > 0.0),
    st.tuples(st.integers(3, 12), st.integers(3, 12)),
)
def test_scan_rings_are_those_of_the_unscaled_distance(name, d, u, grid):
    # the scan reads its grid through the base point divided by 2^k; the
    # scaling is exact, so its rings are finite and keep the bits of
    # leaf_dist's wherever the unscaled squares stay in the normal range:
    # they overflow on the spiral from about d = 350, and they underflow
    # later than the scaled ones only in a value below 2^(2k - 1022) (on
    # plane-normal, d = 28 in direction (0, 2.4e-174, 1) puts the base
    # 1.7e-162 off the leaf over (0, 0): leaf_dist reads 5e-324, the scan 0)
    chart = _RING_CHARTS[name]
    u = np.array(u) / math.hypot(*u)
    base = np.array([math.cosh(d), *(math.sinh(d) * u)])
    _, rings = hf.critical_point_scan(chart, base=base, grid=grid)
    foot, direction = chart.arrays(*hf.grid_arrays(chart, grid))
    with np.errstate(all="ignore"):
        want = hf.ring_growth_evidence((leaf_dist(foot, direction, base) ** 2).reshape(grid))
    floor = math.ldexp(1.0, 2 * math.frexp(float(np.max(np.abs(base))))[1] - 1022)
    assert len(rings) == len(want) and all(map(math.isfinite, rings))
    for x, y in zip(rings, want):
        assert x.hex() == y.hex() or not math.isfinite(y) or max(x, y) < floor, (x, y)


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


@pytest.mark.parametrize(
    "shape", [(5, 5), (4, 6), (2, 7), (40, 40), (6, 8), (7, 9), (6, 9), (9, 6), (2, 2), (3, 3), (2, 12), (11, 2), (12, 2)]
)
def test_ring_growth_evidence_matches_cellwise_reduction(rng, shape):
    # a side of even length has no ring 0, and no ring comes out empty; the
    # scatter-minimum gives the floats of one masked minimum per ring
    values = rng.standard_normal(shape)
    rings = hf.ring_growth_evidence(values)
    assert rings == reference_ring_growth(values) == reference_ring_growth_masks(values)
    assert np.isfinite(rings).all()


# ---------------------------------------------------------------------------
# initial-value rank


def test_initial_value_rank_families(vertical, plane_normal):
    _, chartv = vertical
    _, chartp = plane_normal
    for chart in (chartv, chartp):
        assert [initial_value_rank(chart, params) for params in ((0.0, 0.0), (0.4, -0.3))] == [2, 2]


def test_initial_value_rank_collapsed(plane_normal):
    _, chart = plane_normal
    assert initial_value_rank(collapsed_chart(chart), (0.2, 0.2)) < 2


def _script(name):
    """A program of ``scripts/`` loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case, rank", [("vertical", 2), ("plane-normal", 2), ("prop", 2), ("collapsed", 1)])
def test_initial_value_ranks_from_the_kernel_forms(vertical, plane_normal, spiral, case, rank):
    # the mean of the energy |J|^2 + |J'|^2 and the Killing metric
    # |J|^2 - |J'|^2 is the Gram matrix of J(0) on the unit-energy tangents,
    # to the central differences' accuracy; its rank is the oracle's
    chart = {"vertical": vertical[1], "plane-normal": plane_normal[1], "prop": spiral[1]}.get(case)
    chart = chart or collapsed_chart(plane_normal[1])
    jets = hf.chart_jets(chart, *hf.grid_arrays(chart, (6, 6)))
    gram = 0.5 * (jets.energy + jets.killing)
    for g, params in zip(gram, grid_params(chart, (6, 6))):
        z = frame_coords(*hf.chart_tangent(chart, params))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        j0 = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0.0)[:, :2]
        assert np.max(np.abs(g - j0 @ j0.T)) < 1e-8, params
    ranks = _script("classify_families").initial_value_ranks(jets).tolist()
    assert ranks == [initial_value_rank(chart, params) for params in grid_params(chart, (6, 6))] == [rank] * 36


def test_classify_families_exits_through_the_cli_policy(monkeypatch, capsys):
    script = _script("classify_families")

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(hf, "classify_chart", no_memory)
    monkeypatch.setattr(sys, "argv", ["classify_families.py", "--grid", "4x4"])
    assert script.main() == 2
    assert capsys.readouterr().err == "error: not enough memory for a 4x4 grid\n"


# ---------------------------------------------------------------------------
# genuine foliations never classify indefinite


def test_genuine_fields_never_indefinite(vertical, plane_normal):
    for _, chart in (vertical, plane_normal):
        rep = hf.classify_chart(chart, grid=(8, 8))
        assert all(sample(rep, k).verdict != "indefinite" for k in range(64))
