"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with plain ``pytest``; the PASS/FAIL lines print outside capture so
they are visible in any mode.  Criteria with runtime bounds assert them.
"""

import json
import math
import time

import numpy as np
import pytest

import hypfol as hf
from hypfol.cli import main as cli_main
from util import (
    jacobi_basis,
    minner,
    perp_component,
    rand_geodesic,
    rand_jacobi,
    rk4_jacobi,
)

O = hf.ORIGIN


@pytest.fixture
def announce(capsys, request):
    failed = []

    def _announce(number, name, ok=True):
        with capsys.disabled():
            print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)

    yield _announce
    assert not failed


def test_acceptance_01_metric_constancy(announce, rng):
    t0 = time.perf_counter()
    worst = 0.0
    svals = np.linspace(-5.0, 5.0, 11)
    for _ in range(100):
        g = rand_geodesic(rng)
        x = rand_jacobi(rng, g)
        cross_vals = []
        killing_vals = []
        for s in svals:
            cross_vals.append(hf.cross_metric(x, s=s))
            killing_vals.append(hf.killing_metric(x, s=s))
        worst = max(worst, max(cross_vals) - min(cross_vals))
        worst = max(worst, max(killing_vals) - min(killing_vals))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    announce(1, f"metric constancy (spread {worst:.2e}, {elapsed:.2f}s)")


def test_acceptance_02_signature_2_2(announce, rng):
    t0 = time.perf_counter()
    done = 0
    while done < 100:
        g = rand_geodesic(rng)
        basis = jacobi_basis(g)
        gram_x = np.array([[hf.cross_metric(a, b) for b in basis] for a in basis])
        gram_k = np.array([[hf.killing_metric(a, b) for b in basis] for a in basis])
        evx = np.sort(np.linalg.eigvalsh(gram_x))
        evk = np.sort(np.linalg.eigvalsh(gram_k))
        if min(np.min(np.abs(evx)), np.min(np.abs(evk))) < 1e-6:
            continue  # degenerate draw, resample
        assert evx[0] < 0 < evx[2] and evx[1] < 0 < evx[3]
        assert evk[0] < 0 < evk[2] and evk[1] < 0 < evk[3]
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(2, f"neutral signature (2,2) at 100 geodesics ({elapsed:.2f}s)")


def test_acceptance_03_jacobi_oracle(announce, rng):
    worst = 0.0
    for _ in range(50):
        g = rand_geodesic(rng)
        x = rand_jacobi(rng, g)
        for s in (1.0, 2.0, 3.0):
            j_num, jp_num = rk4_jacobi(g, x.j0.w, x.j0p.w, s, n_steps=600)
            j_cf, jp_cf = hf.jacobi_eval(x, s)
            scale = max(np.linalg.norm(j_num), 1.0)
            worst = max(worst, np.linalg.norm(j_cf.w - j_num) / scale)
            worst = max(worst, np.linalg.norm(jp_cf.w - jp_num) / max(np.linalg.norm(jp_num), 1.0))
    assert worst < 1e-8
    announce(3, f"closed-form Jacobi vs fourth-order integration (err {worst:.2e})")


def test_acceptance_04_vertical_family(announce):
    field, chart = hf.vertical_family()
    rep = hf.classify_chart(chart, grid=(20, 20))
    assert rep.aggregate == "almost_semidefinite"
    worst_form = 0.0
    for s in rep.samples:
        assert s.verdict == "almost_semidefinite"
        worst_form = max(worst_form, float(np.max(np.abs(np.asarray(s.gram)))))
        worst_form = max(worst_form, max(abs(k) for k in s.k_values))
    assert worst_form < 1e-9
    for a, b in hf.grid_params(chart, (20, 20)):
        jac, _ = hf.gauss_map_jacobian(chart, (a, b))
        assert hf.svd_rank(jac) == 0
    worst_nabla = 0.0
    rng = np.random.default_rng(11)
    for p in hf.ball_samples(O, 0.8, 10, seed=11):
        mat, frame = hf.covariant_differential(field, p)
        v = field.func(p)
        vc = np.array([minner(v.w, e.w) for e in frame])
        for _ in range(3):
            x = rng.standard_normal(3)
            x -= np.dot(x, vc) * vc
            x /= np.linalg.norm(x)
            worst_nabla = max(worst_nabla, float(np.linalg.norm(mat @ x + x)))
    assert worst_nabla < 1e-5
    announce(4, f"vertical family (forms {worst_form:.1e}, derivative {worst_nabla:.1e})")


def test_acceptance_05_plane_normal_family(announce):
    field, chart = hf.plane_normal_family()
    rep = hf.classify_chart(chart, grid=(20, 20))
    assert rep.aggregate == "semidefinite"
    assert all(s.verdict == "semidefinite" for s in rep.samples)
    for a, b in hf.grid_params(chart, (10, 10)):
        jac_f, jac_b = hf.gauss_map_jacobian(chart, (a, b))
        assert hf.svd_rank(jac_f) == 2
        assert hf.svd_rank(jac_b) == 2
        assert hf.initial_value_rank(chart, (a, b)) == 2
    minima, _ = hf.critical_point_scan(chart, base=O, grid=(15, 15))
    assert len(minima) == 1
    assert minima[0].value < 1e-12
    announce(5, f"plane-normal family (one minimum, value {minima[0].value:.1e})")


def test_acceptance_06_spiral_family(announce, rng):
    t0 = time.perf_counter()
    scan = hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1, grid=(200, 200))
    assert scan.lambda_max > 0.0

    half = hf.SpiralParams(alpha0=math.pi / 4.0, lam=scan.lambda_max / 2.0, delta=0.1)
    chart = hf.spiral_chart(half)
    rep = hf.classify_chart(chart, grid=(20, 20))
    assert rep.aggregate == "definite"

    worst = 0.0
    (r0, r1), (t0d, t1d) = half.rect
    for _ in range(50):
        r = rng.uniform(r0 + 0.02, r1 - 0.02)
        t = rng.uniform(t0d + 0.02, t1d - 0.02)
        x, y = rng.standard_normal(2)
        want = float(np.array([x, y]) @ hf.cross_form_matrix(r, t, half) @ np.array([x, y]))
        xa, xb = hf.chart_tangent(chart, (r, t))
        got = (
            x * x * hf.cross_metric(xa)
            + 2 * x * y * hf.cross_metric(xa, xb)
            + y * y * hf.cross_metric(xb)
        )
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-5

    double = hf.SpiralParams(alpha0=math.pi / 4.0, lam=2.0 * scan.lambda_max, delta=0.1)
    chart2 = hf.spiral_chart(double)
    negatives = [
        (r, t)
        for r, t in hf.grid_params(chart2, (20, 20))
        if hf.definiteness_margin(r, t, double) < -1e-4
    ]
    assert negatives
    for r, t in negatives[:10]:
        assert hf.classify_point(chart2, (r, t)).verdict != "definite"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(
        6,
        f"spiral family (lambda_max {scan.lambda_max:.4f}, gram err {worst:.1e}, {elapsed:.1f}s)",
    )


def test_acceptance_07_counterexample_intersection(announce):
    params = hf.SpiralParams(alpha0=math.pi / 4.0, lam=0.07, delta=0.1)
    chart = hf.spiral_chart(params)
    g1 = chart.map(2.0, 0.0)
    g2 = chart.map(2.0, 2.0 * math.pi)
    res = hf.geodesics_intersect(g1, g2)
    assert res.kind == "point"
    seed_point = hf.polar_frame(2.0, 0.0).point
    assert hf.dist(res.point, seed_point) < 1e-8
    minima, _ = hf.critical_point_scan(chart, base=seed_point, grid=(25, 25))
    small = [m for m in minima if m.value < 1e-10]
    assert len(small) >= 2
    announce(7, f"counterexample intersection ({len(small)} zero minima)")


def test_acceptance_08_gauss_kernel(announce, rng):
    worst = 0.0
    for _ in range(50):
        g = rand_geodesic(rng)
        j0a = perp_component(g, rng.standard_normal(4))
        j0b = perp_component(g, rng.standard_normal(4))
        stable = hf.JacobiData(g, hf.HTangent(g.foot, j0a), hf.HTangent(g.foot, -j0a))
        generic = hf.JacobiData(
            g, hf.HTangent(g.foot, j0b), hf.HTangent(g.foot, rng.uniform(-0.8, 0.8) * j0b)
        )
        chart = hf.jacobi_variation_chart(stable, generic)
        jac, _ = hf.gauss_map_jacobian(chart, (0.0, 0.0))
        worst = max(worst, float(np.linalg.norm(jac[:, 0])))
        assert np.linalg.norm(jac[:, 1]) > 1e-4  # only the stable direction dies
    assert worst < 1e-6
    announce(8, f"forward endpoint kernel = stable directions (residual {worst:.1e})")


def test_acceptance_09_asymptote_equation(announce, rng):
    worst = 0.0
    h = 1e-4
    for _ in range(20):
        b = hf.boundary_from_sphere(rng.standard_normal(3))
        c = rand_geodesic(rng)  # a random unit-speed curve
        for t in (-0.8, 0.0, 0.9):
            pt, vel = c.eval(t)
            w_here = hf.asymptote_vector(pt, b)
            w_plus = hf.transport_to(hf.asymptote_vector(c.eval(t + h)[0], b), pt)
            w_minus = hf.transport_to(hf.asymptote_vector(c.eval(t - h)[0], b), pt)
            deriv = (w_plus.w - w_minus.w) / (2.0 * h)
            want = hf.mink_inner(vel.w, w_here.w) * w_here.w - vel.w
            worst = max(worst, float(np.max(np.abs(deriv - want))))
    assert worst < 1e-6
    announce(9, f"asymptotic-field equation (residual {worst:.1e})")


def test_acceptance_10_cli_determinism(announce, tmp_path):
    alpha = repr(math.pi / 4.0)
    commands = [
        (["classify", "--family", "vertical", "--grid", "6x6", "--seed", "1"], ["json"]),
        (["classify", "--family", "plane-normal", "--grid", "5x5"], ["json"]),
        (
            ["classify", "--family", "prop", "--alpha0", alpha, "--lambda", "0.07", "--grid", "5x5"],
            ["json"],
        ),
        (["scan-lambda", "--alpha0", alpha, "--grid", "40x40"], ["json", "csv"]),
        (["gauss", "--family", "plane-normal", "--grid", "4x4"], ["json", "csv"]),
        (["gauss", "--family", "vertical", "--grid", "4x4"], ["json", "csv"]),
        (["critical", "--family", "vertical", "--grid", "10x10"], ["json"]),
        (
            [
                "critical",
                "--family",
                "prop",
                "--alpha0",
                alpha,
                "--lambda",
                "0.07",
                "--grid",
                "15x15",
                "--base-point",
                repr(math.cosh(2.0)),
                repr(math.sinh(2.0)),
                "0.0",
                "0.0",
            ],
            ["json"],
        ),
    ]
    for k, (argv, exts) in enumerate(commands):
        o1, o2 = tmp_path / f"a{k}", tmp_path / f"b{k}"
        assert cli_main(argv + ["--out", str(o1)]) == 0
        assert cli_main(argv + ["--out", str(o2)]) == 0
        for ext in exts:
            assert (tmp_path / f"a{k}.{ext}").read_bytes() == (tmp_path / f"b{k}.{ext}").read_bytes()
    # reports are valid JSON with the schema marker
    payload = json.loads((tmp_path / "a0.json").read_text())
    assert payload["schema_version"] == 1
    announce(10, "CLI determinism: byte-identical reruns of every command")
