"""Command line front end: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypfol as hf
from hypfol import cli
from hypfol.cli import main
from util import counting_chart

ALPHA0 = repr(math.pi / 4.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    return main(argv)


def test_classify_vertical(tmp_path):
    out = tmp_path / "v"
    assert run(["classify", "--family", "vertical", "--grid", "8x8", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "v.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["results"]["classification"]["aggregate"] == "almost_semidefinite"
    assert payload["results"]["field_residual"] < 1e-6
    assert len(payload["results"]["classification"]["samples"]) == 64
    assert payload["config"]["tol"] > 0


def test_classify_plane_normal(tmp_path):
    out = tmp_path / "p"
    assert run(["classify", "--family", "plane-normal", "--grid", "6x6", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "p.json").read_text())
    assert payload["results"]["classification"]["aggregate"] == "semidefinite"


def test_classify_prop_definite(tmp_path):
    out = tmp_path / "s"
    code = run(
        [
            "classify",
            "--family",
            "prop",
            "--alpha0",
            ALPHA0,
            "--delta",
            "0.1",
            "--lambda",
            "0.07",
            "--grid",
            "8x8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["results"]["classification"]["aggregate"] == "definite"


def test_scan_lambda_outputs(tmp_path):
    out = tmp_path / "scan"
    code = run(
        ["scan-lambda", "--alpha0", ALPHA0, "--delta", "0.1", "--grid", "40x40", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert payload["results"]["scan"]["lambda_max"] > 0.0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "r,t,h_value"
    assert len(lines) == 1 + 40 * 40
    # row-major order: the second parameter varies fastest
    first = [float(x) for x in lines[1].split(",")]
    second = [float(x) for x in lines[2].split(",")]
    assert first[0] == second[0] and first[1] != second[1]


def test_gauss_vertical(tmp_path):
    out = tmp_path / "g"
    assert run(["gauss", "--family", "vertical", "--grid", "4x4", "--out", str(out)]) == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert len(lines) == 17
    rows = [line.split(",") for line in lines[1:]]
    forward = {(r[2], r[3], r[4]) for r in rows}
    assert len(forward) == 1  # one shared endpoint
    assert all(r[5] == "0" for r in rows)  # forward rank 0
    payload = json.loads((tmp_path / "g.json").read_text())
    assert payload["results"]["forward_rank_counts"] == {"0": 16}


def test_gauss_plane_normal(tmp_path):
    out = tmp_path / "gp"
    assert run(["gauss", "--family", "plane-normal", "--grid", "5x5", "--out", str(out)]) == 0
    lines = (tmp_path / "gp.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[5] == "2" and r[9] == "2" for r in rows)
    # endpoints land on opposite hemispheres, forward up, backward down
    assert all(float(r[4]) > 0.0 and float(r[8]) < 0.0 for r in rows)
    # injectivity evidence: forward images pairwise distinct
    pts = np.array([[float(r[2]), float(r[3]), float(r[4])] for r in rows])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) > 1e-6


def test_critical_prop_two_minima(tmp_path):
    out = tmp_path / "c"
    base = [repr(math.cosh(2.0)), repr(math.sinh(2.0)), "0.0", "0.0"]
    code = run(
        [
            "critical",
            "--family",
            "prop",
            "--alpha0",
            ALPHA0,
            "--lambda",
            "0.07",
            "--grid",
            "25x25",
            "--base-point",
            *base,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "c.json").read_text())
    assert payload["results"]["count"] >= 2
    small = [m for m in payload["results"]["minima"] if m["value"] < 1e-10]
    assert len(small) >= 2


def test_critical_vertical_single_minimum(tmp_path):
    out = tmp_path / "cv"
    assert run(["critical", "--family", "vertical", "--grid", "15x15", "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "cv.json").read_text())
    assert payload["results"]["count"] == 1
    assert payload["results"]["minima"][0]["value"] < 1e-12
    assert "ring_min_values" in payload["results"]


# ---------------------------------------------------------------------------
# config errors


def test_missing_lambda_for_prop(tmp_path):
    assert run(["classify", "--family", "prop", "--out", str(tmp_path / "x")]) == 2


def test_bad_grid(tmp_path):
    assert run(["classify", "--family", "vertical", "--grid", "1x5", "--out", str(tmp_path / "x")]) == 2
    assert run(["classify", "--family", "vertical", "--grid", "abc", "--out", str(tmp_path / "x")]) == 2


def test_bad_tol(tmp_path):
    for tol in ("-1", "nan", "inf"):
        assert run(["classify", "--family", "vertical", "--tol", tol, "--out", str(tmp_path / "x")]) == 2


def test_non_finite_values_rejected(tmp_path, capsys):
    for flag, value in (("--lambda", "inf"), ("--lambda", "nan"), ("--alpha0", "nan"), ("--delta", "inf")):
        argv = ["classify", "--family", "prop", "--lambda", "0.07", flag, value]
        assert run(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "point", [["inf", "inf", "0", "0"], ["nan", "0", "0", "0"], ["1e200", "1e200", "0", "0"]]
)
def test_non_finite_or_huge_base_point_gives_one_error_line(tmp_path, point):
    # a separate interpreter, so that numpy warnings reach stderr as they would
    argv = ["critical", "--family", "vertical", "--grid", "4x4", "--base-point", *point]
    proc = subprocess.run(
        [sys.executable, "-m", "hypfol", *argv, "--out", str(tmp_path / "x")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_experiment_scripts_run(tmp_path):
    # both scripts on small grids; they drive the endpoint Jacobians, the
    # eigenvector test and the initial-value rank outside the CLI
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    outputs = []
    for argv in (
        ["classify_families.py", "--grid", "4x4"],
        ["reproduce_counterexample.py", "--scan-grid", "40x40", "--classify-grid", "4x4"],
    ):
        proc = subprocess.run(
            [sys.executable, str(scripts / argv[0]), *argv[1:]],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    families, counterexample = outputs
    vertical, plane_normal = families.split("== plane-normal")
    assert "endpoint-map ranks: forward [0], backward [2]" in vertical
    assert "endpoint-map ranks: forward [2], backward [2]" in plane_normal
    assert "leaves at t=0 and t=2*pi: point" in counterexample


def test_bad_base_point(tmp_path):
    code = run(
        [
            "critical",
            "--family",
            "vertical",
            "--base-point",
            "1.0",
            "1.0",
            "0.0",
            "0.0",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 2


def test_unknown_family_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--family", "helix", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_bad_alpha0_for_prop(tmp_path):
    code = run(
        ["classify", "--family", "prop", "--alpha0", "2.0", "--lambda", "0.1", "--out", str(tmp_path / "x")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# chart evaluations per command


@pytest.fixture
def chart_map_calls(monkeypatch):
    """Record every ``chart.map`` evaluation of the chart a command resolves."""
    calls = []
    resolve = cli._resolve_family

    def counted_resolve(cfg):
        chart, field = resolve(cfg)
        return counting_chart(chart, calls), field

    monkeypatch.setattr(cli, "_resolve_family", counted_resolve)
    return calls


def test_gauss_evaluates_chart_five_times_per_sample(tmp_path, chart_map_calls):
    # one pair of chart tangents gives both endpoint images and both ranks
    assert run(["gauss", "--family", "plane-normal", "--grid", "4x3", "--out", str(tmp_path / "g")]) == 0
    assert len(chart_map_calls) == 5 * 12


@pytest.mark.parametrize(
    "family,extra",
    [("vertical", []), ("plane-normal", []), ("prop", ["--alpha0", ALPHA0, "--lambda", "0.07"])],
)
def test_gauss_ranks_match_finite_difference_jacobians(tmp_path, family, extra):
    argv = ["gauss", "--family", family, *extra, "--grid", "5x5"]
    assert run(argv + ["--out", str(tmp_path / "g")]) == 0
    rows = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1)
    chart, _ = cli._resolve_family(cli._build_config(cli.build_parser().parse_args(argv)))
    for row in rows:
        jacobians = hf.gauss_map_jacobian(chart, (row[0], row[1]))
        assert (row[5], row[9]) == tuple(hf.svd_rank(j, atol=hf.VERDICT_TOL) for j in jacobians)


def test_critical_evaluates_grid_once(tmp_path, chart_map_calls):
    # 225 grid points, shared by the minima and the rings, plus 153 descent steps
    assert run(["critical", "--family", "plane-normal", "--grid", "15x15", "--out", str(tmp_path / "c")]) == 0
    assert len(chart_map_calls) == 378
    assert len(set(chart_map_calls[:225])) == 225


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv,outputs",
    [
        (["classify", "--family", "vertical", "--grid", "6x6", "--seed", "7"], ["json"]),
        (["classify", "--family", "prop", "--alpha0", ALPHA0, "--lambda", "0.07", "--grid", "5x5"], ["json"]),
        (["scan-lambda", "--alpha0", ALPHA0, "--grid", "30x30"], ["json", "csv"]),
        (["gauss", "--family", "plane-normal", "--grid", "4x4"], ["json", "csv"]),
        (
            ["critical", "--family", "plane-normal", "--grid", "10x10", "--seed", "3"],
            ["json"],
        ),
    ],
)
def test_byte_identical_reruns(tmp_path, argv, outputs):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    for ext in outputs:
        b1 = (tmp_path / f"run1.{ext}").read_bytes()
        b2 = (tmp_path / f"run2.{ext}").read_bytes()
        assert b1 == b2
