"""Command line front end: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "command,flag",
    [
        ("classify", ["--base-point", "1", "0", "0", "0"]),
        ("scan-lambda", ["--lambda", "0.1"]),
        ("scan-lambda", ["--tol", "1e-7"]),
        ("scan-lambda", ["--base-point", "1", "0", "0", "0"]),
        ("scan-lambda", ["--seed", "1"]),
        ("gauss", ["--base-point", "1", "0", "0", "0"]),
        ("gauss", ["--seed", "1"]),
        ("critical", ["--tol", "1e-7"]),
        ("critical", ["--seed", "1"]),
    ],
)
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    family = [] if command == "scan-lambda" else ["--family", "vertical"]
    with pytest.raises(SystemExit) as exc:
        main([command, *family, "--grid", "4x4", *flag, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert not list(tmp_path.iterdir())


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
def chart_array_calls(monkeypatch):
    """Record the size of every array evaluation of the chart a command
    resolves; a scalar ``chart.map`` evaluation records 1."""
    calls = []
    resolve = cli._resolve_family

    def counted_resolve(cfg):
        chart, field = resolve(cfg)
        return counting_chart(chart, calls), field

    monkeypatch.setattr(cli, "_resolve_family", counted_resolve)
    return calls


@pytest.mark.parametrize("grid", [(4, 3), (9, 7)])
def test_gauss_evaluates_chart_arrays_three_times(tmp_path, chart_array_calls, grid):
    # the leaves and one complex step per parameter give both endpoint
    # images and both ranks of every sample
    argv = ["gauss", "--family", "plane-normal", "--grid", f"{grid[0]}x{grid[1]}"]
    assert run(argv + ["--out", str(tmp_path / "g")]) == 0
    assert chart_array_calls == [grid[0] * grid[1]] * 3


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


def test_critical_evaluates_grid_once(tmp_path, chart_array_calls):
    # one array call for the 225 grid points, shared by the minima and the
    # rings, then 153 scalar evaluations by the descent
    assert run(["critical", "--family", "plane-normal", "--grid", "15x15", "--out", str(tmp_path / "c")]) == 0
    assert chart_array_calls == [225] + [1] * 153


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("family", ["vertical", "plane-normal"])
@pytest.mark.parametrize("flag", [["--lambda", "5"], ["--alpha0", "3"], ["--delta", "0.1"]])
@pytest.mark.parametrize("command", ["classify", "gauss", "critical"])
def test_spiral_flags_rejected_for_other_families(tmp_path, capsys, command, family, flag):
    assert run([command, "--family", family, *flag, "--grid", "3x3", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --family {family} does not take {flag[0]} (only prop does)\n"
    assert not list(tmp_path.iterdir())


def _broken(chart):
    """The chart with every foot pushed off the hyperboloid."""

    def arrays(a, b):
        foot, direction = chart.arrays(a, b)
        return 1.5 * foot, direction

    return hf.FoliationChart(arrays=arrays, domain=chart.domain)


@pytest.mark.parametrize("command", ["classify", "gauss", "critical"])
def test_chart_geometry_failure_exits_3(tmp_path, capsys, monkeypatch, command):
    resolve = cli._resolve_family
    monkeypatch.setattr(cli, "_resolve_family", lambda cfg: (_broken(resolve(cfg)[0]), None))
    assert run([command, "--family", "plane-normal", "--grid", "3x3", "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: chart leaf at (-1.0, -1.0): point is not on the unit hyperboloid\n"
    )
    # a scalar evaluation of an invalid leaf fails the same way
    with pytest.raises(hf.NumericalError, match="not on the unit hyperboloid"):
        _broken(hf.plane_normal_family()[1]).map(0.1, 0.2)


def test_overflowing_complex_step_exits_3(tmp_path, capsys):
    argv = ["classify", "--family", "prop", "--lambda", "1e300", "--grid", "3x3", "--out", str(tmp_path / "x")]
    assert run(argv) == 3
    assert capsys.readouterr().err == "numerical failure: chart tangents at (1.0, -0.1) are not finite\n"


#: valid values of each flag, and values or flags that must be rejected
_GOOD = {
    "--lambda": ["0.07", "0.3", "5", "1e300"],
    "--alpha0": ["0.7", "1.2"],
    "--delta": ["0.1", "0.5", "50"],
    "--grid": ["2x2", "3x2", "4x3"],
    "--tol": ["1e-7", "0.5", "1e-300", "1e300"],
    "--base-point": [["1", "0", "0", "0"], ["3.7621956910836314", "3.626860407847019", "0", "0"]],
    "--seed": ["0", "3"],
}
_BAD = [
    ["--family", "helix"], ["--lambda", "0"], ["--lambda", "-0.1"], ["--lambda", "nan"], ["--lambda", "inf"],
    ["--alpha0", "0"], ["--alpha0", "3"], ["--alpha0", "nan"], ["--delta", "0"], ["--delta", "-1"],
    ["--delta", "inf"], ["--grid", "1x3"], ["--grid", "abc"], ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
    ["--base-point", "1", "1", "0", "0"], ["--base-point", "nan", "0", "0", "0"],
    ["--base-point", "1e200", "1e200", "0", "0"], ["--seed", "-1"], ["--bogus"], ["--out", "missing/x"],
]


@st.composite
def _argv(draw):
    """Mostly valid command lines, some with one flag or value that must be rejected."""
    command = draw(st.sampled_from(sorted(cli._COMMAND_OPTIONS)))
    flags = ["--alpha0", "--delta", "--grid", *cli._COMMAND_OPTIONS[command][1]]
    argv = [command]
    if "--family" in flags:
        family = draw(st.sampled_from(cli.FAMILIES))
        argv += ["--family", family]
        if family != "prop":
            flags = [f for f in flags if f not in ("--lambda", "--alpha0", "--delta")]
        else:
            argv += ["--lambda", draw(st.sampled_from(_GOOD["--lambda"]))]
    for flag in flags:
        if flag in _GOOD and flag != "--lambda" and draw(st.booleans()):
            value = draw(st.sampled_from(_GOOD[flag]))
            argv += [flag, *([value] if isinstance(value, str) else value)]
    return argv + draw(st.one_of(st.just([]), st.sampled_from(_BAD)))


@given(_argv())
def test_every_argv_exits_0_2_or_3_without_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, x) if prev == "--out" else x for prev, x in zip([None, *argv], argv)]
        if "--out" not in argv:
            argv += ["--out", os.path.join(tmp, "x")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip(), "a failure must say why"


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
            ["critical", "--family", "plane-normal", "--grid", "10x10"],
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
