"""Command line front end: outputs, exit codes, determinism."""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from hypfol import cli, report
from hypfol.cli import main
from util import counting_chart, reference_ball_samples, reference_field_checks, strict_json

ALPHA0 = repr(math.pi / 4.0)
_UNDERFLOW = "the least pitch scanned underflows to 0 at delta 0.1"
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


@pytest.mark.parametrize(
    "command", [["classify", "--family", "vertical"], ["scan-lambda"], ["gauss", "--family", "vertical"]]
)
def test_grid_too_large_for_an_array_exits_2(tmp_path, capsys, command):
    assert run([*command, "--grid", "2x99999999999999999999", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: grid 2x99999999999999999999 has more samples than an array can hold\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["classify", "gauss", "critical"])
def test_grid_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    def no_memory(axes, s):
        raise MemoryError

    # every command builds its sample parameters through grid_params
    for module in (cli, hf.foliation):
        monkeypatch.setattr(module, "grid_params", no_memory)
    assert run([command, "--family", "vertical", "--grid", "3x3", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: not enough memory for a 3x3 grid\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha0", ["2e-13", "1.5707963267946", "1e-310"])
def test_scan_lambda_near_the_ends_of_the_tilt_range(tmp_path, capsys, alpha0):
    assert run(["scan-lambda", "--alpha0", alpha0, "--grid", "2x2", "--out", str(tmp_path / "x")]) == 0
    assert float(capsys.readouterr().out.removeprefix("lambda_max: ")) > 0.0


@pytest.mark.parametrize(
    "point, params",
    [
        (["1.0000000000000002e+80", "0", "0", "1e80"], [0.0, 0.0]),
        (["1.0000000000000002e+100", "1e100", "0", "0"], [1.0, 0.0]),
    ],
)
def test_critical_from_a_far_base_point_finds_its_one_leaf(tmp_path, point, params):
    # at distance 185 and 231 the solver's Gram products would overflow
    # unscaled, leaving every start on its grid node: the 4x4 grid gave 4
    # and 2 minima.  The first point lies on the leaf over (0, 0), the
    # nearest leaf to the second is over (1, 0)
    argv = ["critical", "--family", "plane-normal", "--grid", "4x4", "--base-point", *point]
    assert run(argv + ["--out", str(tmp_path / "x")]) == 0
    (minimum,) = strict_json((tmp_path / "x.json").read_text())["results"]["minima"]
    assert minimum["params"] == pytest.approx(params, abs=1e-6)


@pytest.mark.parametrize("x1", [2.7492649673485706e153, 5e153])
def test_critical_grid_from_the_farthest_base_points_stays_finite(tmp_path, x1):
    # (x1 + ulp, x1, 0, 0) at distance 354.0 and 354.6 is admitted by the
    # hyperboloid check; the grid values of the leaves far from it once
    # overflowed, with RuntimeWarnings and a NaN ring value.  A separate
    # interpreter, so that numpy warnings reach stderr as they would
    point = [repr(math.nextafter(x1, math.inf)), repr(x1), "0", "0"]
    argv = ["critical", "--family", "plane-normal", "--grid", "4x4", "--base-point", *point]
    proc = subprocess.run(
        [sys.executable, "-m", "hypfol", *argv, "--out", str(tmp_path / "x")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    results = strict_json((tmp_path / "x.json").read_text())["results"]
    (minimum,) = results["minima"]
    assert all(map(math.isfinite, results["ring_min_values"] + [minimum["value"]]))
    # the nearest leaf is over (1, 0), as from the point at distance 231 above
    assert minimum["params"] == pytest.approx([1.0, 0.0], abs=1e-6)


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
    # both scripts on small grids; they drive the endpoint ranks, the
    # eigenvector test and the initial-value rank outside the CLI
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    outputs = []
    for argv in (
        ["classify_families.py", "--grid", "4x4"],
        ["reproduce_counterexample.py", "--classify-grid", "4x4", "--out", "crossing.json"],
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
    families, _ = outputs
    vertical, plane_normal = families.split("== plane-normal")
    assert "endpoint-map ranks: forward [0], backward [2]" in vertical
    assert "endpoint-map ranks: forward [2], backward [2]" in plane_normal
    for family in (vertical, plane_normal):
        assert "initial-value ranks: [2]" in family
    # the definite chart has two leaves through the seed point, at an angle
    crossing = json.loads((tmp_path / "crossing.json").read_text())
    assert crossing["classification_half"]["aggregate"] == "definite"
    assert len([m for m in crossing["minima"] if m["value"] <= 1e-24]) == 2
    assert crossing["leaves_through_seed"]["count"] == 2
    assert crossing["leaves_through_seed"]["angle"] > 0.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify_families.py", "--grid", "4"], "grid must look like NxM, got '4'"),
        (["reproduce_counterexample.py", "--classify-grid", "1x40"], "grid dimensions must be at least 2"),
        (["reproduce_counterexample.py", "--classify-grid", "4xq"], "grid must look like NxM, got '4xq'"),
        (["reproduce_counterexample.py", "--alpha0", "2"], "alpha0 must lie in (0, pi/2)"),
        (["reproduce_counterexample.py", "--delta", "-1"], "delta must be positive"),
        (["reproduce_counterexample.py", "--alpha0", "nan"], "--alpha0 must be finite, got nan"),
        (["reproduce_counterexample.py", "--alpha0", "5e-324"], f"alpha0 5e-324 is too small: {_UNDERFLOW}"),
        (["reproduce_counterexample.py", "--alpha0", "1e-323"], f"alpha0 1e-323 is too small: {_UNDERFLOW}"),
    ],
)
def test_experiment_scripts_reject_grids_like_the_cli(tmp_path, capsys, argv, message):
    # the scripts parse their grids with the CLI's parser and map the spiral's
    # errors as the CLI does, so they exit 2 with its message
    if argv[1].endswith("grid"):
        with pytest.raises(hf.ConfigError, match=f"^{re.escape(message)}$"):
            cli._parse_grid(argv[2])
    else:
        assert main(["scan-lambda", *argv[1:], "--out", str(tmp_path / "cli")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parents[1] / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {message}\n"


def test_counterexample_script_reports_an_unwritable_out_like_the_cli(tmp_path):
    # the experiment runs to the end, then its --out write fails: exit 2 with
    # the CLI's message, as for a CLI output in a missing directory
    argv = ["--classify-grid", "4x4", "--out", str(tmp_path / "missing" / "x.json")]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parents[1] / "scripts" / "reproduce_counterexample.py"), *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write the output: ") and proc.stderr.count("\n") == 1
    assert "leaves through the seed point" in proc.stdout
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path, pairs):
    # refused before any benchmark run: the checkouts need not exist
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    argv = ["--before", "missing", "--after", "missing", "--workload", "classify-mix", "--pairs", pairs]
    proc = subprocess.run(
        [sys.executable, str(script), *argv, "--out", "b.json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "bench_pairs.py: error: --pairs must be at least 2: the quartiles need two runs per side"
    )
    assert not (tmp_path / "b.json").exists()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_prints_one_line_per_metric():
    # two fake runs per side; no benchmark runs
    bench_pairs = _bench_pairs()
    runs = {
        "before": [{"wall_s": 1.0, "samples_per_s": 10.0}, {"wall_s": 3.0, "samples_per_s": 30.0}],
        "after": [{"wall_s": 1.5, "samples_per_s": 40.0}, {"wall_s": 2.0, "samples_per_s": 50.0}],
    }
    stats = bench_pairs.pair_stats(runs, {"wall_s": "lower", "samples_per_s": "higher"})
    assert stats["wall_s"] == {
        "before": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "after": {"median": 1.75, "q1": 1.625, "q3": 1.875},
        "after_wins": 1,
    }
    assert bench_pairs.stat_lines("classify-mix", stats, 2) == [
        "classify-mix wall_s: median 2 -> 1.75, before quartiles [1.5, 2.5] (after median inside), after wins 1 of 2",
        "classify-mix samples_per_s: median 20 -> 45, before quartiles [15, 25] (after median outside), "
        "after wins 2 of 2",
    ]


def test_bench_pairs_records_checkout_state(tmp_path):
    bench_pairs = _bench_pairs()
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    plain.mkdir()
    (plain / "f").write_text("a\n")
    assert bench_pairs.checkout_state(plain) == {"commit": None, "dirty": None}

    def git(*argv):
        return subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *argv],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()

    repo.mkdir()
    (repo / "f").write_text("a\n")
    git("init", "-q")
    git("add", "f")
    git("commit", "-q", "-m", "one")
    commit = git("rev-parse", "HEAD")
    (repo / "untracked").write_text("x\n")  # untracked files do not count
    assert bench_pairs.checkout_state(repo) == {"commit": commit, "dirty": False}
    (repo / "f").write_text("b\n")
    assert bench_pairs.checkout_state(repo) == {"commit": commit, "dirty": True}
    # a directory inside a git tree is not a checkout of it
    (repo / "sub").mkdir()
    assert bench_pairs.checkout_state(repo / "sub") == {"commit": None, "dirty": None}


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


def test_default_base_point_is_the_origin():
    cfg = cli._build_config(cli.build_parser().parse_args(["critical", "--family", "vertical"]))
    assert cli._base_point(cfg) is hf.ORIGIN.v


def _point_at(distance, direction=(1.0, 0.0, 0.0)):
    """``--base-point`` arguments of the point at ``distance`` from the origin along ``direction``."""
    u = np.asarray(direction) / np.linalg.norm(direction)
    return [repr(math.cosh(distance)), *(repr(float(x)) for x in math.sinh(distance) * u)]


@pytest.mark.parametrize(
    "point", [_point_at(0.0), _point_at(2.0), _point_at(8.0), _point_at(8.0, (0.3, -0.5, 0.8)), _point_at(14.0)]
)
def test_exact_base_point_is_accepted(tmp_path, point):
    argv = ["critical", "--family", "vertical", "--grid", "4x4", "--base-point", *point]
    assert run(argv + ["--out", str(tmp_path / "x")]) == 0
    # the point used is the typed one, normalized or not, to 1e-6 relative
    used = cli._base_point(cli._build_config(cli.build_parser().parse_args(argv)))
    typed = np.array([float(x) for x in point])
    assert np.max(np.abs(used - typed)) <= 1e-6 * np.max(np.abs(typed))


def test_base_point_admitted_by_roundoff_is_used_as_typed(tmp_path):
    # <x, x> + 1 is about 4e184, inside the pairing's roundoff 4 eps |x|^2 =
    # 1e185 but not within 1e-6: normalizing would divide by roundoff and
    # measure from a point at distance about 18 instead of 231
    point = ["1.0000000000000002e+100", "1e100", "0", "0"]
    argv = ["critical", "--family", "plane-normal", "--grid", "3x3", "--base-point", *point]
    assert run(argv + ["--out", str(tmp_path / "x")]) == 0
    results = json.loads((tmp_path / "x.json").read_text())["results"]
    _, chart = hf.plane_normal_family()
    minima, rings = hf.critical_point_scan(chart, base=np.array([float(x) for x in point]), grid=(3, 3))
    assert results["minima"] == [m.to_dict() for m in minima] and results["ring_min_values"] == rings
    # the nearest leaf, over (1, 0), crosses the plane of the point at distance 1 from the origin
    assert results["minima"][0]["params"] == [1.0, 0.0]
    assert math.sqrt(results["minima"][0]["value"]) == pytest.approx(math.acosh(1e100) - 1.0, rel=1e-12)


def test_near_base_point_is_normalized():
    # a point within 1e-6 of the hyperboloid is divided by sqrt(-<x, x>), so
    # the crossing of the endpoint benchmark keeps its base point bit for bit
    point = [repr(math.cosh(2.0)), repr(math.sinh(2.0)), "0.0", "0.0"]
    argv = ["critical", "--family", "prop", "--lambda", "0.0711", "--base-point", *point]
    typed = np.array([float(x) for x in point])
    used = cli._base_point(cli._build_config(cli.build_parser().parse_args(argv)))
    assert used.tolist() == (typed / math.sqrt(-hf.mink_inner(typed, typed))).tolist()


@pytest.mark.parametrize(
    "point",
    [
        # <x, x> = -200, at distance 9.90 from the origin, which a rescaling would move to 7.25
        ["1e4", "9999.99", "0", "0"],
        # the point at distance 2 to 7 digits: <x, x> + 1 is off by 4e-6
        ["3.762196", "3.626860", "0", "0"],
        [f"{math.cosh(14.0):.10g}", f"{math.sinh(14.0):.10g}", "0", "0"],
    ],
)
def test_base_point_off_the_hyperboloid_exits_2(tmp_path, capsys, point):
    argv = ["critical", "--family", "vertical", "--grid", "4x4", "--base-point", *point]
    assert run(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == "error: --base-point must satisfy -x0^2 + x1^2 + x2^2 + x3^2 = -1\n"
    assert not list(tmp_path.iterdir())


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
    # rings; the solver's one start sits on the leaf through the base point,
    # so its first call of 2 rows (the two complex steps) ends it
    assert run(["critical", "--family", "plane-normal", "--grid", "15x15", "--out", str(tmp_path / "c")]) == 0
    assert chart_array_calls == [225, 2]


@pytest.mark.parametrize("family", ["vertical", "plane-normal"])
def test_classify_field_checks_make_one_field_call(tmp_path, monkeypatch, family):
    # the residual and all five transverse charts read one call at the 5
    # sample points and their 3 frame vectors each
    calls = []
    resolve = cli._resolve_family

    def counted_resolve(cfg):
        chart, field = resolve(cfg)

        def counted(points):
            calls.append(points.shape)
            return field(points)

        return chart, counted

    monkeypatch.setattr(cli, "_resolve_family", counted_resolve)
    assert run(["classify", "--family", family, "--grid", "12x12", "--out", str(tmp_path / "c")]) == 0
    assert calls == [(15, 4)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["vertical", "plane-normal"])
def test_classify_field_checks_match_loop_reference_for_every_seed(tmp_path, family, seed):
    # the benchmark runs the default seed only
    argv = ["classify", "--family", family, "--grid", "3x3", "--seed", str(seed), "--out", str(tmp_path / "c")]
    assert run(argv) == 0
    results = json.loads((tmp_path / "c.json").read_text())["results"]
    field, _ = hf.vertical_family() if family == "vertical" else hf.plane_normal_family()
    points = [p.v for p in reference_ball_samples(hf.ORIGIN, 0.8, 5, seed=seed)]
    residual, degenerate, _, _ = reference_field_checks(field, points)
    assert results["field_residual"] == residual
    assert results["eigencheck_degenerate"] == degenerate


@pytest.mark.parametrize("family", ["vertical", "plane-normal"])
def test_classify_of_a_field_family_leaves_numpy_random_unimported(tmp_path, family):
    # the sample points come from the standard library's generator, which
    # numpy has already imported; numpy.random would add several MB
    code = (
        "import sys\n"
        "from hypfol import cli\n"
        f"assert cli.main(['classify', '--family', {family!r}, '--grid', '3x3', '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "c.json").is_file()


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


@pytest.mark.parametrize("seed", ["0", "7"])
def test_seed_rejected_for_prop(tmp_path, capsys, seed):
    # only the vertical and plane-normal fields draw sample points
    argv = ["classify", "--family", "prop", "--lambda", "0.07", "--seed", seed, "--grid", "3x3"]
    assert run([*argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == "error: --family prop does not take --seed (only vertical and plane-normal do)\n"
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
    # the grid is one block, which fails before a file is opened
    assert not list(tmp_path.iterdir())
    # a scalar evaluation of an invalid leaf fails the same way
    with pytest.raises(hf.NumericalError, match="not on the unit hyperboloid"):
        _broken(hf.plane_normal_family()[1]).map(0.1, 0.2)


def test_gauss_failing_in_a_later_block_leaves_a_truncated_csv(tmp_path, capsys, monkeypatch):
    # 70x61 is two blocks of 2135 samples (35 grid rows); the leaves with
    # a > 0.5, grid rows 52 on, lie in the second
    argv = ["gauss", "--family", "plane-normal", "--grid", "70x61", "--out"]
    assert run(argv + [str(tmp_path / "whole")]) == 0
    chart = hf.plane_normal_family()[1]

    def arrays(a, b):
        foot, direction = chart.arrays(a, b)
        return np.where(np.real(a)[:, None] > 0.5, 1.5 * foot, foot), direction

    monkeypatch.setattr(cli, "_resolve_family", lambda cfg: (hf.FoliationChart(arrays=arrays, domain=chart.domain), None))
    capsys.readouterr()
    assert [s.stop for s in hf.foliation.row_blocks(70 * 61)] == [2135, 4270]
    assert run(argv + [str(tmp_path / "x")]) == 3
    a = float(hf.grid_axes(chart, (70, 61))[0][52])
    assert capsys.readouterr().err == (
        f"numerical failure: chart leaf at ({a!r}, -1.0): point is not on the unit hyperboloid\n"
    )
    assert not (tmp_path / "x.json").exists()
    whole = (tmp_path / "whole.csv").read_text().splitlines(keepends=True)
    assert (tmp_path / "x.csv").read_text() == "".join(whole[: 1 + 2135])


def test_directory_at_the_output_path_exits_2(tmp_path, capsys):
    (tmp_path / "c.json").mkdir()
    assert run(["classify", "--family", "vertical", "--grid", "3x3", "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the output: ")
    assert (tmp_path / "c.json").is_dir() and not list((tmp_path / "c.json").iterdir())


@pytest.mark.parametrize("out", ["", "dir/", ".", "..", "dir/.", "dir/.."])
@pytest.mark.parametrize(
    "command", [["scan-lambda"], *([c, "--family", "vertical"] for c in ("classify", "gauss", "critical"))], ids=lambda c: c[0]
)
def test_out_without_a_file_base_exits_2(tmp_path, capsys, monkeypatch, command, out):
    # an empty --out, one ending in a separator and a base name "." or ".."
    # would write a hidden ".json", "..json" or "...json"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    assert run([*command, "--grid", "3x3", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out must name a file base, got {out!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not list((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("command", ["scan-lambda", "gauss"])
def test_directory_at_the_csv_path_leaves_no_json(tmp_path, capsys, command):
    # every command writes its JSON last, so a CSV that cannot be written leaves none
    (tmp_path / "c.csv").mkdir()
    family = [] if command == "scan-lambda" else ["--family", "vertical"]
    assert run([command, *family, "--grid", "3x3", "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the output: ")
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


def test_peak_rss_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--grid", "3x3"], capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["scan-lambda", "gauss", "classify"]
    for line in lines:
        assert re.fullmatch(r"[^:]* --grid 3x3: \d+\.\d\d MB", line), line


@pytest.mark.parametrize("command", ["classify", "gauss"])
def test_tol_help_names_both_meanings(capsys, command):
    # one flag, two readings: the verdict tolerance and the endpoint rank floor
    with pytest.raises(SystemExit):
        run([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "classify: verdict tolerance" in text and "gauss: absolute singular-value floor of the endpoint ranks" in text


def test_leaf_failing_during_descent_exits_3(tmp_path, capsys, monkeypatch):
    # every grid leaf is valid (the 16x16 grid's nearest a to 0 is 1/15);
    # the leaves within 0.05 of a = 0, where the Gauss-Newton descent's
    # first step from the four central cells lands, are not
    def off_grid(chart):
        def arrays(a, b):
            foot, direction = chart.arrays(a, b)
            bad = np.abs(np.real(a)) < 0.05
            return np.where(bad[:, None], 1.5 * foot, foot), direction

        return hf.FoliationChart(arrays=arrays, domain=chart.domain)

    resolve = cli._resolve_family
    monkeypatch.setattr(cli, "_resolve_family", lambda cfg: (off_grid(resolve(cfg)[0]), None))
    assert run(["critical", "--family", "plane-normal", "--grid", "16x16", "--out", str(tmp_path / "x")]) == 3
    err = re.fullmatch(
        r"numerical failure: chart leaf at \((\S+), (\S+)\): point is not on the unit hyperboloid\n",
        capsys.readouterr().err,
    )
    assert err and abs(float(err[1])) < 0.05
    assert not list(tmp_path.iterdir())


def test_overflowing_complex_step_exits_3(tmp_path, capsys):
    argv = ["classify", "--family", "prop", "--lambda", "1e300", "--grid", "3x3", "--out", str(tmp_path / "x")]
    assert run(argv) == 3
    assert capsys.readouterr().err == "numerical failure: chart tangents at (1.0, -0.1) are not finite\n"


@pytest.mark.parametrize("delta", ["8e305", "5e307", "1e308"])
@pytest.mark.parametrize(
    "command",
    [["scan-lambda"], *([c, "--family", "prop", "--lambda", "1e3"] for c in ("classify", "gauss", "critical"))],
    ids=lambda command: command[0],
)
def test_overflowing_tilt_exits_2(tmp_path, capsys, command, delta):
    # the tilt alpha0 + lam (t - r) over the rectangle does not fit a float;
    # a RuntimeWarning would fail the test (pytest turns it into an error)
    assert run([*command, "--delta", delta, "--grid", "4x4", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the tilt overflows on the parameter rectangle") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


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
    ["--delta", "inf"], ["--delta", "1e308"], ["--grid", "1x3"], ["--grid", "abc"], ["--grid", "2x99999999999999999999"],
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
    ["--base-point", "1", "1", "0", "0"], ["--base-point", "nan", "0", "0", "0"],
    ["--base-point", "1e200", "1e200", "0", "0"], ["--seed", "-1"], ["--bogus"], ["--out", "missing/x"], ["--out", ""],
    ["--out", "."],
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


#: command lines for the parser identity test, besides the ``_argv`` draws;
#: ``OUT`` stands for the output base
_PARSER_CASES = [
    [], ["-h"], ["--version"], ["bogus"], ["classif"], ["--version", "classify"], ["-h", "gauss"],
    ["classify", "-h"], ["gauss", "--help"], ["classify", "--version"], ["critical", "--bogus", "-h"],
    ["classify", "--fam", "vertical", "--grid", "3x3", "--out", "OUT"],
    ["classify", "--family=vertical", "--grid=3x3", "--out=OUT"],
    ["classify", "--family", "vertical", "--grid", "2x2", "--grid", "3x3", "--out", "OUT"],
    ["classify", "--family", "vertical", "--family", "helix", "--out", "OUT"],
    ["classify", "--family", "vertical", "--grid", "3x3", "--out", "OUT", "extra"],
    ["classify", "--grid", "3x3"], ["classify", "--family"], ["classify", "--lambda", "x", "--family", "prop"],
    ["scan-lambda", "--", "x"], ["scan-lambda", "--grid", "3x3", "--out", "OUT", "--"],
    ["gauss", "--family", "vertical", "--grid", "3x3", "--out", "OUT", "--seed", "1"],
    ["classify", "--family", "prop", "--lambda", "-0.1", "--grid", "3x3", "--out", "OUT"],
    ["critical", "--family", "vertical", "--grid", "4x4", "--base-point", "-1", "0", "0", "0", "--out", "OUT"],
    ["critical", "--family", "vertical", "--base-point", "1", "0", "--out", "OUT"],
    ["classify", "--=x"], ["gauss", "--family", "vertical", "--=1", "--out", "OUT"], ["--=x"],
]


def _outcome(argv, tmp):
    """Exit code, stdout, stderr and the files written of one ``main`` call,
    which runs in the empty directory ``tmp`` and leaves it empty again."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    files = {}
    for path in sorted(Path(tmp).iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return code, out.getvalue(), err.getvalue(), files


def _assert_parse_matches_full_tree(argv, tmp):
    # one ``main`` call on the cached parser tree, one on a fresh tree, with
    # the terminal width that argparse's messages wrap to pinned
    argv = [os.path.join(tmp, "x") if x == "OUT" else x.replace("=OUT", "=" + os.path.join(tmp, "x")) for x in argv]
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        cached = _outcome(argv, tmp)
        with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
            fresh = _outcome(argv, tmp)
    assert cached == fresh
    return cached


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_command_parser_matches_full_tree(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err, _ = _assert_parse_matches_full_tree(argv, str(tmp_path))
    assert code in (0, 2, 3) and (code == 0 or err)


@given(_argv())
def test_command_parser_matches_full_tree_on_drawn_lines(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_parse_matches_full_tree([*argv, "--out", "OUT"], tmp)


@pytest.mark.parametrize(
    "argv,parsers",
    [
        (["classify", "--family", "vertical", "--grid", "3x3"], 1 + len(cli._COMMAND_OPTIONS)),
        (["gauss", "--family", "plane-normal", "--grid", "3x3"], 1 + len(cli._COMMAND_OPTIONS)),
        (["--version"], 1 + len(cli._COMMAND_OPTIONS)),
        # an argument left over, which the tree reports
        (["gauss", "--family", "vertical", "--grid", "3x3", "--seed", "1"], 1 + len(cli._COMMAND_OPTIONS)),
    ],
)
def test_parsers_built_per_command_line(tmp_path, monkeypatch, argv, parsers):
    # ``parsers``, the top-level parser and one per command, are built on the
    # first line of a process, whatever the line, and none on any later line
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def count(argv):
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                main([*argv, "--out", str(tmp_path / "x")])
            except SystemExit:
                pass
        return len(built)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert count(argv) == parsers
    assert count(argv) == 0
    # another command's first line builds nothing either
    assert count(["scan-lambda", "--grid", "3x3"]) == 0
    assert count(["scan-lambda", "--grid", "2x3"]) == 0
    assert count(argv) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_warm_command_parsers_repeat_every_parser_case(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli.build_parser.cache_clear()
    first = [_assert_parse_matches_full_tree(argv, str(tmp_path)) for argv in _PARSER_CASES]
    assert cli.build_parser.cache_info().currsize == 1
    assert cli.build_parser.cache_info().hits == len(_PARSER_CASES) - 1
    assert [_assert_parse_matches_full_tree(argv, str(tmp_path)) for argv in _PARSER_CASES] == first


#: lines the parser tree or the configuration rejects, for the warm parser
#: test: a bad float, a missing ``--family``, help, ``--=x`` and a leftover
_ERROR_LINES = [
    ["critical", "--family", "vertical", "--alpha0", "x", "--out", "OUT"],
    ["gauss", "--grid", "3x3", "--out", "OUT"],
    ["classify", "-h"],
    ["scan-lambda", "--=x"],
    ["classify", "--family", "vertical", "--grid", "3x3", "--out", "OUT", "extra"],
]


@given(_argv(), st.sampled_from(_ERROR_LINES))
def test_warm_command_parsers_repeat_outcomes_around_errors(argv, error):
    # the tree stays cached across examples; each line's outcome is a fresh
    # tree's, and a line's second outcome its first
    with tempfile.TemporaryDirectory() as tmp:
        line = [*argv, "--out", "OUT"]
        first = _assert_parse_matches_full_tree(line, tmp)
        failed = _assert_parse_matches_full_tree(error, tmp)
        assert failed[0] == (0 if "-h" in error else 2)
        assert _assert_parse_matches_full_tree(line, tmp) == first
        assert _assert_parse_matches_full_tree(error, tmp) == failed


def test_cached_parser_formats_at_the_current_width(tmp_path, monkeypatch):
    # argparse reads the terminal width when it formats help and errors, not
    # when it builds a parser, so the cached tree wraps like a fresh one at
    # every width, and a width left behind by its first line does not stick
    monkeypatch.chdir(tmp_path)
    lines = [["classify", "-h"], ["critical", "--family", "vertical", "--alpha0", "x"]]
    cli.build_parser.cache_clear()
    outcomes = {}
    for columns in ("60", "100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        cached = [_outcome(line, str(tmp_path)) for line in lines]
        with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
            assert [_outcome(line, str(tmp_path)) for line in lines] == cached
        assert outcomes.setdefault(columns, cached) == cached
    assert cli.build_parser.cache_info().misses == 1
    # the two widths wrap both outputs differently, so the test can tell them apart
    assert all(a[1:] != b[1:] for a, b in zip(outcomes["60"], outcomes["100"]))


def test_readme_synopsis_lists_every_option_of_each_command():
    # a flag added to a command without a README synopsis line fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("hypfol "):
            command = line.split()[1]
        synopsis.setdefault(command, set()).update(re.findall(r"--[a-z0-9-]+", line))
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        command: {flag for action in parser._actions for flag in action.option_strings if flag.startswith("--")}
        for command, parser in sub.choices.items()
    }
    assert synopsis == {command: flags - {"--help"} for command, flags in options.items()}


def test_warm_sample_templates_give_the_same_report(tmp_path):
    _, chart = hf.vertical_family()
    rep = hf.classify_chart(chart, grid=(4, 5), tol=hf.VERDICT_TOL)
    payload = report.report_payload("classify", {}, {"classification": rep}, hf.__version__)
    report._sample_template.cache_clear()
    report.write_report(tmp_path / "a.json", payload)
    assert report._sample_template.cache_info().hits == 0
    report.write_report(tmp_path / "b.json", payload)
    assert report._sample_template.cache_info().hits > 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_import_builds_no_parser_and_leaves_the_cli_unimported():
    # set-up and one-shot runs pay for nothing moved into import
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import hypfol\n"
        "print(sorted(m for m in ('hypfol.cli', 'hypfol.report') if m in sys.modules))\n"
        "import hypfol.cli\n"
        "print(built)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


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
