"""Report and grid-CSV emission: the streamed writer against the row-list
writer, the JSON encoding of numpy values, and the CSVs of the commands."""

import json
import math

import numpy as np
import pytest

import hypfol as hf
from hypfol import report
from hypfol.cli import main
from hypfol.geodesics import endpoint_images
from util import reference_write_csv

#: values whose repr the writer must keep exactly
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05]


def _with_specials(rng, size):
    values = rng.normal(scale=10.0 ** rng.integers(-8, 9, size=size), size=size)
    where = rng.choice(size, size=min(size, len(SPECIAL)), replace=False)
    values[where] = rng.choice(SPECIAL, size=len(where))
    return values


@pytest.mark.parametrize("grid", [(2, 2), (3, 7), (1, 5)])
def test_write_csv_matches_row_writer(tmp_path, rng, grid):
    n, m = grid
    axes = (_with_specials(rng, n), _with_specials(rng, m))
    floats = [_with_specials(rng, n * m) for _ in range(3)]
    ranks = rng.integers(0, 3, size=n * m)
    header = ["a", "b", "x", "rank", "y", "z"]
    columns = [floats[0], ranks, floats[1].reshape(n, m), floats[2]]
    report.write_csv(tmp_path / "new.csv", header, axes, columns)
    a, b = np.repeat(axes[0], m).tolist(), np.tile(axes[1], n).tolist()
    rows = [list(row) for row in zip(a, b, floats[0].tolist(), ranks.tolist(), floats[1].tolist(), floats[2].tolist())]
    reference_write_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_scan_lambda_csv_matches_row_writer(tmp_path):
    grid = (13, 29)
    argv = ["scan-lambda", "--alpha0", "0.61", "--grid", f"{grid[0]}x{grid[1]}", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    lam = json.loads((tmp_path / "s.json").read_text())["results"]["scan"]["lambda_max"]
    params = hf.SpiralParams(alpha0=0.61, lam=lam, delta=0.1)
    r, t = hf.grid_arrays(hf.spiral_chart(params), grid)
    rows = np.column_stack((r, t, hf.definiteness_margin(r, t, params))).tolist()
    reference_write_csv(tmp_path / "old.csv", ["r", "t", "h_value"], rows)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_gauss_csv_matches_row_writer(tmp_path):
    assert main(["gauss", "--family", "prop", "--lambda", "0.05", "--grid", "5x6", "--out", str(tmp_path / "g")]) == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()
    chart = hf.spiral_chart(hf.SpiralParams(lam=0.05))
    jets = hf.chart_jets(chart, *hf.grid_arrays(chart, (5, 6)))
    ranks = jets.endpoint_ranks(atol=hf.VERDICT_TOL)
    images = [endpoint_images(jets.foot, jets.dir, sign) for sign in (1, -1)]
    rows = [
        [a, b, *fwd, fr, *bwd, br]
        for (a, b), fwd, fr, bwd, br in zip(
            jets.params.tolist(), images[0].tolist(), ranks[0].tolist(), images[1].tolist(), ranks[1].tolist()
        )
    ]
    reference_write_csv(tmp_path / "old.csv", lines[0].split(","), rows)
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_report_encodes_numpy_values_as_python_values(tmp_path):
    results = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-3),
        "flag": np.bool_(True),
        "array": np.arange(6.0).reshape(2, 3),
        "pair": (np.int32(1), 2.5),
    }
    report.write_report(tmp_path / "r.json", report.report_payload("test", {"grid": (2, 3)}, results, "0"))
    plain = {
        "f64": 0.1,
        "f32": float(np.float32(0.1)),
        "i64": -3,
        "flag": True,
        "array": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
        "pair": [1, 2.5],
    }
    want = report.report_payload("test", {"grid": [2, 3]}, plain, "0")
    assert (tmp_path / "r.json").read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_write_report_rejects_unknown_values(tmp_path):
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        report.write_report(tmp_path / "r.json", {"x": object()})
