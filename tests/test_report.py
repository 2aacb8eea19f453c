"""Report and grid-CSV emission: the streamed writers against the object
form and the row-list writer, the JSON encoding of numpy values, and the
CSVs of the commands."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypfol as hf
from hypfol import cli, foliation, report
from hypfol.cli import main
from hypfol.geodesics import endpoint_images
from util import collapsed_chart, reference_report_text, reference_write_csv

#: values whose repr the writer must keep exactly
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05]


def _with_specials(rng, size):
    values = rng.normal(scale=10.0 ** rng.integers(-8, 9, size=size), size=size)
    where = rng.choice(size, size=min(size, len(SPECIAL)), replace=False)
    values[where] = rng.choice(SPECIAL, size=len(where))
    return values


def _write_csv_matches_row_writer(tmp_path, rng, grid, kinds):
    """``write_csv`` on random axes and one value column per letter of
    ``kinds`` ("f" float, "i" integer) against the row writer."""
    n, m = grid
    axes = (_with_specials(rng, n), _with_specials(rng, m))
    columns = [_with_specials(rng, n * m) if k == "f" else rng.integers(0, 3, size=n * m) for k in kinds]
    header = ["a", "b", *(f"{k}{j}" for j, k in enumerate(kinds))]
    report.write_csv(tmp_path / "new.csv", header, axes, lambda s: [c[s] for c in columns])
    a, b = np.repeat(axes[0], m).tolist(), np.tile(axes[1], n).tolist()
    rows = [list(row) for row in zip(a, b, *(c.tolist() for c in columns))]
    reference_write_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("grid", [(2, 2), (3, 7), (1, 5)])
def test_write_csv_matches_row_writer(tmp_path, rng, grid):
    _write_csv_matches_row_writer(tmp_path, rng, grid, "fiff")


@pytest.mark.parametrize("kinds", ["", "f", "fffifffi"])
@pytest.mark.parametrize("block", [None, 2])
def test_write_csv_row_assembly_matches_row_writer(tmp_path, rng, monkeypatch, kinds, block):
    # zero, one and eight value columns on axes of length 1 and more, in one
    # block or in blocks of 2 or 3 samples whose edges fall inside grid rows
    if block is not None:
        monkeypatch.setattr(foliation, "_BLOCK", block)
    for grid in [(1, 1), (4, 1), (1, 5), (3, 7)]:
        _write_csv_matches_row_writer(tmp_path, rng, grid, kinds)


def _scan_lambda_csv_matches_row_writer(tmp_path, grid):
    argv = ["scan-lambda", "--alpha0", "0.61", "--grid", f"{grid[0]}x{grid[1]}", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    lam = json.loads((tmp_path / "s.json").read_text())["results"]["scan"]["lambda_max"]
    params = hf.SpiralParams(alpha0=0.61, lam=lam, delta=0.1)
    r, t = hf.grid_arrays(hf.spiral_chart(params), grid)
    rows = np.column_stack((r, t, hf.definiteness_margin(r, t, params))).tolist()
    reference_write_csv(tmp_path / "old.csv", ["r", "t", "h_value"], rows)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _gauss_csv_matches_row_writer(tmp_path, grid):
    argv = ["gauss", "--family", "prop", "--lambda", "0.05", "--grid", f"{grid[0]}x{grid[1]}"]
    assert main(argv + ["--out", str(tmp_path / "g")]) == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()
    chart = hf.spiral_chart(hf.SpiralParams(lam=0.05))
    jets = hf.chart_jets(chart, *hf.grid_arrays(chart, grid))
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


def test_scan_lambda_csv_matches_row_writer(tmp_path):
    _scan_lambda_csv_matches_row_writer(tmp_path, (13, 29))


def test_gauss_csv_matches_row_writer(tmp_path):
    _gauss_csv_matches_row_writer(tmp_path, (5, 6))


@pytest.mark.parametrize(
    "command, grid",
    [("scan-lambda", (300, 300)), ("scan-lambda", (2, 5000)), ("gauss", (70, 61)), ("gauss", (3, 2000))],
)
def test_streamed_csv_matches_whole_grid_row_writer(tmp_path, command, grid):
    # several blocks of row_blocks; all but those of 70x61 end inside a grid
    # row.  The reference formats whole-grid columns in one pass
    assert len(foliation.row_blocks(grid[0] * grid[1])) > 1
    {"scan-lambda": _scan_lambda_csv_matches_row_writer, "gauss": _gauss_csv_matches_row_writer}[command](tmp_path, grid)


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


# ---------------------------------------------------------------------------
# the samples block of a classification report


def _classify_payload(rep):
    results = {"classification": rep, "field_residual": 3e-16}
    return report.report_payload("classify", {"grid": list(rep.grid)}, results, "0")


def _lam_max_4x4():
    return hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1).lambda_max


#: a chart and grid per sample shape, and the Killing-value count (None:
#: rank-deficient) every sample or some sample of its report has
SHAPES = {
    "definite": (lambda: hf.spiral_chart(hf.SpiralParams(lam=0.07)), (100, 100), 0, all),
    "kernel": (lambda: hf.spiral_chart(hf.SpiralParams(lam=_lam_max_4x4())), (4, 4), 1, any),
    "cone": (lambda: hf.spiral_chart(hf.SpiralParams(lam=0.3)), (6, 6), 2, any),
    "flat": (lambda: hf.vertical_family()[1], (5, 5), 8, all),
    "rank-deficient": (lambda: collapsed_chart(hf.plane_normal_family()[1]), (4, 4), None, all),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_samples_block_matches_object_form(tmp_path, shape):
    make_chart, grid, count, quantifier = SHAPES[shape]
    rep = hf.classify_chart(make_chart(), grid=grid)
    has = rep.rank_deficient if count is None else (rep.k_count == count) & ~rep.rank_deficient
    assert quantifier(has.tolist())
    payload = _classify_payload(rep)
    report.write_report(tmp_path / "r.json", payload)
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == reference_report_text(payload)


#: floats whose repr the samples block must keep exactly
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300, 1e300, 1e16, 1e-05, 0.1]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
#: (Killing-value count, verdict code) of each sample shape; (0, -1) is rank-deficient
_shapes = st.sampled_from([(0, -1), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (8, 0), (8, 1), (8, 2)])


@st.composite
def _reports(draw):
    shapes = draw(st.lists(_shapes, min_size=0, max_size=6))
    n = len(shapes)
    values = np.array(draw(st.lists(_floats, min_size=14 * n, max_size=14 * n)), dtype=float).reshape(n, 14)
    k_count = np.array([c for c, _ in shapes], dtype=int)
    code = np.array([v for _, v in shapes], dtype=int)
    gram, k_values = values[:, :4].reshape(n, 2, 2), values[:, 4:12].copy()
    gram[code < 0] = np.nan
    k_values[np.arange(8) >= k_count[:, None]] = np.nan
    return hf.ClassificationReport("drawn", (n, 1), 1e-7, values[:, 12:], gram, k_values, k_count, code, "definite")


@given(_reports())
def test_samples_block_keeps_every_float(tmp_path_factory, rep):
    # the report at two depths of one payload, so the block is spliced twice
    payload = {"a": rep, "results": {"classification": rep, "z": [1.5]}}
    path = tmp_path_factory.mktemp("r") / "r.json"
    report.write_report(path, payload)
    assert path.read_text(encoding="utf-8") == reference_report_text(payload)


def test_samples_block_keeps_signed_zeros_among_repeated_floats(tmp_path):
    # a 3 x 3 grid whose axes repeat across rows and columns and hold both
    # zeros; symmetric Gram matrices whose off-diagonal entry is 0.0 or -0.0
    axis = [-0.0, 0.0, 0.1]
    params = np.array([(a, b) for a in axis for b in axis[::-1]])
    off = np.array([0.0, -0.0, 0.1] * 3)
    gram = np.stack((np.stack((params[:, 0], off), axis=-1), np.stack((off, params[:, 1]), axis=-1)), axis=1)
    k_count = np.array([0, 1, 2, 8, 0, 1, 2, 8, 0])
    k_values = np.where(np.arange(8) < k_count[:, None], np.tile([-0.0, 0.0, 0.1, -0.1], 2), np.nan)
    code = np.array([3, 0, 1, 2, 0, 1, 2, 0, -1])
    gram[code < 0] = np.nan
    rep = hf.ClassificationReport("zeros", (3, 3), 1e-7, params, gram, k_values, k_count, code, "definite")
    payload = _classify_payload(rep)
    report.write_report(tmp_path / "r.json", payload)
    text = (tmp_path / "r.json").read_text(encoding="utf-8")
    assert text == reference_report_text(payload)
    assert re.search(r" -0\.0[,\n]", text) and re.search(r" 0\.0[,\n]", text)


@pytest.mark.parametrize("column, cell", [("gram", (1, 0, 1)), ("k_values", (1, 7)), ("params", (1, 0))])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_column_value_raises_before_writing(tmp_path, column, cell, bad):
    rep = hf.classify_chart(hf.vertical_family()[1], grid=(2, 2))
    values = getattr(rep, column).copy()
    values[cell] = bad
    path = tmp_path / "r.json"
    with pytest.raises(hf.NumericalError, match="non-finite value in the report sample at"):
        report.write_report(path, _classify_payload(dataclasses.replace(rep, **{column: values})))
    assert not path.exists()


def test_undefined_cells_are_not_written(tmp_path):
    # NaN marks the cells a sample does not use: unused Killing slots and the
    # Gram matrix of a rank-deficient sample
    rep = hf.classify_chart(collapsed_chart(hf.plane_normal_family()[1]), grid=(3, 3))
    assert np.isnan(rep.gram).all() and np.isnan(rep.k_values).all()
    report.write_report(tmp_path / "r.json", _classify_payload(rep))
    assert "NaN" not in (tmp_path / "r.json").read_text(encoding="utf-8")


def test_non_finite_column_value_exits_3(tmp_path, capsys, monkeypatch):
    def classify_with_nan(chart, grid, tol):
        rep = hf.classify_chart(chart, grid=grid, tol=tol)
        k_values = rep.k_values.copy()
        k_values[3, 0] = math.nan
        return dataclasses.replace(rep, k_values=k_values)

    monkeypatch.setattr(cli, "classify_chart", classify_with_nan)
    assert main(["classify", "--family", "vertical", "--grid", "3x3", "--out", str(tmp_path / "c")]) == 3
    assert "numerical failure: non-finite value in the report sample at" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()
