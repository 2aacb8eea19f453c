"""Row blocks of the grid drivers: ``classify_chart``, which hands the chart
kernel and the classifier one block at a time, and the report and CSV
writers give the result of one whole-grid block at every block size, bit for
bit, raise the error of the first failing block, and keep their traced
memory per row bounded (numpy registers its buffers with ``tracemalloc``).
The kernel and the classifier treat every row alone: on the rows of a block
they give those rows of a whole-grid call."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import hypfol as hf
from hypfol import foliation, report
from hypfol.cli import main
from util import collapsed_chart

#: a block size that makes every grid here one block
WHOLE = 10**9
SIZES = (2, 3, 7)


def _lam_max_4x4():
    return hf.scan_lambda_max(alpha0=math.pi / 4.0, delta=0.1).lambda_max


#: per sample shape, a chart, a grid with samples of that shape, and its
#: Killing-value count (None: rank-deficient)
CHARTS = {
    "definite": (lambda: hf.spiral_chart(hf.SpiralParams(lam=0.07)), (5, 6), 0),
    "kernel": (lambda: hf.spiral_chart(hf.SpiralParams(lam=_lam_max_4x4())), (4, 4), 1),
    "cone": (lambda: hf.spiral_chart(hf.SpiralParams(lam=0.3)), (6, 6), 2),
    "flat": (lambda: hf.vertical_family()[1], (5, 5), 8),
    "rank-deficient": (lambda: collapsed_chart(hf.plane_normal_family()[1]), (4, 4), None),
}


@pytest.mark.parametrize("block", [*SIZES, 4096])
def test_row_blocks_split_evenly_without_one_row_blocks(monkeypatch, block):
    # a one-row block would take numpy's matrix-vector product in the
    # kernel, whose last bits can differ from the matrix product's
    monkeypatch.setattr(foliation, "_BLOCK", block)
    for n in [*range(80), 4095, 4096, 4097, 8193, 90000]:
        blocks = foliation.row_blocks(n)
        sizes = [s.stop - s.start for s in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(s.stop == t.start for s, t in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert n < 2 or min(sizes) >= 2, (n, sizes)
        assert max(sizes) <= max(block, 3)


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.dtype, np.ascontiguousarray(x).tobytes()


def _rows(jets, name: str, s: slice):
    """The rows ``s`` of a ``ChartJets`` field (the samples are the last axis of ``ends``)."""
    x = getattr(jets, name)
    return x[..., s] if name == "ends" else x[s]


def _blocked(monkeypatch, tmp_path, block, chart, grid):
    """The classification of a grid and its report bytes at one block size."""
    monkeypatch.setattr(foliation, "_BLOCK", block)
    rep = hf.classify_chart(chart, grid=grid)
    path = tmp_path / f"r{block}.json"
    report.write_report(path, report.report_payload("classify", {}, {"classification": rep, "z": 1.5}, "0"))
    return rep, path.read_bytes()


@pytest.mark.parametrize("block", SIZES)
@pytest.mark.parametrize("shape", sorted(CHARTS))
def test_blocks_give_the_whole_grid_result_bit_for_bit(monkeypatch, tmp_path, shape, block):
    make_chart, grid, count = CHARTS[shape]
    chart = make_chart()
    for g in ((0, 1), (1, 1), (1, block + 1), grid):
        rep, text = _blocked(monkeypatch, tmp_path, block, chart, g)
        want_rep, want_text = _blocked(monkeypatch, tmp_path, WHOLE, chart, g)
        for name in ("params", "gram", "k_values", "k_count", "verdict_code"):
            assert _bits(getattr(rep, name)) == _bits(getattr(want_rep, name)), (g, name)
        assert rep.aggregate == want_rep.aggregate
        assert text == want_text
    has = rep.rank_deficient if count is None else (rep.k_count == count) & ~rep.rank_deficient
    assert has.any()
    # the kernel on the rows of each block gives those rows of the whole grid
    a, b = hf.grid_arrays(chart, grid)
    want_jets = hf.chart_jets(chart, a, b)
    for s in foliation.row_blocks(len(a)):
        jets = hf.chart_jets(chart, a[s], b[s])
        for field in dataclasses.fields(hf.ChartJets):
            assert _bits(getattr(jets, field.name)) == _bits(_rows(want_jets, field.name, s)), (s, field.name)


@pytest.mark.parametrize("shape", sorted(CHARTS))
def test_jets_hold_unit_energy_forms_and_the_full_rank_mask(shape):
    # the kernel scales the forms once; the classifier reads them and writes
    # into none of them
    make_chart, grid, count = CHARTS[shape]
    chart = make_chart()
    jets = hf.chart_jets(chart, *hf.grid_arrays(chart, grid))
    cross = _bits(jets.cross)
    foliation._verdicts(jets, hf.VERDICT_TOL)
    assert _bits(jets.cross) == cross
    assert jets.full_rank.shape == (len(jets.params),)
    if count is None:
        # the frozen parameter's tangent is zero and stays zero
        assert not jets.full_rank.any()
        assert not jets.energy[:, 1].any()
    else:
        assert jets.full_rank.all()
    diag = np.diagonal(jets.energy, axis1=1, axis2=2)[jets.full_rank]
    assert np.max(np.abs(diag - 1.0), initial=0.0) <= 1e-15


@pytest.mark.parametrize("block", SIZES)
@pytest.mark.parametrize("family", [hf.vertical_family, hf.plane_normal_family])
def test_blocked_field_checks_give_the_whole_result_bit_for_bit(monkeypatch, family, block):
    # field_checks on the points of each block gives those rows of one call
    # on all points, its jets included, and the residual is their maximum
    field = family()[0]
    points = hf.ball_samples(0.8, 12, seed=0)
    made, build = [], foliation._jets
    monkeypatch.setattr(foliation, "_jets", lambda *args: made.append(build(*args)) or made[-1])
    (want_residual, *want), want_jets = hf.field_checks(field, points), made.pop()
    monkeypatch.setattr(foliation, "_BLOCK", block)
    residuals = []
    for s in foliation.row_blocks(len(points)):
        (residual, *got), jets = hf.field_checks(field, points[s]), made.pop()
        residuals.append(residual)
        assert [_bits(x) for x in got] == [_bits(x[s]) for x in want], s
        for f in dataclasses.fields(hf.ChartJets):
            assert _bits(getattr(jets, f.name)) == _bits(_rows(want_jets, f.name, s)), (s, f.name)
    assert max(residuals) == want_residual


@pytest.mark.parametrize("block", SIZES)
@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--family", "prop", "--lambda", "0.05", "--grid", "5x6"],
        ["gauss", "--family", "plane-normal", "--grid", "4x5"],
        ["classify", "--family", "prop", "--lambda", "0.3", "--grid", "6x5"],
        ["classify", "--family", "vertical", "--grid", "3x3"],
        ["scan-lambda", "--alpha0", "0.7", "--grid", "5x7"],
    ],
)
def test_blocked_commands_write_the_whole_grid_bytes(monkeypatch, tmp_path, capsys, argv, block):
    outputs = {}
    for size in (block, WHOLE):
        monkeypatch.setattr(foliation, "_BLOCK", size)
        base = tmp_path / str(size)
        assert main(argv + ["--out", str(base)]) == 0
        files = sorted(tmp_path.glob(f"{size}.*"))
        outputs[size] = [(f.suffix, f.read_bytes()) for f in files], capsys.readouterr().out
    assert outputs[block] == outputs[WHOLE]


# ---------------------------------------------------------------------------
# errors across blocks


def _faulty_chart(faults: dict, nan_rows: list):
    """The spiral chart at pitch 0.07 on the rows ``a = 1 + k/64``, with
    ``faults[k]`` applied to the foot of row ``k`` and NaN derivatives (so
    non-finite forms, from valid leaves) on the rows ``nan_rows``; the 12 ``a``
    values of a 12x1 grid over its domain are the rows 0 to 11."""
    base = hf.spiral_chart(hf.SpiralParams(lam=0.07))

    def arrays(a, b):
        foot, direction = base.arrays(a, b)
        k = np.rint((np.real(a) - 1.0) * 64.0).astype(int)
        if np.iscomplexobj(foot):
            direction = np.where(np.isin(k, nan_rows)[:, None], complex(math.nan, math.nan), direction)
        for row, fault in faults.items():
            foot = np.where((k == row)[:, None], fault(foot), foot)
        return foot, direction

    return hf.FoliationChart(arrays=arrays, domain=((1.0, 1.0 + 11.0 / 64.0), (0.0, 1.0)), name="faulty")


_OFF = lambda foot: 2.0 * foot  # noqa: E731  off the hyperboloid
_PAST = lambda foot: -foot  # noqa: E731  on the past sheet
_INF = lambda foot: foot * math.inf  # noqa: E731  non-finite


@pytest.mark.parametrize(
    "faults, nan_rows, row, message",
    [
        # non-finite forms in an early block, a bad leaf in a later one
        ({9: _OFF}, [1], 9, "chart leaf at {}: point is not on the unit hyperboloid"),
        # a later check in an early block, an earlier check in a later one
        ({2: _PAST, 10: _INF}, [], 10, "chart leaf at {}: non-finite leaf"),
        ({2: _PAST, 10: _OFF}, [0], 10, "chart leaf at {}: point is not on the unit hyperboloid"),
        ({4: _PAST, 6: _PAST}, [1], 4, "chart leaf at {}: point is on the past sheet"),
        ({}, [4, 9], 4, "chart tangents at {} are not finite"),
    ],
)
@pytest.mark.parametrize("block", [*SIZES, WHOLE])
def test_blocks_raise_the_whole_grid_error(monkeypatch, faults, nan_rows, row, message, block):
    # the kernel on one block names the first failing row of the first check
    # that fails, leaves before forms
    chart = _faulty_chart(faults, nan_rows)
    a, b = 1.0 + np.arange(12) / 64.0, np.linspace(0.0, 1.0, 12)
    with np.errstate(invalid="ignore"), pytest.raises(hf.NumericalError) as exc:
        hf.chart_jets(chart, a, b)
    assert str(exc.value) == message.format((float(a[row]), float(b[row])))
    # classify_chart on the 12x1 grid of the same rows raises the kernel's
    # error on the first block that holds a fault, and on one block the
    # whole-grid error
    monkeypatch.setattr(foliation, "_BLOCK", block)
    a, b = hf.grid_arrays(chart, (12, 1))
    first = next(s for s in foliation.row_blocks(12) if {*faults, *nan_rows} & {*range(s.start, s.stop)})
    with np.errstate(invalid="ignore"), pytest.raises(hf.NumericalError) as want:
        hf.chart_jets(chart, a[first], b[first])
    with np.errstate(invalid="ignore"), pytest.raises(hf.NumericalError) as exc:
        hf.classify_chart(chart, grid=(12, 1))
    assert str(exc.value) == str(want.value)
    if block == WHOLE:
        assert str(exc.value) == message.format((float(a[row]), 0.0))


@pytest.mark.parametrize("block", [*SIZES, WHOLE])
def test_blocks_name_the_first_unresolved_null_direction(monkeypatch, block):
    # flat samples (eight null directions each) with zero energy on rows 5
    # and 9, and on row 1, which is rank-deficient and so not classified
    chart = hf.vertical_family()[1]
    params = np.column_stack(hf.grid_arrays(chart, (4, 3)))
    build = foliation.chart_jets

    def broken(chart, a, b):
        jets = build(chart, a, b)
        energy, full_rank = jets.energy.copy(), jets.full_rank.copy()
        for k in (1, 5, 9):
            hit = (jets.params == params[k]).all(axis=1)
            energy[hit] = 0.0
            full_rank[hit] &= k != 1
        return dataclasses.replace(jets, energy=energy, full_rank=full_rank)

    message = f"null direction without energy at {tuple(params[5].tolist())}: tangents unresolved"
    with pytest.raises(hf.NumericalError, match=f"^{re.escape(message)}$"):
        foliation._verdicts(broken(chart, *params.T), hf.VERDICT_TOL)
    # classify_chart hands the classifier one block at a time
    monkeypatch.setattr(foliation, "_BLOCK", block)
    monkeypatch.setattr(foliation, "chart_jets", broken)
    with pytest.raises(hf.NumericalError, match=f"^{re.escape(message)}$"):
        hf.classify_chart(chart, grid=(4, 3))


# ---------------------------------------------------------------------------
# memory per row


def _traced_peak(fn) -> int:
    """Peak of the memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_classify_chart_memory_grows_by_the_report_columns(monkeypatch):
    # at a block of 512 samples, the kernel's jets and the classifier's
    # temporaries are those of one block whatever the grid; only the report's
    # columns, 128 bytes a sample, grow with it (whole-grid jets would add
    # about 260 more)
    monkeypatch.setattr(foliation, "_BLOCK", 512)
    chart = hf.spiral_chart(hf.SpiralParams(lam=0.07))
    small, large = (_traced_peak(lambda: hf.classify_chart(chart, grid=(n, n))) for n in (64, 192))
    assert large - small < 160 * (192 * 192 - 64 * 64)


def test_classify_chart_memory_per_row_is_bounded():
    # the report's columns, 128 bytes a sample, and one block of the kernel
    # and the classifier: about 535 bytes a row
    chart = hf.spiral_chart(hf.SpiralParams(lam=0.07))
    assert _traced_peak(lambda: hf.classify_chart(chart, grid=(200, 200))) < 650 * 200 * 200


def test_write_csv_memory_per_row_is_bounded(tmp_path):
    # one grid row of Python floats at a time, not the whole column
    params = hf.SpiralParams(lam=0.07)
    r, t = hf.grid_axes(hf.spiral_chart(params), (300, 300))
    margin = hf.definiteness_margin(r[:, None], t, params).ravel()
    peak = _traced_peak(lambda: report.write_csv(tmp_path / "s.csv", ["r", "t", "h_value"], (r, t), lambda s: [margin[s]]))
    assert peak < 4 * margin.size


@pytest.mark.parametrize(
    "argv, grids",
    [
        (["scan-lambda"], ("100x100", "400x400")),
        (["gauss", "--family", "prop", "--lambda", "0.07"], ("64x64", "192x192")),
    ],
)
def test_streamed_command_memory_does_not_grow_with_the_grid(monkeypatch, tmp_path, argv, grids):
    # the CSV commands hold a block of samples and the grid's axes: at a
    # block of 512 samples, the traced peak of a grid 9 or 16 times larger
    # is within 1 MB (whole-grid columns would add over 2 MB to scan-lambda
    # and over 10 MB to gauss)
    monkeypatch.setattr(foliation, "_BLOCK", 512)
    small, large = (_traced_peak(lambda: main(argv + ["--grid", g, "--out", str(tmp_path / g)])) for g in grids)
    assert large < small + 1_000_000


def test_report_finiteness_check_memory_is_bounded():
    # the (N, 14) cells and their mask, 141 bytes a row, are formed one block
    # at a time: about 1.2 MB on 90000 samples, not 12.7 MB
    rep = hf.classify_chart(hf.spiral_chart(hf.SpiralParams(lam=0.07)), grid=(300, 300))
    assert _traced_peak(lambda: report._check_finite(rep)) < 2_000_000


def test_write_report_memory_per_row_is_bounded(tmp_path):
    # the samples text, about 250 bytes a sample, and its floats are formed
    # one block at a time
    rep = hf.classify_chart(hf.spiral_chart(hf.SpiralParams(lam=0.07)), grid=(100, 100))
    payload = report.report_payload("classify", {}, {"classification": rep}, "0")
    assert _traced_peak(lambda: report.write_report(tmp_path / "r.json", payload)) < 800 * len(rep.params)
