"""Report and CSV emission with a byte-stable format.

Reports are single JSON documents with sorted keys, two-space indentation
and a trailing newline; floats go through Python's shortest round-trip
repr, and numpy scalars and arrays are encoded as the Python values of
their ``tolist()``.  A ``ClassificationReport`` in the payload becomes its
header fields and a ``"samples"`` array, one object per sample; that array
is formatted from the report's columns through one text template per shape
of sample (0, 1, 2 or 8 Killing values, or rank-deficient with a null Gram
matrix and a note) and verdict: the layout ``json.dumps`` gives the same
objects, with a hole for each float's repr, so the bytes are those of the
object form.  The cells the samples use are checked first, and a
non-finite one raises ``NumericalError`` before the file is opened; then the
samples are formatted and written into the open file.  Both passes go one
block of ``foliation.row_blocks`` at a time, so an error after the check
(such as ``MemoryError``) leaves a truncated file.  Grid CSVs are UTF-8 with a
header row, "." decimal separator and "\n" line endings, one row per grid
point in row-major grid order: the two axis values, then one value per
column; the writer asks for the columns one block of ``row_blocks`` at a
time and writes them one grid row at a time, each as one ``"".join`` of its
cells and separators.  Identical inputs produce identical bytes.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .foliation import FD_STEP, RANK_DEFICIENT, VERDICTS, ClassificationReport, row_blocks

SCHEMA_VERSION = 1


def report_payload(command: str, config: dict, results: dict, version: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "hypfol",
        "tool_version": version,
        "command": command,
        "config": config,
        "results": results,
    }


def _encode(obj):
    """``json.dumps`` fallback for the values it does not know: numpy scalars and arrays."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _hole(k: int) -> str:
    """The string that stands for the ``k``-th samples array until it is spliced in."""
    return f"\0samples {k}\0"


@functools.cache
def _sample_template(count: int, code: int, pad: str) -> str:
    """The ``json.dumps`` layout of one sample with ``count`` Killing values
    and verdict ``VERDICTS[code]`` (rank-deficient for ``code < 0``),
    indented by ``pad``, with a ``%s`` hole for each float's repr: the Gram
    entries in row-major order, the Killing values, the parameters.

    Kept for the process: the text is a function of the arguments alone and
    an immutable string, and only a few keys occur (four Killing counts, four
    verdicts or rank-deficient, and the indent of the samples key)."""
    x = 0.5  # stands for every float; no key or string of a sample contains its repr
    if code < 0:
        sample = {"gram": None, "k_values": [], "note": RANK_DEFICIENT, "params": [x, x], "verdict": None}
    else:
        sample = {"gram": [[x, x], [x, x]], "k_values": [x] * count, "note": None, "params": [x, x], "verdict": VERDICTS[code]}
    text = json.dumps(sample, indent=2, sort_keys=True).replace(repr(x), "%s")
    return pad + text.replace("\n", "\n" + pad)


def _cells(rep: ClassificationReport, s: slice) -> tuple[np.ndarray, np.ndarray]:
    """The float cells of the samples ``s`` of a report, their rows of
    ``[gram (4), k_values (8), params (2)]``, and which of them the samples
    use: the Gram matrix unless the sample is rank-deficient, the first
    ``k_count`` Killing values, the parameters."""
    values = np.concatenate((rep.gram[s].reshape(-1, 4), rep.k_values[s], rep.params[s]), axis=1)
    used = np.ones(values.shape, dtype=bool)
    used[:, :4] = ~rep.rank_deficient[s, None]
    used[:, 4:12] = np.arange(8) < rep.k_count[s, None]
    return values, used


def _check_finite(rep: ClassificationReport) -> None:
    """Raise ``NumericalError`` naming the first sample of a report that uses
    a non-finite cell (``_cells``)."""
    for s in row_blocks(len(rep.params)):
        values, used = _cells(rep, s)
        bad = (used & ~np.isfinite(values)).any(axis=1)
        if bad.any():
            k = s.start + int(np.argmax(bad))
            raise NumericalError(f"non-finite value in the report sample at {tuple(rep.params[k].tolist())}")


def _samples_text(rep: ClassificationReport, s: slice, pad: str) -> str:
    """The samples ``s`` of a report, from their ``_cells``, as the items of
    a ``"samples"`` array whose key sits at indent ``pad``.  Each distinct bit
    pattern of the used cells is formatted once (by bits, not by value, so
    ``-0.0`` and ``0.0`` keep their own reprs)."""
    values, used = _cells(rep, s)
    shapes = list(zip(rep.k_count[s].tolist(), rep.verdict_code[s].tolist()))
    templates = {shape: _sample_template(*shape, pad + "  ") for shape in set(shapes)}
    # distinct patterns in order of first use: np.unique would sort, and
    # paging in numpy's sort code adds about 0.4 MB to the peak RSS
    bits = values[used].view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    reprs = dict(zip(distinct, map(repr, np.array(distinct, dtype=np.int64).view(np.float64).tolist())))
    return ",\n".join(map(templates.__getitem__, shapes)) % tuple(map(reprs.__getitem__, bits))


def _write_samples(fh, rep: ClassificationReport, pad: str) -> None:
    """Write the ``"samples"`` array of a report whose key sits at indent
    ``pad``, one block of ``row_blocks`` at a time."""
    if len(rep.params) == 0:
        fh.write("[]")
        return
    for j, s in enumerate(row_blocks(len(rep.params))):
        fh.write((",\n" if j else "[\n") + _samples_text(rep, s, pad))
    fh.write(f"\n{pad}]")


def write_report(path: str | Path, payload: dict) -> None:
    reports = []

    def encode(obj):
        if isinstance(obj, ClassificationReport):
            _check_finite(obj)
            reports.append(obj)
            return {
                "chart": obj.chart_name,
                "grid": list(obj.grid),
                "tol": obj.tol,
                "fd_step": FD_STEP,
                "aggregate": obj.aggregate,
                "samples": _hole(len(reports) - 1),
            }
        return _encode(obj)

    rest = json.dumps(payload, indent=2, sort_keys=True, default=encode) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for k, rep in enumerate(reports):
            head, rest = rest.split(json.dumps(_hole(k)), 1)
            line = head[head.rfind("\n") + 1 :]
            fh.write(head)
            _write_samples(fh, rep, line[: len(line) - len(line.lstrip(" "))])
        fh.write(rest)


def write_csv(path: str | Path, header: list[str], axes, columns) -> None:
    """Write the grid CSV of two axes (``n`` and ``m`` values) and the value
    columns that ``columns(s)`` gives for each slice ``s`` of
    ``row_blocks(n*m)``: one flat array per column holding the values of the
    grid points ``s`` in row-major grid order.

    A cell is the ``repr`` of the Python value ``tolist()`` gives: the
    shortest round-trip repr of a float, the digits of an integer.  The first
    block is asked for before the file is opened, so an error in it leaves no
    file, and an error in a later one leaves a truncated file.  A block is
    written one grid row (or the part of one it holds) at a time, from one
    ``tolist()`` per column and row, as one ``"".join`` of a parts list that
    holds, for each grid point, its cells each followed by a separator (","
    and, after the last, "\n"); the list is reused while the number of points
    per write stays the same, so only its cells are assigned, by slice.  No
    more than a block of values and a row of cells is held.
    """
    a_cells, b_cells = ([repr(x) for x in np.asarray(axis).tolist()] for axis in axes)
    m = len(b_cells)
    blocks = ((s, columns(s)) for s in row_blocks(len(a_cells) * m))
    first = next(blocks)
    width = 2 * (2 + len(first[1]))  # parts per grid point: its cells and their separators
    parts = []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s, values in chain([first], blocks):
            # each grid row the block meets, from its first sample ``start``
            for start in range(s.start - s.start % m, s.stop, m):
                lo, hi = max(start, s.start), min(start + m, s.stop)
                if len(parts) != width * (hi - lo):
                    parts = [","] * (width * (hi - lo))
                    parts[width - 1 :: width] = repeat("\n", hi - lo)
                parts[0::width] = repeat(a_cells[start // m], hi - lo)
                parts[2::width] = b_cells[lo - start : hi - start]
                for j, v in enumerate(values, 2):
                    parts[2 * j :: width] = map(repr, v[lo - s.start : hi - s.start].tolist())
                fh.write("".join(parts))
