"""Report and CSV emission with a byte-stable format.

Reports are single JSON documents with sorted keys, two-space indentation
and a trailing newline; floats go through Python's shortest round-trip
repr, and numpy scalars and arrays are encoded as the Python values of
their ``tolist()``.  Grid CSVs are UTF-8 with a header row, "." decimal
separator and "\n" line endings, one row per grid point in row-major grid
order: the two axis values, then one value per column.  Identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

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


def write_report(path: str | Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_encode) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_csv(path: str | Path, header: list[str], axes, columns) -> None:
    """Write the grid CSV of two axes (``n`` and ``m`` values) and value
    columns (``n*m`` values each, in row-major grid order).

    A cell is the ``repr`` of the Python value ``tolist()`` gives: the
    shortest round-trip repr of a float, the digits of an integer.  The
    file is written one grid row at a time.
    """
    a_cells, b_cells = ([repr(x) for x in np.asarray(axis).tolist()] for axis in axes)
    values = [np.ravel(col).tolist() for col in columns]
    m = len(b_cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, a in enumerate(a_cells):
            cells = (map(repr, v[i * m : (i + 1) * m]) for v in values)
            fh.write("\n".join(map(",".join, zip(repeat(a, m), b_cells, *cells))) + "\n")
