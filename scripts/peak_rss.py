#!/usr/bin/env python3
"""Peak RSS of hypfol commands above the level after ``import hypfol.cli``.

    python3 scripts/peak_rss.py --grid 300x300 --grid 1000x1000 \\
        "scan-lambda" "gauss --family prop --lambda 0.07"

Each command runs at each grid in a fresh interpreter on the package under
``src/`` of this checkout, writing its files into a temporary directory.
The interpreter reads its peak resident set size (``ru_maxrss``) after
``import hypfol.cli`` and again after the command, and one line per run
gives the difference in MB (2^20 bytes).  Without commands, the three grid
commands of the README's memory paragraph run; without ``--grid``, both
grids above.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("scan-lambda", "gauss --family prop --lambda 0.07", "classify --family prop --lambda 0.07")
GRIDS = ("300x300", "1000x1000")

#: the program of one run: its arguments are a hypfol command line, and its
#: last line is the command's exit code and the rise of the peak RSS in KiB
CHILD = """
import resource, sys
import hypfol.cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = hypfol.cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def peak_mb(command: str, grid: str) -> float:
    """Peak RSS in MB above ``import hypfol.cli`` of one command at one grid."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*shlex.split(command), "--grid", grid, "--out", str(Path(tmp) / "out")]
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=False,
        )
    words = proc.stdout.split()
    if proc.returncode or words[-2:-1] != ["0"]:
        sys.exit(f"error: {command} --grid {grid} failed:\n{proc.stderr}")
    return int(words[-1]) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("commands", nargs="*", metavar="COMMAND", help="a hypfol command line without --grid and --out")
    ap.add_argument("--grid", action="append", help="sample grid, NxM (repeatable)")
    args = ap.parse_args()
    for command in args.commands or COMMANDS:
        for grid in args.grid or GRIDS:
            print(f"{command} --grid {grid}: {peak_mb(command, grid):.2f} MB", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
