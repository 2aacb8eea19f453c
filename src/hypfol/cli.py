"""Command line front end.

Subcommands: ``classify`` (grid classification of a family chart),
``scan-lambda`` (largest spiral pitch with positive margin on the parameter
rectangle, plus a margin CSV on the grid), ``gauss`` (endpoint images and
the ranks of their differentials ``J +- J'``), ``critical`` (local minima
of the squared distance).  Angles are radians.  A command computes its
results (``gauss`` and ``scan-lambda`` stream their CSV as they go) and
``main`` writes ``<out>.json`` last, then prints the summary line, so a
failed run leaves no JSON.  Exit codes, from ``guarded``, which the
experiment scripts share: 0 computed (whatever the verdict), 2 invalid
configuration (including an unwritable ``--out``, an ``--out`` that names
no file base and a grid too large to allocate), 3 numerical failure
(including a chart leaf or tangent that fails validation).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, GeometryError, NumericalError
from .families import (
    SpiralParams,
    definiteness_margin,
    plane_normal_family,
    scan_lambda_max,
    spiral_chart,
    vertical_family,
)
from .foliation import (
    VERDICT_TOL,
    VERDICTS,
    ball_samples,
    chart_jets,
    classify_chart,
    critical_point_scan,
    field_checks,
    grid_axes,
    grid_params,
)
from .geodesics import endpoint_images
from .lorentz import ORIGIN, _require, mink_inner, model_checks
from .report import report_payload, write_csv, write_report

FAMILIES = ("vertical", "plane-normal", "prop")
#: the flags only the spiral (``prop``) family reads, with their defaults
_SPIRAL_FLAGS = (("--lambda", "lam", None), ("--alpha0", "alpha0", SpiralParams.alpha0), ("--delta", "delta", SpiralParams.delta))
#: the most grid samples: no array holds 1024 bytes per sample (the largest
#: whole-grid arrays are the classification report's columns, ``k_values``
#: (N, 8) floats or 64 bytes; the kernel's forms, 96 bytes per sample, its
#: stacked jets of both endpoints, 192, and the classifier's null
#: directions, 128, are formed one block of rows at a time), so numpy can size
#: every array of a smaller grid, and at worst fails to allocate it
_MAX_SAMPLES = sys.maxsize // 1024


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; serialized into every report."""

    command: str
    family: str | None
    alpha0: float
    delta: float
    lam: float | None
    grid: tuple[int, int]
    tol: float
    base_point: tuple[float, float, float, float] | None
    seed: int


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid must look like NxM, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"grid must look like NxM, got {text!r}") from None
    if n < 2 or m < 2:
        raise ConfigError("grid dimensions must be at least 2")
    if n * m > _MAX_SAMPLES:
        raise ConfigError(f"grid {n}x{m} has more samples than an array can hold")
    return n, m


def _require_finite(values) -> None:
    """Raise ``ConfigError`` naming the first ``(flag, value)`` pair whose value is given but not finite."""
    for flag, value in values:
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = [("--tol", args.tol), ("--lambda", args.lam), ("--alpha0", args.alpha0), ("--delta", args.delta)]
    _require_finite(values + [("--base-point", x) for x in args.base_point or ()])
    if args.tol <= 0.0:
        raise ConfigError("--tol must be positive")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if args.family not in (None, "prop"):
        given = [flag for flag, dest, _ in _SPIRAL_FLAGS if getattr(args, dest) is not None]
        if given:
            raise ConfigError(f"--family {args.family} does not take {', '.join(given)} (only prop does)")
    if args.family == "prop" and args.seed is not None:
        raise ConfigError("--family prop does not take --seed (only vertical and plane-normal do)")
    spiral = {dest: default if getattr(args, dest) is None else getattr(args, dest) for _, dest, default in _SPIRAL_FLAGS}
    return RunConfig(
        command=args.command,
        family=args.family,
        grid=_parse_grid(args.grid),
        tol=args.tol,
        base_point=None if args.base_point is None else tuple(args.base_point),
        seed=0 if args.seed is None else args.seed,
        **spiral,
    )


def _resolve_family(cfg: RunConfig):
    """(chart, field-or-None) for the configured family; every command that
    reads one has ``--family`` required and limited to ``FAMILIES``."""
    if cfg.family == "prop":
        if cfg.lam is None:
            raise ConfigError("--lambda is required for the prop family")
        return spiral_chart(SpiralParams(alpha0=cfg.alpha0, lam=cfg.lam, delta=cfg.delta)), None
    field, chart = {"vertical": vertical_family, "plane-normal": plane_normal_family}[cfg.family]()
    return chart, field


def _base_point(cfg: RunConfig) -> np.ndarray:
    """The ``--base-point`` as a checked ``(4,)`` point of the hyperboloid, ``ORIGIN.v`` if none is given."""
    if cfg.base_point is None:
        return ORIGIN.v
    arr = np.asarray(cfg.base_point, dtype=float)
    # scaled down by a power of two so that no square overflows; the scaling
    # is exact, so the check and the normalization are those of the raw point.
    # The check allows 1e-6 plus the pairing's roundoff, 4 eps |x|^2; only a
    # point within 1e-6 is normalized (dividing by roundoff would move it).
    k = max(0, math.frexp(float(np.max(np.abs(arr))))[1])
    u, unit = np.ldexp(arr, -k), math.ldexp(1.0, -2 * k)
    uu = mink_inner(u, u)
    near = abs(uu + unit) <= 1e-6 * unit
    if abs(uu + unit) > 1e-6 * unit + 4.0 * sys.float_info.epsilon * float(np.dot(u, u)):
        raise ConfigError("--base-point must satisfy -x0^2 + x1^2 + x2^2 + x3^2 = -1")
    if arr[0] <= 0.0:
        raise ConfigError("--base-point must have x0 > 0")
    if uu >= 0.0:
        raise GeometryError("vector is not timelike")
    v = u / math.sqrt(-uu) if near else arr
    _require(model_checks(v))
    return v


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(cfg: RunConfig, out_base: str) -> tuple[dict, str]:
    chart, field = _resolve_family(cfg)
    rep = classify_chart(chart, grid=cfg.grid, tol=cfg.tol)
    results = {"classification": rep}
    if field is not None:
        residual, code, _, _ = field_checks(field, ball_samples(0.8, 5, seed=cfg.seed))
        results["field_residual"] = residual
        results["eigencheck_degenerate"] = (code != VERDICTS.index("definite")).tolist()
    return results, f"aggregate: {rep.aggregate}"


def cmd_scan_lambda(cfg: RunConfig, out_base: str) -> tuple[dict, str]:
    scan = scan_lambda_max(alpha0=cfg.alpha0, delta=cfg.delta)
    params = SpiralParams(alpha0=cfg.alpha0, lam=scan.lambda_max, delta=cfg.delta)
    axes = grid_axes(spiral_chart(params), cfg.grid)
    write_csv(
        out_base + ".csv", ["r", "t", "h_value"], axes, lambda s: [definiteness_margin(*grid_params(axes, s), params)]
    )
    return {"scan": {**asdict(scan), "grid": cfg.grid}}, f"lambda_max: {scan.lambda_max!r}"


def cmd_gauss(cfg: RunConfig, out_base: str) -> tuple[dict, str]:
    chart, _ = _resolve_family(cfg)
    axes = grid_axes(chart, cfg.grid)
    counts = np.zeros((2, 3), dtype=int)  # per side, the samples of rank 0, 1 and 2

    def columns(s: slice) -> list[np.ndarray]:
        jets = chart_jets(chart, *grid_params(axes, s))
        out = []
        for side, (sign, rank) in enumerate(zip((1, -1), jets.endpoint_ranks(atol=cfg.tol))):
            counts[side] += np.bincount(rank, minlength=3)
            out += [*endpoint_images(jets.foot, jets.dir, sign).T, rank]
        return out

    header = [
        "a",
        "b",
        "fwd_x",
        "fwd_y",
        "fwd_z",
        "fwd_rank",
        "bwd_x",
        "bwd_y",
        "bwd_z",
        "bwd_rank",
    ]
    write_csv(out_base + ".csv", header, axes, columns)
    results = {
        f"{side}_rank_counts": {str(k): n for k, n in enumerate(c) if n}
        for side, c in zip(("forward", "backward"), counts.tolist())
    }
    return results, f"rows: {cfg.grid[0] * cfg.grid[1]}"


def cmd_critical(cfg: RunConfig, out_base: str) -> tuple[dict, str]:
    chart, _ = _resolve_family(cfg)
    minima, rings = critical_point_scan(chart, base=_base_point(cfg), grid=cfg.grid)
    results = {
        "minima": [m.to_dict() for m in minima],
        "count": len(minima),
        "ring_min_values": rings,
    }
    return results, f"minima: {len(minima)}"


# ---------------------------------------------------------------------------
# parser and entry point

#: per command: help text and the options it reads besides --alpha0, --delta, --grid and --out
_COMMAND_OPTIONS = {
    "classify": ("classify a family chart on a grid", ("--family", "--lambda", "--tol", "--seed")),
    "scan-lambda": ("largest spiral pitch with positive margin", ()),
    "gauss": ("endpoint images and Jacobian ranks", ("--family", "--lambda", "--tol")),
    "critical": ("local minima of the squared distance", ("--family", "--lambda", "--base-point")),
}
_OPTIONS = {
    "--family": dict(choices=FAMILIES, required=True, default=None),
    "--alpha0": dict(type=float, default=None, help="tilt angle, radians (default pi/4)"),
    "--delta": dict(type=float, default=None, help=f"angular overhang of the annulus rectangle (default {SpiralParams.delta})"),
    "--lambda": dict(dest="lam", type=float, default=None, help="spiral pitch"),
    "--grid": dict(type=str, default="20x20", help="sample grid, NxM"),
    "--tol": dict(
        type=float,
        default=VERDICT_TOL,
        help="classify: verdict tolerance on the normalized forms; "
        "gauss: absolute singular-value floor of the endpoint ranks (default %(default)s)",
    ),
    "--base-point": dict(dest="base_point", type=float, nargs=4, default=None, metavar=("X0", "X1", "X2", "X3")),
    "--out": dict(type=str, default=None, help="output path base; writes <out>.json and, where applicable, <out>.csv"),
    "--seed": dict(type=int, default=None, help="seed of the field sample points of vertical and plane-normal (default 0)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first command line and kept for the
    process.  Each command's parser takes its options and the defaults of the
    rest (reports carry all).  Parsing leaves the tree as built, since the
    values go into a fresh namespace, and argparse reads the terminal width
    and ``sys.stderr`` when it formats usage and errors, not when it builds."""
    parser = argparse.ArgumentParser(
        prog="hypfol",
        description="Classify geodesic families of hyperbolic 3-space and "
        "reproduce the spiral counterexample scans.",
    )
    parser.add_argument("--version", action="version", version=f"hypfol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMAND_OPTIONS.items():
        command_parser = sub.add_parser(command, help=text)
        for flag, kw in _OPTIONS.items():
            if flag in ("--alpha0", "--delta", "--grid", "--out") + flags:
                command_parser.add_argument(flag, **kw)
            else:
                command_parser.set_defaults(**{kw.get("dest", flag[2:]): kw["default"]})
    sub.choices["scan-lambda"].set_defaults(grid="200x200")
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "scan-lambda": cmd_scan_lambda,
    "gauss": cmd_gauss,
    "critical": cmd_critical,
}


def guarded(run, grid: str) -> int:
    """``run()``, with the program's errors as exit codes and one stderr line:
    2 for an invalid configuration or geometry, an output that cannot be
    written and a ``grid`` too large to allocate, 3 for a numerical failure."""
    try:
        return run()
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: not enough memory for a {grid} grid", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def run() -> int:
        cfg = _build_config(args)
        if args.out is not None and os.path.basename(args.out) in ("", ".", ".."):
            raise ConfigError(f"--out must name a file base, got {args.out!r}")
        out_base = args.out if args.out is not None else f"hypfol_{cfg.command.replace('-', '_')}"
        results, summary = _COMMANDS[cfg.command](cfg, out_base)
        write_report(out_base + ".json", report_payload(cfg.command, asdict(cfg), results, __version__))
        print(summary)
        return 0

    return guarded(run, args.grid)


if __name__ == "__main__":
    sys.exit(main())
