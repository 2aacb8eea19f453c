"""Command line front end.

Subcommands: ``classify`` (grid classification of a family chart),
``scan-lambda`` (largest spiral pitch with positive margin, plus a margin
CSV), ``gauss`` (endpoint images and the ranks of their differentials
``J +- J'``), ``critical`` (local minima of the squared distance).  Angles
are radians.  Exit codes: 0 computed (whatever the verdict), 2 invalid
configuration (including an unwritable ``--out``), 3 numerical failure
(including a chart leaf or tangent that fails validation).
"""

from __future__ import annotations

import argparse
import math
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
    ball_samples,
    chart_jets,
    check_geodesic_field,
    classify_chart,
    critical_point_scan,
    grid_arrays,
    nondegeneracy_eigencheck,
)
from .geodesics import endpoint_images
from .lorentz import HPoint, mink_inner, project_to_hyperboloid
from .report import report_payload, write_csv, write_report

FAMILIES = ("vertical", "plane-normal", "prop")
#: the flags only the spiral (``prop``) family reads, with their defaults
_SPIRAL_FLAGS = (("--lambda", "lam", None), ("--alpha0", "alpha0", math.pi / 4.0), ("--delta", "delta", 0.1))


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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = list(self.grid)
        if self.base_point is not None:
            d["base_point"] = list(self.base_point)
        return d


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
    return n, m


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = [("--tol", args.tol), ("--lambda", args.lam), ("--alpha0", args.alpha0), ("--delta", args.delta)]
    values += [("--base-point", x) for x in args.base_point or ()]
    for flag, value in values:
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    if args.tol <= 0.0:
        raise ConfigError("--tol must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if args.family is not None and args.family not in FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}")
    if args.family not in (None, "prop"):
        given = [flag for flag, dest, _ in _SPIRAL_FLAGS if getattr(args, dest) is not None]
        if given:
            raise ConfigError(f"--family {args.family} does not take {', '.join(given)} (only prop does)")
    spiral = {dest: default if getattr(args, dest) is None else getattr(args, dest) for _, dest, default in _SPIRAL_FLAGS}
    return RunConfig(
        command=args.command,
        family=args.family,
        grid=_parse_grid(args.grid),
        tol=args.tol,
        base_point=None if args.base_point is None else tuple(args.base_point),
        seed=args.seed,
        **spiral,
    )


def _resolve_family(cfg: RunConfig):
    """(chart, field-or-None) for the configured family."""
    if cfg.family == "vertical":
        field, chart = vertical_family()
        return chart, field
    if cfg.family == "plane-normal":
        field, chart = plane_normal_family()
        return chart, field
    if cfg.family == "prop":
        if cfg.lam is None:
            raise ConfigError("--lambda is required for the prop family")
        params = SpiralParams(alpha0=cfg.alpha0, lam=cfg.lam, delta=cfg.delta)
        return spiral_chart(params), None
    raise ConfigError("--family is required")


def _base_point(cfg: RunConfig) -> HPoint:
    if cfg.base_point is None:
        return HPoint((1.0, 0.0, 0.0, 0.0))
    arr = np.asarray(cfg.base_point, dtype=float)
    # scaled down by a power of two so that no square overflows; the scaling
    # is exact, so the check and the projection are those of the raw point
    k = max(0, math.frexp(float(np.max(np.abs(arr))))[1])
    u, unit = np.ldexp(arr, -k), math.ldexp(1.0, -2 * k)
    if abs(mink_inner(u, u) + unit) > 1e-6 * max(unit, float(np.dot(u, u))):
        raise ConfigError("--base-point must satisfy -x0^2 + x1^2 + x2^2 + x3^2 = -1")
    if arr[0] <= 0.0:
        raise ConfigError("--base-point must have x0 > 0")
    return project_to_hyperboloid(u)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(cfg: RunConfig, out_base: str) -> int:
    chart, field = _resolve_family(cfg)
    rep = classify_chart(chart, grid=cfg.grid, tol=cfg.tol)
    results = {"classification": rep.to_dict()}
    if field is not None:
        samples = ball_samples(field.center, 0.8, 5, seed=cfg.seed)
        results["field_residual"] = check_geodesic_field(field, samples)
        checks = [nondegeneracy_eigencheck(field, p) for p in samples]
        results["eigencheck_degenerate"] = [bool(c.degenerate) for c in checks]
    payload = report_payload("classify", cfg.to_dict(), results, __version__)
    write_report(out_base + ".json", payload)
    print(f"aggregate: {rep.aggregate}")
    return 0


def cmd_scan_lambda(cfg: RunConfig, out_base: str) -> int:
    scan = scan_lambda_max(alpha0=cfg.alpha0, delta=cfg.delta, grid=cfg.grid)
    payload = report_payload("scan-lambda", cfg.to_dict(), {"scan": scan.to_dict()}, __version__)
    write_report(out_base + ".json", payload)
    params = SpiralParams(alpha0=cfg.alpha0, lam=scan.lambda_max, delta=cfg.delta)
    r, t = grid_arrays(spiral_chart(params), cfg.grid)
    rows = np.column_stack((r, t, definiteness_margin(r, t, params))).tolist()
    write_csv(out_base + ".csv", ["r", "t", "h_value"], rows)
    print(f"lambda_max: {scan.lambda_max!r}")
    return 0


def cmd_gauss(cfg: RunConfig, out_base: str) -> int:
    chart, _ = _resolve_family(cfg)
    jets = chart_jets(chart, *grid_arrays(chart, cfg.grid))
    ranks = jets.endpoint_ranks(atol=cfg.tol)
    images = [endpoint_images(jets.foot, jets.dir, sign).tolist() for sign in (1, -1)]
    rows = [
        [a, b, *fwd, fwd_rank, *bwd, bwd_rank]
        for (a, b), fwd, fwd_rank, bwd, bwd_rank in zip(
            jets.params.tolist(), images[0], ranks[0].tolist(), images[1], ranks[1].tolist()
        )
    ]
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
    write_csv(out_base + ".csv", header, rows)
    results = {
        f"{side}_rank_counts": {str(k): int(n) for k, n in zip(*np.unique(r, return_counts=True))}
        for side, r in zip(("forward", "backward"), ranks)
    }
    payload = report_payload("gauss", cfg.to_dict(), results, __version__)
    write_report(out_base + ".json", payload)
    print(f"rows: {len(rows)}")
    return 0


def cmd_critical(cfg: RunConfig, out_base: str) -> int:
    chart, _ = _resolve_family(cfg)
    base = _base_point(cfg)
    minima, rings = critical_point_scan(chart, base=base, grid=cfg.grid)
    results = {
        "minima": [m.to_dict() for m in minima],
        "count": len(minima),
        "ring_min_values": rings,
    }
    payload = report_payload("critical", cfg.to_dict(), results, __version__)
    write_report(out_base + ".json", payload)
    print(f"minima: {len(minima)}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

#: per command: help text and the options it reads besides --alpha0, --delta, --grid and --out
_COMMAND_OPTIONS = {
    "classify": ("classify a family chart on a grid", ("--family", "--lambda", "--tol", "--seed")),
    "scan-lambda": ("largest spiral pitch with positive margin", ()),
    "gauss": ("endpoint images and Jacobian ranks", ("--family", "--lambda", "--tol")),
    "critical": ("local minima of the squared distance", ("--family", "--lambda", "--base-point")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypfol",
        description="Classify geodesic families of hyperbolic 3-space and "
        "reproduce the spiral counterexample scans.",
    )
    parser.add_argument("--version", action="version", version=f"hypfol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--family": dict(choices=FAMILIES, required=True, default=None),
        "--alpha0": dict(type=float, default=None, help="tilt angle, radians (default pi/4)"),
        "--delta": dict(type=float, default=None, help="angular overhang of the annulus rectangle (default 0.1)"),
        "--lambda": dict(dest="lam", type=float, default=None, help="spiral pitch"),
        "--grid": dict(type=str, default="20x20", help="sample grid, NxM"),
        "--tol": dict(type=float, default=VERDICT_TOL),
        "--base-point": dict(dest="base_point", type=float, nargs=4, default=None, metavar=("X0", "X1", "X2", "X3")),
        "--out": dict(type=str, default=None, help="output path base; writes <out>.json and, where applicable, <out>.csv"),
        "--seed": dict(type=int, default=0),
    }
    for command, (text, flags) in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=text)
        for flag, kw in options.items():
            if flag in ("--alpha0", "--delta", "--grid", "--out") + flags:
                p.add_argument(flag, **kw)
            else:  # not taken, but every report carries the full configuration
                p.set_defaults(**{kw.get("dest", flag[2:]): kw["default"]})
    sub.choices["scan-lambda"].set_defaults(grid="200x200")
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "scan-lambda": cmd_scan_lambda,
    "gauss": cmd_gauss,
    "critical": cmd_critical,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        out_base = args.out if args.out is not None else f"hypfol_{cfg.command.replace('-', '_')}"
        return _COMMANDS[cfg.command](cfg, out_base)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
