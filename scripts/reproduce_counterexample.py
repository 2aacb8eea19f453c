#!/usr/bin/env python3
"""Reproduce the spiral-family phenomenon end to end.

The script scans for the largest pitch with positive definiteness margin
on the annulus rectangle, classifies the chart at half and double that
pitch, and exhibits the self-intersection of the family at half that
pitch: the minima of the squared distance from a seed point, the polar
point of radius 2, whose value is at most ``WITNESS_BOUND`` are leaves
through it, and two of them meet there at a nonzero angle.  The chart is
definite (cross metric Riemannian, all endpoint-map kernels trivial) yet
its geodesics cross: definiteness alone does not make a foliation,
closedness fails here.  Errors exit through the CLI's ``guarded``, with its
codes and messages.
"""

import argparse
import math

import numpy as np

import hypfol as hf
from hypfol.cli import _parse_grid, _require_finite, guarded
from hypfol.lorentz import mink
from hypfol.report import write_report

#: the largest squared distance from the seed of a minimum that counts as a
#: leaf through it (the Gauss-Newton solver reaches about 1e-30 or 0 there)
WITNESS_BOUND = 1e-24


def crossing_angle(chart: hf.FoliationChart, q: np.ndarray, first: hf.CriticalPoint, second: hf.CriticalPoint) -> float:
    """The angle between two leaves at their points nearest ``q``: with ``a
    = -<foot, q>`` and ``b = <dir, q>`` a leaf's unit velocity there is
    ``(b foot + a dir) / sqrt(a^2 - b^2)``."""
    foot, direction = chart.arrays(np.array([first.a, second.a]), np.array([first.b, second.b]))
    a, b = -mink(foot, q), mink(direction, q)
    x = (b[:, None] * foot + a[:, None] * direction) / np.sqrt(a * a - b * b)[:, None]
    return float(np.arccos(np.clip(mink(x[0], x[1]), -1.0, 1.0)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha0", type=float, default=hf.SpiralParams.alpha0)
    ap.add_argument("--delta", type=float, default=hf.SpiralParams.delta)
    ap.add_argument("--classify-grid", type=str, default="20x20")
    ap.add_argument("--out", type=str, default=None, help="optional JSON dump")
    args = ap.parse_args()
    return guarded(lambda: run(args), args.classify_grid)


def run(args: argparse.Namespace) -> int:
    _require_finite((("--alpha0", args.alpha0), ("--delta", args.delta)))
    cg = _parse_grid(args.classify_grid)

    scan = hf.scan_lambda_max(alpha0=args.alpha0, delta=args.delta)
    print(f"largest valid pitch on the rectangle: {scan.lambda_max:.6f}")

    results = {"lambda_max": scan.lambda_max}
    for label, factor in (("half", 0.5), ("double", 2.0)):
        params = hf.SpiralParams(
            alpha0=args.alpha0, lam=factor * scan.lambda_max, delta=args.delta
        )
        chart = hf.spiral_chart(params)
        rep = hf.classify_chart(chart, grid=cg)
        # code -1 (rank-deficient) counts as "degenerate"; keys in order of first occurrence
        codes = rep.verdict_code + 1
        n = np.bincount(codes, minlength=len(hf.VERDICTS) + 1).tolist()
        names = ("degenerate", *hf.VERDICTS)
        counts = {names[c]: n[c] for c in dict.fromkeys(codes.tolist())}
        print(f"pitch x{factor}: aggregate {rep.aggregate}, verdict counts {counts}")
        results[f"classification_{label}"] = {"aggregate": rep.aggregate, "counts": counts}

    params = hf.SpiralParams(
        alpha0=args.alpha0, lam=0.5 * scan.lambda_max, delta=args.delta
    )
    chart = hf.spiral_chart(params)
    seed = np.array([math.cosh(2.0), math.sinh(2.0), 0.0, 0.0])
    minima, _ = hf.critical_point_scan(chart, base=seed, grid=(25, 25))
    print("minima of the squared distance from the seed point:")
    for m in minima:
        print(f"  (r, t) = ({m.a:.6f}, {m.b:.6f})  value {m.value:.3e}")
    results["minima"] = [m.to_dict() for m in minima]

    witnesses = [m for m in minima if m.value <= WITNESS_BOUND]
    angle = crossing_angle(chart, seed, *witnesses[:2]) if len(witnesses) >= 2 else float("nan")
    print(f"leaves through the seed point: {len(witnesses)}, the first two at an angle of {angle:.6f} rad")
    results["leaves_through_seed"] = {"count": len(witnesses), "angle": angle}

    if args.out:
        write_report(args.out, results)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
