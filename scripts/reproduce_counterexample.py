#!/usr/bin/env python3
"""Reproduce the spiral-family phenomenon end to end.

The script scans for the largest pitch with positive definiteness margin
on the annulus rectangle, classifies the chart at half and double that
pitch, exhibits the self-intersection of the family (two leaves through
the same seed point), and shows the two zero minima of the squared
distance from that seed point.  The chart is definite (cross metric
Riemannian, all endpoint-map kernels trivial) yet its geodesics cross:
definiteness alone does not make a foliation, closedness fails here.
"""

import argparse
import json
import math

import numpy as np

import hypfol as hf


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha0", type=float, default=math.pi / 4.0)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--scan-grid", type=str, default="200x200")
    ap.add_argument("--classify-grid", type=str, default="20x20")
    ap.add_argument("--out", type=str, default=None, help="optional JSON dump")
    args = ap.parse_args()

    sg = tuple(int(x) for x in args.scan_grid.split("x"))
    cg = tuple(int(x) for x in args.classify_grid.split("x"))

    scan = hf.scan_lambda_max(alpha0=args.alpha0, delta=args.delta, grid=sg)
    print(f"largest valid pitch on {sg[0]}x{sg[1]} grid: {scan.lambda_max:.6f}")

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
    seed = hf.polar_frame(2.0, 0.0).point
    res = hf.geodesics_intersect(chart.map(2.0, 0.0), chart.map(2.0, 2.0 * math.pi))
    gap = hf.dist(res.point, seed) if res.point is not None else float("nan")
    print(f"leaves at t=0 and t=2*pi: {res.kind}, distance to seed point {gap:.2e}")
    results["intersection"] = {"kind": res.kind, "distance_to_seed": gap}

    minima, _ = hf.critical_point_scan(chart, base=seed, grid=(25, 25))
    print("minima of the squared distance from the seed point:")
    for m in minima:
        print(f"  (r, t) = ({m.a:.6f}, {m.b:.6f})  value {m.value:.3e}")
    results["minima"] = [m.to_dict() for m in minima]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
