#!/usr/bin/env python3
"""Run the full diagnostic battery on the two genuine foliation families.

For each family (vertical and plane-normal): grid classification, field
residual, endpoint-map ranks, initial-value rank, eigenvector degeneracy,
and the critical points of the squared distance from the base point.
"""

import argparse

import hypfol as hf


def diagnose(name: str, field: hf.UnitField, chart: hf.FoliationChart, grid):
    print(f"== {name}")
    rep = hf.classify_chart(chart, grid=grid)
    print(f"  aggregate verdict: {rep.aggregate}")
    residual, checks = hf.field_checks(field, hf.ball_samples(hf.ORIGIN, 0.8, 8, seed=0))
    print(f"  geodesic-field residual: {residual:.2e}")
    jets = hf.chart_jets(chart, *hf.grid_arrays(chart, (6, 6)))
    ranks_f, ranks_b = (sorted(set(r.tolist())) for r in jets.endpoint_ranks())
    print(f"  endpoint-map ranks: forward {ranks_f}, backward {ranks_b}")
    print(f"  initial-value ranks: {sorted(set(jets.initial_value_ranks().tolist()))}")
    print(f"  eigenvector degeneracy: {checks[0].degenerate} (eigenvalue {checks[0].eigenvalue})")
    minima, _ = hf.critical_point_scan(chart, grid=(15, 15))
    print(f"  squared-distance minima: {[(round(m.a, 4), round(m.b, 4), m.value) for m in minima]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=str, default="15x15")
    args = ap.parse_args()
    grid = tuple(int(x) for x in args.grid.split("x"))

    field, chart = hf.vertical_family()
    diagnose("vertical (horosphere-orthogonal) family", field, chart, grid)
    field, chart = hf.plane_normal_family()
    diagnose("plane-normal family", field, chart, grid)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
