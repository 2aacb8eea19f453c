#!/usr/bin/env python3
"""Run the full diagnostic battery on the two genuine foliation families.

For each family (vertical and plane-normal): grid classification, field
residual, endpoint-map ranks, initial-value rank, the verdicts and endpoint
ranks of the field's transverse charts, and the critical points of the
squared distance from the base point.
"""

import argparse
import math

import numpy as np

import hypfol as hf


def initial_value_rank(chart: hf.FoliationChart, params) -> int:
    """Rank of the map from the unit-energy chart tangents at one sample to
    their values ``J(0)``, from the finite-difference tangents.

    Full rank (2) means the chart reaches every direction orthogonal to the
    leaf at its foot: the surjectivity needed for the leaves to sweep out an
    open region.
    """
    tangents = hf.chart_tangent(chart, params)
    energies = [math.sqrt(hf.mink_inner(x.j0.w, x.j0.w) + hf.mink_inner(x.j0p.w, x.j0p.w)) for x in tangents]
    return hf.svd_rank(np.column_stack([x.j0.w / e for x, e in zip(tangents, energies)]))


def diagnose(name: str, field: hf.UnitField, chart: hf.FoliationChart, grid):
    print(f"== {name}")
    rep = hf.classify_chart(chart, grid=grid)
    print(f"  aggregate verdict: {rep.aggregate}")
    residual, code, field_f, field_b = hf.field_checks(field, hf.ball_samples(hf.ORIGIN, 0.8, 8, seed=0))
    print(f"  geodesic-field residual: {residual:.2e}")
    a, b = hf.grid_arrays(chart, (6, 6))
    ranks_f, ranks_b = (sorted(set(r.tolist())) for r in hf.chart_jets(chart, a, b).endpoint_ranks())
    print(f"  endpoint-map ranks: forward {ranks_f}, backward {ranks_b}")
    print(f"  initial-value ranks: {sorted({initial_value_rank(chart, params) for params in zip(a, b)})}")
    verdicts = sorted({hf.VERDICTS[c] for c in code})
    field_f, field_b = (sorted(set(r.tolist())) for r in (field_f, field_b))
    print(f"  field verdicts: {verdicts}, endpoint ranks: forward {field_f}, backward {field_b}")
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
