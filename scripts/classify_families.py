#!/usr/bin/env python3
"""Run the full diagnostic battery on the two genuine foliation families.

For each family (vertical and plane-normal): grid classification, field
residual, endpoint-map ranks, initial-value rank, the verdicts and endpoint
ranks of the field's transverse charts, and the critical points of the
squared distance from the base point.  Errors exit through the CLI's
``guarded``, with its codes and messages.
"""

import argparse

import numpy as np

import hypfol as hf
from hypfol.cli import _parse_grid, guarded
from hypfol.geodesics import rank_2x2


def initial_value_ranks(jets: hf.ChartJets) -> np.ndarray:
    """Ranks of the maps from the unit-energy chart tangents at each sample
    to their values ``J(0)``, read from the kernel's forms.

    The energy is ``|J|^2 + |J'|^2`` and the Killing metric ``|J|^2 -
    |J'|^2``, so their mean is the Gram matrix ``G`` of ``J(0)``; a 2x2
    matrix with that Gram has ``|det| = sqrt(det G)`` and squared Frobenius
    norm ``trace G``.  Full rank (2) means the chart reaches every direction
    orthogonal to the leaf at its foot: the surjectivity needed for the
    leaves to sweep out an open region.
    """
    g = 0.5 * (jets.energy + jets.killing)
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    return rank_2x2(np.sqrt(np.maximum(det, 0.0)), g[:, 0, 0] + g[:, 1, 1], 1e-6)


def diagnose(name: str, field, chart: hf.FoliationChart, grid):
    print(f"== {name}")
    rep = hf.classify_chart(chart, grid=grid)
    print(f"  aggregate verdict: {rep.aggregate}")
    residual, code, field_f, field_b = hf.field_checks(field, hf.ball_samples(0.8, 8, seed=0))
    print(f"  geodesic-field residual: {residual:.2e}")
    jets = hf.chart_jets(chart, *hf.grid_arrays(chart, (6, 6)))
    ranks_f, ranks_b = (sorted(set(r.tolist())) for r in jets.endpoint_ranks())
    print(f"  endpoint-map ranks: forward {ranks_f}, backward {ranks_b}")
    print(f"  initial-value ranks: {sorted(set(initial_value_ranks(jets).tolist()))}")
    verdicts = sorted({hf.VERDICTS[c] for c in code})
    field_f, field_b = (sorted(set(r.tolist())) for r in (field_f, field_b))
    print(f"  field verdicts: {verdicts}, endpoint ranks: forward {field_f}, backward {field_b}")
    minima, _ = hf.critical_point_scan(chart, grid=(15, 15))
    print(f"  squared-distance minima: {[(round(m.a, 4), round(m.b, 4), m.value) for m in minima]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=str, default="15x15")
    args = ap.parse_args()
    return guarded(lambda: run(_parse_grid(args.grid)), args.grid)


def run(grid: tuple[int, int]) -> int:
    field, chart = hf.vertical_family()
    diagnose("vertical (horosphere-orthogonal) family", field, chart, grid)
    field, chart = hf.plane_normal_family()
    diagnose("plane-normal family", field, chart, grid)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
