"""Layer spans recorded from outside the program, and the per-layer metrics.

``Tracer.installed`` wraps each layer's entry points for the duration of
a ``with`` block and restores the originals afterwards:

* L0 value objects: the ``__post_init__`` validators of ``HPoint``,
  ``HTangent``, ``OrientedGeodesic`` and ``JacobiData``;
* L1 chart evaluation: ``chart.map`` of the chart the CLI resolves,
  rewrapped through ``dataclasses.replace``;
* L2-L5: module attributes, patched in every ``hypfol`` module that imported
  them, plus the CLI's command table.

Spans stay in memory as aggregates keyed by (span, parent span): call
count, total time and self time, where self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
from time import perf_counter

VALIDATED = ("HPoint", "HTangent", "OrientedGeodesic", "JacobiData")

#: (module, function) pairs wrapped as spans named "<module>.<function>"
FUNCTIONS = (
    ("foliation", "chart_tangent"),
    ("geodesics", "cross_metric"),
    ("geodesics", "same_geodesic"),
    ("geodesics", "gauss_map_jacobian"),
    ("geodesics", "svd_rank"),
    ("geodesics", "geodesic_dist_sq"),
    ("foliation", "classify_chart"),
    ("foliation", "critical_point_scan"),
    ("foliation", "ring_growth_evidence"),
    ("foliation", "_coordinate_descent"),
    ("families", "scan_lambda_max"),
    ("report", "write_report"),
    ("report", "write_csv"),
)

CHART_MAP = "chart.map"
#: a squared-distance evaluation made by the critical-point descent
DESCENT_EVAL = ("geodesics.geodesic_dist_sq", "foliation._coordinate_descent")


class Tracer:
    def __init__(self):
        # (name, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # [name, child_s] of the open spans

    def wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points of the imported ``hypfol`` package."""
        modules = {n: m for n, m in sys.modules.items() if n == "hypfol" or n.startswith("hypfol.")}
        cli = modules["hypfol.cli"]
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for cls_name in VALIDATED:
                cls = getattr(modules["hypfol"], cls_name)
                patch(cls, "__post_init__", self.wrap(cls_name, cls.__post_init__))
            for mod_name, fn_name in FUNCTIONS:
                original = getattr(modules[f"hypfol.{mod_name}"], fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, attr, traced)
            resolve = cli._resolve_family

            def resolve_traced(cfg):
                chart, field = resolve(cfg)
                return dataclasses.replace(chart, map=self.wrap(CHART_MAP, chart.map)), field

            patch(cli, "_resolve_family", resolve_traced)
            for command, fn in list(cli._COMMANDS.items()):
                undo.append((cli._COMMANDS, command, fn))
                cli._COMMANDS[command] = self.wrap(f"cli.{fn.__name__}", fn)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.spans.items() if n == name)

    def total(self, name: str) -> float:
        return sum((a[1] for (n, _), a in self.spans.items() if n == name), 0.0)

    def self_time(self, name: str) -> float:
        return sum((a[2] for (n, _), a in self.spans.items() if n == name), 0.0)

    def exact_counts(self) -> dict:
        return {key: agg[0] for key, agg in self.spans.items()}


#: metrics that are exact counts, so must repeat between traced runs of one seed
EXACT = (
    "L0.hpoint_per_sample",
    "L0.htangent_per_sample",
    "L0.geodesic_per_sample",
    "L1.chart_map_calls_per_sample",
    "L2.tangent_calls_per_sample",
    "L3.cross_metric_calls_per_sample",
    "L4.dist_sq_per_grid_point",
    "L4.descent_evals",
    "L4.bisection_steps",
    "L5.csv_rows",
    "L5.bytes_written",
)


def span_metrics(t: Tracer, samples: int, critical_points: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``samples`` grid samples; times are raw."""
    map_calls = t.calls(CHART_MAP)
    commands = {n for n, _ in t.spans if n.startswith("cli.cmd_")}
    metrics = {
        "L0.hpoint_per_sample": t.calls("HPoint") / samples,
        "L0.htangent_per_sample": t.calls("HTangent") / samples,
        "L0.geodesic_per_sample": t.calls("OrientedGeodesic") / samples,
        "L0.validate_s": sum(t.total(n) for n in VALIDATED),
        "L1.chart_map_calls_per_sample": map_calls / samples,
        "L1.chart_map_s": t.total(CHART_MAP),
        "L1.chart_map_us": 1e6 * t.total(CHART_MAP) / map_calls if map_calls else 0.0,
        "L2.tangent_calls_per_sample": t.calls("foliation.chart_tangent") / samples,
        "L2.tangent_self_s": t.self_time("foliation.chart_tangent"),
        "L3.cross_metric_calls_per_sample": t.calls("geodesics.cross_metric") / samples,
        "L3.cross_metric_s": t.total("geodesics.cross_metric"),
        "L3.same_geodesic_s": t.total("geodesics.same_geodesic"),
        "L3.gauss_jacobian_s": t.total("geodesics.gauss_map_jacobian"),
        "L4.classify_chart_self_s": t.self_time("foliation.classify_chart"),
        "L4.critical_scan_s": t.total("foliation.critical_point_scan"),
        "L4.ring_growth_s": t.total("foliation.ring_growth_evidence"),
        "L4.dist_sq_per_grid_point": (
            t.calls("geodesics.geodesic_dist_sq") / critical_points if critical_points else 0.0
        ),
        "L4.descent_evals": t.spans.get(DESCENT_EVAL, [0])[0],
        "L4.scan_lambda_max_s": t.total("families.scan_lambda_max"),
        "L5.write_report_s": t.total("report.write_report"),
        "L5.write_csv_s": t.total("report.write_csv"),
        "L5.cmd_self_s": sum((t.self_time(n) for n in commands), 0.0),
    }
    return metrics
