#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

Run from the root of a hypfol checkout:

    python3 perfbench/prove.py --trace --out perfbench/baseline.json

Runs ``run.py`` once per seed 1 to 10 and workload of ``BENCHMARK.json``,
workloads interleaved within each seed so that slow drift of the host
touches every workload alike, with the ``run_seconds`` of
``BENCHMARK.json``. The spread of a metric is the distance between the
first and third quartile of its values (``statistics.quantiles(values,
n=4)``) as a share of their median; each is printed next to the metric's
bound, and every spread, ``setup_s``'s too, must stay within it. ``--trace`` adds two traced runs per
workload and checks that their exact counts agree.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from layers import EXACT

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    try:  # an incorrect run exits non-zero but still prints its result
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: `{' '.join(argv)}` exited {proc.returncode} without a result:\n{proc.stderr}")


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in names}
    failures = 0
    for seed in SEEDS:
        for w in names:
            res = run_once(w, seed, bench["run_seconds"], 0)
            failures += res["failed"] + (not res["correct"])
            for name, metric in res["metrics"].items():
                values[w][name].append(metric["value"])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"seed {seed} {w}: correct={res['correct']} {res['failed']}/{res['attempted']} failed {shown}", flush=True)

    summary = {}
    ok = failures == 0
    for w in names:
        summary[w] = {}
        for m in bench["end_to_end"]:
            med, spr = spread(values[w][m["name"]])
            summary[w][m["name"]] = {"median": med, "spread": spr, "bound": m["bound"], "values": values[w][m["name"]]}
            flag = "" if spr <= m["bound"] / 3 else ("  above bound/3" if spr <= m["bound"] else "  ABOVE BOUND")
            ok = ok and spr <= m["bound"]
            print(f"{w:14s} {m['name']:14s} median {med:12.5g} {m['unit']:5s} spread {spr:6.3f} bound {m['bound']}{flag}")

    traces = {}
    if args.trace:
        for w in names:
            first, second = (run_once(w, SEEDS[0], bench["run_seconds"], 1) for _ in range(2))
            diff = [k for k in EXACT if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            ok = ok and not diff and first["correct"] and second["correct"]
            traces[w] = {k: v["value"] for k, v in first["metrics"].items()}
            print(f"{w}: traced runs correct={first['correct'] and second['correct']}, "
                  f"exact counts {'differ in ' + ', '.join(diff) if diff else 'repeat'}")

    if args.out:
        import numpy

        record = {
            "machine": f"{platform.platform()} {platform.machine()}",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "run_seconds": bench["run_seconds"],
            "seeds": list(SEEDS),
            "end_to_end": summary,
            "per_layer": traces,
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
