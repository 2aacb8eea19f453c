#!/usr/bin/env python3
"""Paired benchmark runs of two hypfol checkouts, recorded in one JSON file.

    python3 scripts/bench_pairs.py --before PARENT_CHECKOUT --after CHANGED_CHECKOUT \\
        --workload classify-mix --pairs 10 --first-seed 11 --out BENCH_6.json

Pair k runs ``perfbench/run.py`` of both checkouts on seed ``first_seed + k``
for the run length that ``BENCHMARK.json`` sets, the "before" side first on
even k and the "after" side first on odd k.  The file records the machine,
every run's end-to-end metrics, and per metric each side's median and
quartiles and the number of pairs the "after" side won (ties count for
neither), and per workload the commit of each checkout and whether a
tracked file differed from it (both null outside a git tree).  Repeating
``--workload`` runs several workloads; an existing ``--out`` file keeps the
workloads it already holds.  At the end it prints one line per workload and
end-to-end metric: both medians, the "before" side's quartiles, the "after"
side's wins, and whether its median lies outside those quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """End-to-end metric values of one benchmark run, and the machine line it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if not result["correct"]:
        sys.exit(f"error: {checkout} failed {workload} seed {seed}:\n{proc.stderr}")
    machine = next(line[len("# machine: "):] for line in proc.stdout.splitlines() if line.startswith("# machine: "))
    return {name: m["value"] for name, m in result["metrics"].items()}, machine


def checkout_state(checkout: Path) -> dict:
    """The commit a checkout has checked out, and whether a tracked file
    differs from it; both None where the checkout is not the top of a git
    tree (or git is missing)."""
    git = ["git", "-C", str(checkout)]
    try:
        head = subprocess.run([*git, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, check=False)
    except OSError:
        return {"commit": None, "dirty": None}
    lines = head.stdout.splitlines()
    if head.returncode or Path(lines[0]).resolve() != checkout.resolve():
        return {"commit": None, "dirty": None}
    status = subprocess.run(
        [*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True, check=True
    )
    return {"commit": lines[1], "dirty": bool(status.stdout)}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair_stats(runs: dict, better: dict) -> dict:
    """Per metric of ``better`` (name: "lower" or "higher"), each side's
    ``summary`` and the number of pairs the "after" side won."""
    stats = {}
    for name, direction in better.items():
        before, after = ([r[name] for r in runs[side]] for side in ("before", "after"))
        sign = 1.0 if direction == "higher" else -1.0
        stats[name] = {
            "before": summary(before),
            "after": summary(after),
            "after_wins": sum(sign * (a - b) > 0.0 for a, b in zip(after, before)),
        }
    return stats


def stat_lines(workload: str, stats: dict, pairs: int) -> list[str]:
    """One line per metric of a workload's ``pair_stats``."""
    lines = []
    for name, s in stats.items():
        before, after = s["before"], s["after"]
        where = "inside" if before["q1"] <= after["median"] <= before["q3"] else "outside"
        lines.append(
            f"{workload} {name}: median {before['median']:.6g} -> {after['median']:.6g}, "
            f"before quartiles [{before['q1']:.6g}, {before['q3']:.6g}] (after median {where}), "
            f"after wins {s['after_wins']} of {pairs}"
        )
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the quartiles need two runs per side")

    bench = json.loads((args.after / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["run_seconds"] = bench["run_seconds"]
    for workload in args.workload:
        runs = {"before": [], "after": []}
        checkouts = {side: checkout_state(getattr(args, side)) for side in runs}
        seeds = [args.first_seed + k for k in range(args.pairs)]
        for k, seed in enumerate(seeds):
            for side in ("before", "after") if k % 2 == 0 else ("after", "before"):
                metrics, doc["machine"] = run(getattr(args, side), workload, seed, bench["run_seconds"])
                runs[side].append(metrics)
                print(f"{workload} seed {seed} {side}: {metrics}", flush=True)
        stats = pair_stats(runs, better)
        doc["workloads"][workload] = {"checkouts": checkouts, "seeds": seeds, "runs": runs, "summary": stats}
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for workload in args.workload:
        print("\n".join(stat_lines(workload, doc["workloads"][workload]["summary"], args.pairs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
