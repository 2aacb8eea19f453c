#!/usr/bin/env python3
"""Benchmark of the hypfol CLI: seeded workloads, oracles, layer traces.

Run from the root of a hypfol checkout:

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 20 --trace 0

The workload's commands go to ``hypfol.cli.main`` in this process, with
BLAS/OpenMP threads pinned to one. A warm-up pass comes first; timed passes
then repeat the whole command sequence until ``--seconds`` have passed,
and times are medians over the timed passes. Every pass must reproduce
the warm-up's output bytes, and the last outputs go through the closed-form
oracles in ``oracles.py``.

Times are host-normalized: each pass (and each set-up interpreter) is
bracketed by runs of the frozen kernel in ``reference.py``, and its time is
rescaled to a host on which that kernel takes ``REF_S`` seconds. Raw times
are printed alongside. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py``. Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# must precede the first numpy import, here or in a child interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import oracles
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 21
#: traced passes needed to check that exact counts repeat
MIN_TRACED = 2

#: the reference kernel's duration on the unloaded host the benchmark was
#: tuned on (2-core Xeon, Python 3.11.7, numpy 2.4.6); it only fixes the scale
#: of host-normalized times
REF_S = 0.030


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def normalize(seconds: float, ref: float) -> float:
    """A time measured while the reference kernel took ``ref`` seconds,
    rescaled to a host on which it takes ``REF_S``."""
    return seconds * REF_S / ref


def import_cli():
    """Import ``hypfol.cli`` from this checkout's ``src``; exit if there is none."""
    if not (SRC / "hypfol" / "__init__.py").is_file():
        sys.exit(f"error: no hypfol sources under {SRC}; run from a hypfol checkout")
    sys.path.insert(0, str(SRC))
    import hypfol.cli

    if Path(hypfol.__file__).resolve().parent != SRC / "hypfol":
        sys.exit(f"error: imported hypfol from {hypfol.__file__}, not from {SRC}")
    return hypfol.cli


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter up to ``import hypfol`` being ready,
    host-normalized and raw.

    The child reads the clock itself once the import is done: perf_counter
    is the system-wide monotonic clock on Linux, and waiting for the child
    with a timeout would round the time up to the wait's polling interval.
    Each child is bracketed by reference-kernel runs.
    """
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); import hypfol; print(time.perf_counter())"
    raw, normalized = [], []
    reference.measure()  # the first run pays numpy's lazy set-up
    before = reference.measure()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        child = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, timeout=60,
                               capture_output=True, text=True)
        raw.append(float(child.stdout) - t0)
        after = reference.measure()
        normalized.append(normalize(raw[-1], 0.5 * (before + after)))
        before = after
    return statistics.median(normalized), statistics.median(raw)


@dataclass
class Pass:
    wall: float
    ref: float  # mean duration of the reference kernel run just before and just after
    times: list[float]  # per command
    failures: list[str | None]  # per command: None, or why it failed
    stdouts: list[str]
    digests: list[str]
    bytes_written: int


class Runner:
    """Runs a workload's command sequence in passes and keeps the outputs' digests."""

    def __init__(self, cli, commands, work: Path):
        self.cli = cli
        self.commands = commands
        self.bases = [work / f"c{k}" for k in range(len(commands))]

    def paths(self, k: int) -> list[Path]:
        return [self.bases[k].with_suffix(f".{ext}") for ext in self.commands[k].outputs]

    def files(self, k: int) -> dict[str, bytes]:
        return {path.suffix[1:]: path.read_bytes() for path in self.paths(k)}

    def passes(self, installs, seconds: float, min_cycles: int = 1) -> list[Pass]:
        """A warm-up pass, then cycles of passes (one per entry of ``installs``,
        a context manager factory or None) until ``seconds`` have passed and
        ``min_cycles`` cycles ran. Each pass is bracketed by reference-kernel runs."""
        out = [self.run_pass(reference.measure())]
        before = reference.measure()
        t0 = perf_counter()
        for cycle in itertools.count():
            if cycle >= min_cycles and perf_counter() - t0 >= seconds:
                break
            for install in installs:
                with install() if install else contextlib.nullcontext():
                    p = self.run_pass(before)
                before = reference.measure()
                p.ref = 0.5 * (p.ref + before)
                out.append(p)
        return out

    def run_pass(self, ref_before: float) -> Pass:
        gc.collect()
        times, failures, stdouts = [], [], []
        t_pass = perf_counter()
        for cmd, base in zip(self.commands, self.bases):
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(cmd.argv + ["--out", str(base)])
                failure = None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"
            except (Exception, SystemExit):  # a traceback or an argparse exit is a failed command
                failure = traceback.format_exc(limit=-3)
            times.append(perf_counter() - t0)
            failures.append(failure)
            stdouts.append(out.getvalue())
        wall = perf_counter() - t_pass
        digests, nbytes = [], 0
        for k in range(len(failures)):
            digest = hashlib.sha256()
            for path in self.paths(k):
                try:
                    with open(path, "rb") as fh:
                        digest.update(hashlib.file_digest(fh, "sha256").digest())
                    nbytes += path.stat().st_size
                except OSError as exc:
                    failures[k] = failures[k] or f"missing output: {exc}"
            digests.append(digest.hexdigest())
        return Pass(wall, ref_before, times, failures, stdouts, digests, nbytes)


def judge(runner: Runner, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): the last outputs go through the oracles,
    and every pass must have produced the same bytes."""
    last = passes[-1]
    verdicts = [
        [] if last.failures[k] else oracles.check(cmd, runner.files(k), last.stdouts[k])
        for k, cmd in enumerate(runner.commands)
    ]
    attempted = failed = 0
    problems = []
    for p, run in enumerate(passes):
        for k, cmd in enumerate(runner.commands):
            attempted += 1
            why = run.failures[k]
            if not why and run.digests[k] != last.digests[k]:
                why = "output bytes differ between passes"
            if not why and verdicts[k]:
                why = "; ".join(verdicts[k])
            if why:
                failed += 1
                problems.append(f"pass {p} `{' '.join(cmd.argv)}`: {why}")
    return attempted, failed, problems


def per_command(runner: Runner, passes: list[Pass]) -> dict[str, float]:
    """Median over passes of each command kind's summed time, host-normalized."""
    out = {}
    for kind in sorted({c.kind for c in runner.commands}):
        sums = [sum(t for t, c in zip(p.times, runner.commands) if c.kind == kind) for p in passes]
        out[f"cmd.{kind.replace('-', '_')}_s"] = statistics.median(map(normalize, sums, (p.ref for p in passes)))
    return out


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[Pass], dict]:
    setup, raw_setup = measure_setup()
    passes = runner.passes([None], seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = passes[1:]
    wall = statistics.median(normalize(p.wall, p.ref) for p in timed)
    samples = sum(c.samples for c in runner.commands)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "samples_per_s": samples / wall,
        "peak_rss_mb": peak_mb,
    }
    raw = {
        "raw.setup_s": raw_setup,
        "raw.wall_s": statistics.median(p.wall for p in timed),
        "raw.reference_s": statistics.median(p.ref for p in timed),
    }
    return metrics, passes, raw | per_command(runner, timed)


def branch_counts(runner: Runner, done: list[int]) -> dict[str, int]:
    """Null-direction branches of every classified sample, read from the reports."""
    counts = dict.fromkeys(("definite", "kernel", "cone", "flat"), 0)
    by_directions = {8: "flat", 1: "kernel", 2: "cone"}
    for k in done:
        if runner.commands[k].kind != "classify":
            continue
        report = json.loads(runner.files(k)["json"])
        for s in report["results"]["classification"]["samples"]:
            if s["verdict"] == "definite":
                counts["definite"] += 1
            elif s["verdict"] is not None:
                counts[by_directions[len(s["k_values"])]] += 1
    return {f"L3.branch.{b}": n for b, n in counts.items()}


def traced_run(runner: Runner, seconds: float, unit: dict[str, str]) -> tuple[dict, list[Pass], list[str]]:
    tracers = []

    def install():
        tracers.append(layers.Tracer())
        return tracers[-1].installed()

    passes = runner.passes([None, install], seconds, min_cycles=MIN_TRACED)
    plain, traced = passes[1::2], passes[2::2]

    samples = sum(c.samples for c in runner.commands)
    critical_points = sum(c.samples for c in runner.commands if c.kind == "critical")
    per_pass = [
        {k: normalize(v, p.ref) if unit[k] in ("s", "us") else v
         for k, v in layers.span_metrics(t, samples, critical_points).items()}
        for t, p in zip(tracers, traced)
    ]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    problems = []
    if any(t.exact_counts() != tracers[0].exact_counts() for t in tracers):
        problems.append("exact span counts differ between traced passes")
    print("# spans of the first traced pass: span <- parent: calls, total s, self s")
    for (name, parent), (calls, total, self_s) in sorted(tracers[0].spans.items(), key=lambda kv: -kv[1][1]):
        print(f"#   {name} <- {parent}: {calls}, {total:.6f}, {self_s:.6f}")
    done = [k for k, failure in enumerate(passes[-1].failures) if failure is None]
    metrics.update(branch_counts(runner, done))
    scans = [json.loads(runner.files(k)["json"]) for k in done if runner.commands[k].kind == "scan-lambda"]
    metrics["L4.bisection_steps"] = sum(len(s["results"]["scan"]["trace"]) for s in scans)
    metrics["L5.csv_rows"] = sum(
        runner.files(k)["csv"].count(b"\n") - 1 for k in done if "csv" in runner.commands[k].outputs
    )
    metrics["L5.bytes_written"] = passes[-1].bytes_written
    metrics.update(dict.fromkeys(("cmd.classify_s", "cmd.gauss_s", "cmd.critical_s", "cmd.scan_lambda_s"), 0.0))
    metrics.update(per_command(runner, plain))
    metrics["trace_overhead_frac"] = (
        statistics.median(normalize(p.wall, p.ref) for p in traced)
        / statistics.median(normalize(p.wall, p.ref) for p in plain)
        - 1.0
    )
    return metrics, passes, problems


def describe_machine() -> str:
    import numpy

    return (
        f"{platform.platform()} {platform.machine()}, {os.cpu_count()} cpus; "
        f"python {platform.python_version()}; numpy {numpy.__version__}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    commands = workloads.build(args.workload, args.seed)
    print(f"# hypfol benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# machine: {describe_machine()}")
    for cmd in commands:
        print(f"#   hypfol {' '.join(cmd.argv)}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(cli, commands, work)
        if args.trace:
            unit = units("per_layer")
            metrics, passes, problems = traced_run(runner, args.seconds, unit)
        else:
            unit = units("end_to_end")
            metrics, passes, raw_times = timed_run(runner, args.seconds)
            problems = []
        attempted, failed, found = judge(runner, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    problems += found
    if args.trace:
        metrics["ops_failed_frac"] = failed / attempted

    print(f"# {len(passes) - 1} measured passes after one warm-up; {failed} of {attempted} commands failed")
    if not args.trace:
        print(f"ops_failed_frac {failed / attempted!r} frac")
        for name, value in raw_times.items():
            print(f"{name} {value!r} s")
    for name, value in metrics.items():
        print(f"{name} {value!r} {unit[name]}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in unit.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
