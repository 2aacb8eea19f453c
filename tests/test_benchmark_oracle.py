"""Seed 1 of every benchmark workload (``perfbench/workloads.py``) passes the
benchmark's correctness oracle (``perfbench/oracles.py``), run in process
through ``cli.main`` as the benchmark runs it."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hypfol import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # the oracles import ``workloads`` as a top-level module, and a dataclass
    # reads its module from ``sys.modules`` when it is created
    names = ("workloads", "oracles")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return tuple(sys.modules[name] for name in names)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("workload", ["classify-mix", "endpoint-mix", "scan-csv"])
def test_seed_1_passes_the_benchmark_oracle(bench, tmp_path, capsys, workload):
    workloads, oracles = bench
    for k, cmd in enumerate(workloads.build(workload, 1)):
        base = tmp_path / f"c{k}"
        assert cli.main(cmd.argv + ["--out", str(base)]) == 0, capsys.readouterr().err
        files = {ext: base.with_suffix(f".{ext}").read_bytes() for ext in cmd.outputs}
        assert oracles.check(cmd, files, capsys.readouterr().out) == [], cmd.argv
