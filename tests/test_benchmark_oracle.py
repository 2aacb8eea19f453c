"""Seeds 1-3 of every benchmark workload (``perfbench/workloads.py``) pass the
benchmark's correctness oracle (``perfbench/oracles.py``), run in process
through ``cli.main`` as the benchmark runs it, and write strict JSON (no
``NaN`` or ``Infinity``)."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hypfol import cli
from util import strict_json

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


WORKLOADS = ["classify-mix", "endpoint-mix", "scan-csv"]


def _passes_the_oracle(bench, tmp_path, capsys, workload, seed):
    workloads, oracles = bench
    for k, cmd in enumerate(workloads.build(workload, seed)):
        base = tmp_path / f"s{seed}c{k}"
        assert cli.main(cmd.argv + ["--out", str(base)]) == 0, capsys.readouterr().err
        files = {ext: base.with_suffix(f".{ext}").read_bytes() for ext in cmd.outputs}
        strict_json(files["json"].decode())
        assert oracles.check(cmd, files, capsys.readouterr().out) == [], cmd.argv


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_1_passes_the_benchmark_oracle(bench, tmp_path, capsys, workload):
    _passes_the_oracle(bench, tmp_path, capsys, workload, 1)


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_2_and_3_pass_the_benchmark_oracle(bench, tmp_path, capsys, workload, seed):
    _passes_the_oracle(bench, tmp_path, capsys, workload, seed)
