"""The names the benchmark's layer tracer wraps (``perfbench/layers.py``)
resolve in the package, and a traced run of every command records them."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hypfol as hf
from hypfol import cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

COMMANDS = [
    ["classify", "--family", "plane-normal", "--grid", "3x3"],
    ["scan-lambda", "--grid", "3x3"],
    ["gauss", "--family", "vertical", "--grid", "3x3"],
    ["critical", "--family", "plane-normal", "--grid", "3x3"],
]


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(layers):
    for module, name in layers.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"hypfol.{module}"), name)), f"{module}.{name}"
    for name in layers.VALIDATED:
        assert callable(getattr(hf, name).__post_init__), name


def test_traced_run_of_every_command_records_its_spans(layers, tmp_path, capsys):
    commands = dict(cli._COMMANDS)
    tracer = layers.Tracer()
    with tracer.installed():
        for k, argv in enumerate(COMMANDS):
            assert cli.main(argv + ["--out", str(tmp_path / f"c{k}")]) == 0, capsys.readouterr().err
    spans = {name for name, _ in tracer.spans}
    assert {"report.write_csv", "report.write_report", "families.scan_lambda_max"} <= spans
    assert {f"cli.{fn.__name__}" for fn in commands.values()} <= spans
    assert cli._COMMANDS == commands
