"""The package's public namespace, and the names the benchmark's tracer wraps."""

import importlib.util
import sys
from pathlib import Path

import loglap
import loglap.cli


def test_every_exported_name_resolves():
    missing = [name for name in loglap.__all__ if not hasattr(loglap, name)]
    assert missing == []


def test_benchmark_tracer_wraps_names_the_cli_has(monkeypatch):
    # perfbench/tracing.py replaces these loglap.cli attributes by name; a
    # rename in the package fails here, not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [name for names in tracing.CLI_LAYERS.values() for name in names]
    assert names
    assert [name for name in names if not hasattr(loglap.cli, name)] == []
