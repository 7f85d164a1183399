"""The package's public namespace, the names the benchmark's tracer wraps, and
the benchmark's correctness gate on the current code."""

import importlib.util
import pkgutil
import sys
from pathlib import Path

import loglap
import loglap.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(monkeypatch, name):
    """A module of perfbench/, loaded without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in loglap.__all__ if not hasattr(loglap, name)]
    assert missing == []


def test_package_exports_each_library_module_public_names_once():
    # the package's names are its library modules' __all__ and its version;
    # cli is the front end, whose one name is its entry point
    modules = [importlib.import_module(f"loglap.{info.name}")
               for info in pkgutil.iter_modules(loglap.__path__) if info.name != "cli"]
    names = [name for module in modules for name in module.__all__] + ["__version__"]
    assert len(set(names)) == len(names)
    assert sorted(loglap.__all__) == sorted(names)


def test_benchmark_tracer_wraps_names_the_cli_has(monkeypatch):
    # perfbench/tracing.py replaces these loglap.cli attributes by name; a
    # rename in the package fails here, not only in a traced benchmark run
    tracing = _load_perfbench(monkeypatch, "tracing")
    names = [name for names in tracing.CLI_LAYERS.values() for name in names]
    assert names
    assert [name for name in names if not hasattr(loglap.cli, name)] == []


def test_benchmark_workloads_pass_their_gate(monkeypatch, tmp_path, capsys):
    # each workload command, run at seed 0, against the reference outputs
    # the benchmark's correctness gate compares it with
    workloads = _load_perfbench(monkeypatch, "workloads")
    problems = {}
    for name, workload in workloads.WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        status = loglap.cli.main(workload.argv(out_dir, 0))
        capsys.readouterr()
        problems[name] = [f"exit {status}"] if status else workloads.check_outputs(workload, out_dir)
    assert problems == {name: [] for name in workloads.WORKLOADS}
