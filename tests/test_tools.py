"""The repository's tools, on temporary directories."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_clear_bytecode_deletes_the_caches_under_src_and_perfbench_only(tmp_path):
    caches = [tmp_path / "src" / "loglap" / "__pycache__",
              tmp_path / "src" / "__pycache__",
              tmp_path / "perfbench" / "__pycache__",
              tmp_path / "perfbench" / "tests" / "__pycache__"]
    kept = [tmp_path / "tests" / "__pycache__", tmp_path / "tools" / "__pycache__"]
    for cache in caches + kept:
        cache.mkdir(parents=True)
        (cache / "module.cpython-312.pyc").write_bytes(b"\0")
    sources = [tmp_path / "src" / "loglap" / "cli.py", tmp_path / "perfbench" / "run.py"]
    for source in sources:
        source.write_text("")
    bench_record.clear_bytecode(tmp_path)
    assert not any(cache.exists() for cache in caches)
    assert all((cache / "module.cpython-312.pyc").exists() for cache in kept)
    assert all(source.exists() for source in sources)
    bench_record.clear_bytecode(tmp_path)  # nothing left to delete
    bench_record.clear_bytecode(tmp_path / "missing")  # no src/ or perfbench/
