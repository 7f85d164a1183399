"""Tests of the benchmark itself: metric names, the correctness gate, the tracer.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import ATOL, REFERENCE_DIR, RTOL, WORKLOADS, check_outputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _worker(tmp_path, workload, trace=False, env=None):
    """Run one sample of ``workload`` with outputs in ``tmp_path``; return its record."""
    result = tmp_path / "sample.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src"), str(result),
           str(int(trace)), "--", *workload.argv(tmp_path, seed=0)]
    subprocess.run(cmd, check=True, env={**os.environ, **(env or {})},
                   stdout=subprocess.DEVNULL, timeout=170)
    return json.loads(result.read_text())


def _copy_reference(name, tmp_path):
    for path in (REFERENCE_DIR / name).iterdir():
        shutil.copyfile(path, tmp_path / path.name)


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


# ---------------------------------------------------------------------------
# metric names


def test_declared_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "verify-all", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "operations: attempted" in proc.stdout
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench("--workload", "verify-all", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# correctness gate


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_accepts_the_reference(name, tmp_path):
    _copy_reference(name, tmp_path)
    assert check_outputs(WORKLOADS[name], tmp_path) == []


def test_gate_rejects_a_dropped_row(tmp_path):
    _copy_reference("interval1d-highk", tmp_path)
    _edit_csv(tmp_path / "run.csv", lambda lines: lines[:-1])
    assert check_outputs(WORKLOADS["interval1d-highk"], tmp_path)


def _shift_lambda(lines, row, factor):
    fields = lines[row + 1].split(",")
    value = float(fields[1])
    fields[1] = repr(value + factor * (ATOL + RTOL * abs(value)))
    lines[row + 1] = ",".join(fields)
    return lines


def test_gate_tolerance_is_a_sharp_line(tmp_path):
    _copy_reference("ball2d-lowk", tmp_path)
    _edit_csv(tmp_path / "run.csv", lambda lines: _shift_lambda(lines, 5, 0.5))
    assert check_outputs(WORKLOADS["ball2d-lowk"], tmp_path) == []
    _edit_csv(tmp_path / "run.csv", lambda lines: _shift_lambda(lines, 5, 2.0))
    problems = check_outputs(WORKLOADS["ball2d-lowk"], tmp_path)
    assert len(problems) == 1 and "row 5 lambda" in problems[0]


def test_gate_rejects_a_duplicated_double_eigenvalue(tmp_path):
    # Rows 2 and 3 hold the ball's double eigenvalue; report one copy of it and
    # shift the rest up, as a solver that misses a multiplicity would.
    _copy_reference("ball2d-lowk", tmp_path)

    def drop_copy(lines):
        rows = [line.split(",") for line in lines[2:]]
        lambdas = [row[1] for row in rows]
        for row, value in zip(rows, lambdas[:2] + lambdas[3:] + ["2.0"]):
            row[1] = value
        return lines[:2] + [",".join(row) for row in rows]

    _edit_csv(tmp_path / "run.csv", drop_copy)
    assert check_outputs(WORKLOADS["ball2d-lowk"], tmp_path)


def test_gate_rejects_a_shifted_rayleigh_quotient(tmp_path):
    _copy_reference("ball2d-rayleigh", tmp_path)
    report = json.loads((tmp_path / "bounds.json").read_text())
    report["rayleigh"]["quotient"] += 1e-3
    (tmp_path / "bounds.json").write_text(json.dumps(report))
    assert check_outputs(WORKLOADS["ball2d-rayleigh"], tmp_path)


def test_gate_rejects_a_failed_verify_check(tmp_path):
    _copy_reference("verify-all", tmp_path)
    report = json.loads((tmp_path / "verify.json").read_text())
    report["checks"][3]["passed"] = False
    report["passed"] = False
    (tmp_path / "verify.json").write_text(json.dumps(report))
    assert len(check_outputs(WORKLOADS["verify-all"], tmp_path)) == 2


def test_gate_rejects_a_missing_output(tmp_path):
    _copy_reference("interval1d-highk", tmp_path)
    (tmp_path / "run_envelope.csv").unlink()
    assert check_outputs(WORKLOADS["interval1d-highk"], tmp_path) == ["run_envelope.csv: not written"]


def test_gate_accepts_a_single_blas_thread(tmp_path):
    record = _worker(tmp_path, WORKLOADS["interval1d-highk"],
                     env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert record["exit_code"] == 0
    assert check_outputs(WORKLOADS["interval1d-highk"], tmp_path) == []


def test_gate_accepts_more_accurate_2d_entries(tmp_path, monkeypatch):
    # An 8-point rule for every separated offset is at least as large a change
    # as the planned near-offset accuracy fix (entry errors of 2.8e-6 and less).
    import loglap.cli
    import loglap.discretize

    monkeypatch.setattr(loglap.discretize, "_SEPARATED_GAUSS_N", 8)
    workload = WORKLOADS["ball2d-lowk"]
    assert loglap.cli.main(workload.argv(tmp_path, seed=0)) == 0
    assert (tmp_path / "run.csv").read_text() != (REFERENCE_DIR / workload.name / "run.csv").read_text()
    assert check_outputs(workload, tmp_path) == []


# ---------------------------------------------------------------------------
# tracing


def test_traced_rayleigh_sample_makes_no_eigensolve(tmp_path):
    record = _worker(tmp_path, WORKLOADS["ball2d-rayleigh"], trace=True)
    layers = record["layers"]
    assert record["exit_code"] == 0
    assert check_outputs(WORKLOADS["ball2d-rayleigh"], tmp_path) == []
    assert layers["spectrum.eig_calls"] == 0 and layers["spectrum.eig_s"] == 0.0
    assert layers["discretize.cells"] == layers["geometry.test_function_calls"] == 7020
    assert layers["discretize.assemble_s"] > 0.5 * record["wall_s"]
    spans = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert spans == pytest.approx(record["wall_s"], rel=1e-9)


def test_self_time_excludes_child_spans(monkeypatch):
    import tracing

    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = Tracer()
    inner = tracer.wrap("roots.solve", lambda: None)
    tracer.wrap("bounds.report", inner)()
    monkeypatch.undo()
    assert tracer.self_times() == {"bounds.report": 8.0, "roots.solve": 2.0}
    metrics = layer_metrics(tracer, wall_s=12.0)
    assert metrics["cli.self_s"] == 2.0 and metrics["bounds.calls"] == 1
