"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is this file's parent directory and the
program is imported from its ``src/``.  Each sample is a fresh interpreter
(``worker.py``) running one ``loglap`` CLI command, so imports and the
module-level quadrature cache are cold, as they are for every CLI user.  One
warm-up sample is run first and discarded.  Samples repeat until the next
one would end past ``--seconds``; every reported value is a median.

``--trace 0`` reports the end-to-end metrics ``wall_s``, ``setup_s``,
``cpu_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
samples and reports the per-layer metrics of ``tracing.py``, with
``trace.overhead_s`` = traced minus untraced median ``wall_s``.

Every command's outputs go through the correctness gate of
``workloads.py``; a nonzero exit code or a gate mismatch counts as a failed
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS, Workload, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

NPROC = len(os.sched_getaffinity(0))
# One process at a time, with a fixed BLAS thread count no larger than nproc,
# so that results from different machines and commits stay comparable.
BLAS_THREADS = min(2, NPROC)
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 2  # timed samples (untraced runs) or traced/untraced pairs (traced runs) at least
SETUP_SAMPLES = 11  # import timings per untraced run; import-only samples make up the rest
RUN_LIMIT_S = 170  # a sample still running this long after the run started is killed


def run_sample(workload: Workload | None, seed: int, trace: bool, run_dir: Path,
               deadline: float) -> dict:
    """One fresh-process sample, killed at ``deadline`` (a ``perf_counter`` time).

    ``workload=None`` only times ``import loglap.cli``.
    """
    out_dir = Path(tempfile.mkdtemp(dir=run_dir))
    result = out_dir / "sample.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(result), str(int(trace))]
    if workload is not None:
        cmd += ["--", *workload.argv(out_dir, seed)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        return {"elapsed": time.perf_counter() - start,
                "problems": [f"sample still running {RUN_LIMIT_S} s into the run"]}
    try:
        elapsed = time.perf_counter() - start
        stderr = proc.stderr.strip()[-500:]
        if proc.returncode != 0 or not result.is_file():
            return {"elapsed": elapsed,
                    "problems": [f"worker exited {proc.returncode}: {stderr}"]}
        record = json.loads(result.read_text())
        record["elapsed"] = elapsed
        record["problems"] = []
        if workload is not None:
            if record["exit_code"] != 0:
                record["problems"].append(f"loglap exited {record['exit_code']}: {stderr}")
            else:
                record["problems"] += check_outputs(workload, out_dir)
        return record
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> tuple[dict, list[str]]:
    """Sample one workload for about ``seconds``; returns (result, report lines)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    warm_up = run_sample(workload, seed, False, run_dir, deadline)
    rounds: list[list[dict]] = []
    while time.perf_counter() < deadline:
        rounds.append([run_sample(workload, seed, t, run_dir, deadline)
                       for t in ((False, True) if trace else (False,))])
        last = sum(r["elapsed"] for r in rounds[-1])
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + last > seconds:
            break
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds if trace]
    probes = []
    while not trace and len(plain) + len(probes) < SETUP_SAMPLES and time.perf_counter() < deadline:
        probes.append(run_sample(None, seed, False, run_dir, deadline))

    everything = [warm_up, *plain, *traced, *probes]
    problems = [p for r in everything for p in r["problems"]]
    failed = sum(1 for r in everything if r["problems"])
    ran = [r for r in plain if "wall_s" in r]
    lines = [f"workload {workload.name}: loglap {' '.join(workload.argv(Path('OUT'), seed))}",
             f"  seed {seed}, {seconds:g} s, trace {int(trace)}, "
             f"{len(plain)} timed samples{f' + {len(traced)} traced' if trace else ''}"]
    if "wall_s" in warm_up and ran:
        base = _median(ran, "wall_s")
        lines.append(f"  warm-up sample (discarded): wall_s {warm_up['wall_s']:.4f} s, "
                     f"{100.0 * (warm_up['wall_s'] / base - 1.0):+.1f}% from the kept median; "
                     f"setup_s {warm_up['setup_s']:.4f} s")

    metrics: dict[str, dict] = {}
    if trace:
        traced_ok = [r for r in traced if "layers" in r]
        if traced_ok and ran:
            for name, unit in PER_LAYER_UNITS.items():
                if name == "trace.overhead_s":
                    value = _median(traced_ok, "wall_s") - _median(ran, "wall_s")
                else:
                    # a count is reported as one of the samples' counts
                    pick = statistics.median if unit == "s" else statistics.median_low
                    value = pick(r["layers"][name] for r in traced_ok)
                metrics[name] = {"value": value, "unit": unit}
                lines.append(f"  {name:<30} {value:14.6g} {unit}")
            lines.append(f"  traced wall_s {_median(traced_ok, 'wall_s'):.6g} s, "
                         f"untraced wall_s {_median(ran, 'wall_s'):.6g} s")
    elif ran:
        setups = [r["setup_s"] for r in ran + probes if "setup_s" in r]
        for name, unit in END_TO_END_UNITS.items():
            values = setups if name == "setup_s" else [r[name] for r in ran]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(f"  {name:<12} {metrics[name]['value']:12.6g} {unit:<3} {_spread(values)}")
    lines.append(f"  operations: attempted {len(everything)}, failed {failed}")
    lines += [f"  FAILED: {p}" for p in problems[:20]]
    result = {"correct": failed == 0, "attempted": len(everything), "failed": failed,
              "metrics": metrics}
    return result, lines


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    return ref


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"nproc": NPROC, "blas": vendor, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "loglap" / "cli.py").is_file():
        print(f"perfbench: no loglap sources at {SRC}", file=sys.stderr)
        return 2

    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    results = {}
    try:
        for name in names:
            result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), run_dir)
            print("\n".join(lines), flush=True)
            results[name] = result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if any(not r["metrics"] for r in results.values()):
        print("perfbench: no sample produced metrics", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
