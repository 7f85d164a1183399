"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is one ``loglap`` CLI command.  The gate compares the numbers a
command writes with reference outputs captured from the same command at the
seed commit (``reference/<workload>/``), cell by cell within a tolerance --
never byte for byte, since BLAS thread counts move the last digits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# |got - ref| <= ATOL + RTOL * |ref| for every number a command writes.
# It accepts BLAS thread-count noise (<= 6.1e-14 on interval1d-highk) and the
# eigenvalue shift of more accurate 2D near-offset entries (~1.1e-6 on
# ball2d-lowk, 1.0e-5 on its 10-term partial sums).  It rejects a missed or
# duplicated eigenvalue: the smallest gap between distinct eigenvalues the
# workloads print is 2.8e-3 (ball2d-lowk, k = 4/5), and 4.7e-3 at the top of
# interval1d-highk's window.
ATOL = 1e-4
RTOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments before --seed (if seeded) and --out
    # (file name, comparator) pairs the gate checks; the first is passed to --out
    outputs: tuple
    seeded: bool = False

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", str(out_dir / self.outputs[0][0])]


def _close(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare_csv(got: Path, ref: Path) -> list[str]:
    """Mismatches between two CLI CSVs: schema and header exact, numbers within tolerance."""
    with open(got, newline="") as fh:
        got_rows = list(csv.reader(fh))
    with open(ref, newline="") as fh:
        ref_rows = list(csv.reader(fh))
    if got_rows[:2] != ref_rows[:2]:
        return [f"{got.name}: schema/header {got_rows[:2]} != {ref_rows[:2]}"]
    if len(got_rows) != len(ref_rows):
        return [f"{got.name}: {len(got_rows) - 2} data rows, reference has {len(ref_rows) - 2}"]
    header = ref_rows[1]
    problems = []
    for i, (g_row, r_row) in enumerate(zip(got_rows[2:], ref_rows[2:]), start=1):
        if len(g_row) != len(r_row):
            problems.append(f"{got.name} row {i}: {len(g_row)} fields, reference {len(r_row)}")
            continue
        for name, g, r in zip(header, g_row, r_row):
            if not _close(float(g), float(r)):
                problems.append(f"{got.name} row {i} {name}: {g} vs reference {r}")
    return problems


def compare_json(got, ref, where: str = "") -> list[str]:
    """Mismatches between two JSON values: structure and strings exact, numbers within tolerance."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref else [f"{where}: {got!r} vs reference {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(got, ref):
            return [f"{where}: {got!r} vs reference {ref!r}"]
        return []
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"vs reference {sorted(ref)}"]
        return [p for key in ref for p in compare_json(got[key], ref[key], f"{where}.{key}")]
    if not isinstance(got, list) or len(got) != len(ref):
        return [f"{where}: {got!r} vs reference list of {len(ref)}"]
    return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare_json(g, r, f"{where}[{i}]")]


def compare_json_file(got: Path, ref: Path) -> list[str]:
    return compare_json(json.loads(got.read_text()), json.loads(ref.read_text()), got.name)


def compare_verify(got: Path, ref: Path) -> list[str]:
    """A verify report passes when every check passed and the checks are the reference's.

    Check details depend on the seed, so only names and verdicts are compared.
    """
    got_report = json.loads(got.read_text())
    ref_names = [c["name"] for c in json.loads(ref.read_text())["checks"]]
    names = [c["name"] for c in got_report["checks"]]
    problems = [f"verify check {c['name']} failed: {c['detail']}"
                for c in got_report["checks"] if not c["passed"]]
    if names != ref_names:
        problems.append(f"verify checks {names} differ from reference {ref_names}")
    if got_report["passed"] is not True:
        problems.append("verify report does not pass")
    return problems


# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ball2d-lowk",
            ("solve", "--domain", "ball", "--radius", "4", "--h", "0.125", "--num-eigs", "10"),
            (("run.csv", compare_csv),),
        ),
        Workload(
            "interval1d-highk",
            ("solve", "--domain", "interval", "--length", "2", "--cells", "2048",
             "--num-eigs", "512", "--delta", "0.25"),
            (("run.csv", compare_csv), ("run_envelope.csv", compare_csv)),
        ),
        Workload(
            "ball2d-rayleigh",
            ("bounds", "--domain", "ball", "--radius", "6", "--h", "0.125",
             "--sigma", "1", "--num-eigs", "30"),
            (("bounds.json", compare_json_file),),
        ),
        Workload(
            "verify-all",
            ("verify", "--suite", "all"),
            (("verify.json", compare_verify),),
            seeded=True,
        ),
    )
}


def check_outputs(workload: Workload, out_dir: Path) -> list[str]:
    """Every mismatch between a workload's outputs in ``out_dir`` and its reference."""
    ref_dir = REFERENCE_DIR / workload.name
    problems = []
    for name, compare in workload.outputs:
        got = out_dir / name
        if not got.is_file():
            problems.append(f"{name}: not written")
            continue
        try:
            problems += compare(got, ref_dir / name)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
    return problems
