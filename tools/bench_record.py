"""Write a ``BENCH_<label>.json`` performance record for one checkout.

    python3 tools/bench_record.py --checkout DIR --label LABEL

The record holds, for the checkout at DIR (default: this repository):

* ``harness``: the unchanged benchmark harness of that checkout,
  ``perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0``: the
  environment line and the last line it prints (``correct``, ``attempted``,
  ``failed``, ``metrics``), with ``os.getloadavg()`` before and after;
* ``solves``: for each command of ``SOLVES``, the manifest (``timings_sec``,
  ``eigensolve``, ``results``, ``peak_rss_mb``) of the fastest by
  ``timings_sec.total`` of three fresh processes with two BLAS threads,
  again with the load before and after.

Every run measures the checkout in one bytecode state, none: ``__pycache__``
under its ``src/`` and ``perfbench/`` is deleted before the harness and
before each solve, and every child process runs with
``PYTHONDONTWRITEBYTECODE=1`` (the record's ``"bytecode": "none"``).

The file goes to ``BENCH_<label>.json`` at the root of this repository.  A
before/after pair is two records of two checkouts taken one after the other
on one machine; compare them, never records of different machines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 0
SECONDS = 25.0
BEST_OF = 3
SOLVES = {
    "ball-7020-k300": ["solve", "--domain", "ball", "--radius", "6", "--h", "0.125",
                       "--num-eigs", "300"],
    "ball-50920-k10": ["solve", "--domain", "ball", "--radius", "16", "--h", "0.125",
                       "--num-eigs", "10"],
    "ball-50920-k400": ["solve", "--domain", "ball", "--radius", "16", "--h", "0.125",
                        "--num-eigs", "400"],
    "interval-2048-k10": ["solve", "--domain", "interval", "--length", "2", "--cells", "2048",
                          "--num-eigs", "10"],
    "ball-1696-k10": ["solve", "--domain", "ball", "--radius", "3", "--h", "0.125",
                      "--num-eigs", "10"],
}
THREADS = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
NO_BYTECODE = {"PYTHONDONTWRITEBYTECODE": "1"}


def _git(checkout: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def clear_bytecode(checkout: Path) -> None:
    """Delete every ``__pycache__`` directory under the checkout's ``src/`` and ``perfbench/``."""
    for top in ("src", "perfbench"):
        for cache in sorted((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def harness(checkout: Path) -> dict:
    """The environment and last line of the checkout's ``perfbench/run.py``."""
    clear_bytecode(checkout)
    before = os.getloadavg()
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all",
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         env={**os.environ, **NO_BYTECODE}).stdout.splitlines()
    after = os.getloadavg()
    env = next(line for line in out if line.startswith("environment: "))
    return {"command": ["python3", "perfbench/run.py", *cmd[2:]],
            "environment": json.loads(env.removeprefix("environment: ")),
            "result": json.loads(out[-1]), "loadavg_before": before, "loadavg_after": after}


def solve(checkout: Path, argv: list[str]) -> dict:
    """The manifest of the fastest of ``BEST_OF`` fresh processes running ``argv``."""
    env = {**os.environ, **THREADS, **NO_BYTECODE, "PYTHONPATH": str(checkout / "src")}
    before = os.getloadavg()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.csv"
        for _ in range(BEST_OF):
            clear_bytecode(checkout)
            subprocess.run([sys.executable, "-m", "loglap.cli", *argv, "--out", str(out)],
                           env=env, stdout=subprocess.DEVNULL, check=True)
            runs.append(json.loads(out.with_suffix(".json").read_text()))
    best = min(runs, key=lambda run: run["timings_sec"]["total"])
    return {"command": ["loglap", *argv], "best_of": BEST_OF,
            "totals_s": [run["timings_sec"]["total"] for run in runs],
            **{key: best[key] for key in ("timings_sec", "eigensolve", "results", "peak_rss_mb")},
            "loadavg_before": before, "loadavg_after": os.getloadavg()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=REPO)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    record = {
        "label": args.label,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--", "src")),
        "seed": SEED,
        "seconds": SECONDS,
        "bytecode": "none",
        "harness": harness(checkout),
        "solves": {name: solve(checkout, cmd) for name, cmd in SOLVES.items()},
    }
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
