"""Write the gate's reference outputs: ``python3 perfbench/capture_reference.py``.

Runs every workload's command once (seed 0) with the checkout's ``src/`` and
keeps the files the gate compares in ``reference/<workload>/``.  The
committed references were captured at the seed commit; recapture only when
a change is meant to alter the numbers the commands write.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_DIR, WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import loglap.cli  # noqa: E402


def main() -> int:
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp:
            code = loglap.cli.main(workload.argv(Path(tmp), seed=0))
            if code != 0:
                print(f"{workload.name}: loglap exited {code}", file=sys.stderr)
                return 1
            target = REFERENCE_DIR / workload.name
            target.mkdir(parents=True, exist_ok=True)
            for name, _compare in workload.outputs:
                shutil.copyfile(Path(tmp) / name, target / name)
        print(f"captured {workload.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
