"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/worker.py SRC_DIR RESULT_JSON TRACE [-- CLI_ARGS...]

Times ``import loglap.cli`` (``setup_s``), then -- when CLI arguments follow
``--`` -- ``loglap.cli.main(CLI_ARGS)`` (``wall_s``), with the process's CPU
seconds and peak RSS, and writes them to RESULT_JSON.  With TRACE=1 the layer
calls are wrapped in spans first (see ``tracing.py``) and the per-layer
metrics are written too.  Without CLI arguments only the import is timed.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    src, result_path, trace = sys.argv[1], Path(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:] if "--" in sys.argv else None
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import loglap.cli
    setup_s = time.perf_counter() - t0

    if not Path(loglap.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"worker: loglap was imported from {loglap.cli.__file__}, not {src}",
              file=sys.stderr)
        return 1
    record = {"setup_s": setup_s}
    if argv is not None:
        tracer = None
        if trace:
            from loglap.geometry import Domain
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(loglap.cli, Domain)
        cpu0 = _cpu_seconds()
        t1 = time.perf_counter()
        code = loglap.cli.main(argv)
        wall_s = time.perf_counter() - t1
        record.update(
            exit_code=code,
            wall_s=wall_s,
            cpu_s=_cpu_seconds() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            from tracing import layer_metrics

            record["layers"] = layer_metrics(tracer, wall_s)
    result_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
