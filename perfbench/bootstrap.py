"""Run one CLI command in a fresh interpreter: ``bootstrap.py OUT_FILE TRACE BURST GAP ARGS...``.

Calls ``zhuind.cli.main(ARGS)`` inside a ``reference.Gauge(BURST, GAP)``,
so that the caller can take the reference runs' time out of the
command's and scale the rest by the host's speed while it ran.  With
TRACE 1 it also wraps every zhuind layer while the command runs.  When
the command ends it writes to OUT_FILE the reference level, the seconds
the reference runs took, the time of ``import zhuind.cli`` and, traced,
the aggregated spans.  The exit code is the command's own.
"""

import json
import sys
import time

from reference import Gauge


def main() -> int:
    out_file, traced, burst, gap, argv = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3]), float(sys.argv[4]), sys.argv[5:]
    tracer, import_s = None, None
    try:
        with Gauge(burst, gap) as gauge:
            start = time.perf_counter()
            import zhuind.cli

            import_s = time.perf_counter() - start
            if traced:
                from tracing import Tracer

                tracer = Tracer().install()
            return zhuind.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
        record = {"level": gauge.level, "ref_s": gauge.spent, "import_s": import_s}
        if tracer is not None:
            record["spans"] = tracer.snapshot()
        with open(out_file, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
