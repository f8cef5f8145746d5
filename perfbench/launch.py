"""Run one kpevans command in a fresh interpreter with the tracer installed.

    python3 perfbench/launch.py STATS_JSON SPANS_JSON -- KPEVANS_ARGS...

kpevans is imported from PYTHONPATH, as the untraced `python3 -m
kpevans.cli` command does. The import becomes the "import" span, the
command runs under the tracer, and the span summary goes to STATS_JSON and
the raw spans to SPANS_JSON. The exit code is the command's.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main(argv) -> int:
    stats_path, spans_path, sep, *cmd = argv
    if sep != "--":
        raise SystemExit("usage: launch.py STATS_JSON SPANS_JSON -- ARGS...")
    tracer = Tracer()
    start = perf_counter()
    import kpevans.cli
    tracer.record("import", start, perf_counter())
    tracer.install()
    try:
        return kpevans.cli.main(cmd)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
