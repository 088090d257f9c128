"""Start the braidjones CLI the way its console script does, with timings.

``python3 bench/cli_launcher.py <subcommand> ...`` with ``src`` on
PYTHONPATH behaves like ``braidjones <subcommand> ...``: it imports
``braidjones.cli`` and exits with the code of ``main``. It also times the
import and ``main``. With BENCH_TRACE=1 it installs the tracer before
``main`` and reports the layer aggregates; with BENCH_SPANS set it writes
its spans to that file. The report is the last line of stderr, after
``REPORT_MARKER``.
"""

import json
import os
import sys
import time

REPORT_MARKER = "@@bench-report "


def main() -> int:
    start = time.perf_counter()
    import braidjones.cli

    imported = time.perf_counter()
    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # each traced call adds one wrapper frame
        sys.setrecursionlimit(2 * sys.getrecursionlimit())
    begin = time.perf_counter()
    try:
        code = braidjones.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    finished = time.perf_counter()
    report = {"import_s": imported - start, "main_s": finished - begin}
    if tracer:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if os.environ.get("BENCH_SPANS"):
            tracer.write_spans(os.environ["BENCH_SPANS"])
    sys.stdout.flush()
    sys.stderr.write("\n" + REPORT_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
