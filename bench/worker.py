"""One library workload in one process: the timed loop and its checks.

Run by ``run.py`` as ``python3 bench/worker.py '<json spec>'`` with ``src``
on PYTHONPATH; prints one JSON object. The loop runs one operation at a
time. Each operation parses a word and calls ``jones`` (``quartic``,
``words``) or ``jones_via_bracket`` (``oracle``) through the public API,
with the package's default shared memo. Only the parse and the call are
clocked; the checks of each output run between operations, off the clock.
Operations of the warm-up cycles run and are checked, but not clocked.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import workloads

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import braidjones; "
    "print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Seconds to import braidjones in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def main() -> None:
    spec = json.loads(sys.argv[1])
    name = spec["workload"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # each traced call adds one wrapper frame
        sys.setrecursionlimit(2 * sys.getrecursionlimit())

    import checks
    from braidjones.braid import parse_braid
    from braidjones.bracket import jones_via_bracket
    from braidjones.engine import jones

    evaluate = jones_via_bracket if name == "oracle" else jones
    clock = time.perf_counter
    latencies: list[float] = []  # of timed operations only
    digests: list[str] = []  # of every operation, in stream order
    errors: list[tuple[int, str]] = []
    measured = 0.0

    def run(text: str, timed: bool) -> None:
        nonlocal measured
        index = len(digests)
        start = clock()
        word = parse_braid(text)
        t0 = clock()
        try:
            value = evaluate(word)
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if timed:
            measured += t1 - start
            latencies.append(t1 - t0)
        if value is None:
            digests.append("")
            errors.append((index, error))
            return
        if not spec["check"]:
            digests.append("")
            return
        if tracer:
            tracer.on = False
        try:
            digest, error = checks.check_library(name, word, value, index >= spec["live_from"])
        except Exception as exc:
            digest, error = checks.poly_digest(value), f"check raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.on = timed
        digests.append(digest)
        if error:
            errors.append((index, error))

    # Set-up is probed between cycles, off the clock, so that its median
    # spans the run rather than one moment of it. The first probe may write
    # bytecode caches and is not counted.
    probes: list[float] = []
    if spec["setup_probes"]:
        import_time()
    # A full collection, off the clock, just before timing starts. The
    # collector scans the oldest generation once it has grown by a quarter
    # since the last full scan, so these scans, which take up to most of a
    # second once the shared memo is large, then fall at the same points of
    # every run rather than at whatever point the warm-up left them.
    warmup = workloads.WARMUP_CYCLES[name]
    if not warmup:
        gc.collect()
    for text in workloads.prefix(name):
        run(text, True)
    done, rss_kb, timed_from = 0, None, 0
    for cycle in workloads.cycles(name, spec["seed"]):
        timed = done >= warmup
        if warmup and done == warmup:
            timed_from = len(digests)
            gc.collect()
        if tracer:
            tracer.on = timed
        for text in cycle:
            run(text, timed)
        done += 1
        if done == warmup + workloads.RSS_CYCLES[name]:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if timed and len(probes) < spec["setup_probes"]:
            probes.append(import_time())
        if spec["cycles"] is not None:
            if done >= warmup + spec["cycles"]:
                break
        elif (timed and measured >= spec["seconds"]) or done >= workloads.MAX_CYCLES[name]:
            break
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(probes) < spec["setup_probes"]:
        probes.append(import_time())

    summary = None
    if tracer:
        tracer.uninstall()
        summary = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    print(json.dumps({
        "latencies": latencies,
        "digests": digests,
        "errors": errors,
        "wall_s": measured,
        "cycles": done - warmup,
        "timed_from": timed_from,
        "rss_kb": rss_kb,
        "setup_s": statistics.median(probes) if probes else None,
        "trace": summary,
    }))


if __name__ == "__main__":
    main()
