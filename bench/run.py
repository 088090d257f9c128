"""Benchmark of braidjones: one workload, one seed, one run.

    python3 bench/run.py --workload quartic --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is loaded from ``src``. A run
is one client in a closed loop: one operation at a time, the next sent when
the last returns. ``--trace 0`` times the operations and prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of cycles with every
public function of the package wrapped, prints the per-layer metrics, and
repeats the same cycles untraced to report the tracing overhead. Every
output is checked, off the clock. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``bench/README.md`` for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from cli_launcher import REPORT_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
# a run must end within 180 s; whatever still runs at this point is abandoned
DEADLINE_S = 170
CHILD_TIMEOUT = 60


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("BENCH_TRACE", None)
    env.pop("BENCH_SPANS", None)
    env.update(extra)
    return env


def metadata(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- library workloads -------------------------------------------------------


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def run_worker(spec: dict, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} worker abandoned after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} worker failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- shell workload ----------------------------------------------------------


def _split_report(stderr: str) -> tuple[str, dict]:
    head, sep, tail = stderr.rpartition(REPORT_MARKER)
    if not sep:
        return stderr, {}
    return head, json.loads(tail)


def run_shell(seed: int, seconds: float, cycles: int | None, trace: bool,
              deadline: float, spans: bool = False) -> dict:
    """Run CLI commands, each in a fresh process, until time or cycles run out."""
    runs = []
    measured, done, rss_kb = 0.0, 0, None
    clock = time.perf_counter
    for cycle in workloads.cycles("shell", seed):
        for argv in cycle:
            extra = {"BENCH_TRACE": "1"} if trace else {}
            if spans:
                extra["BENCH_SPANS"] = str(OUT / f"spans-shell-seed{seed}-{len(runs)}.txt")
            start = clock()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "cli_launcher.py"), *argv],
                    env=child_env(**extra), capture_output=True, text=True,
                    timeout=min(CHILD_TIMEOUT, remaining(deadline)),
                )
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                code, stdout, stderr = None, "", "abandoned"
            elapsed = clock() - start
            measured += elapsed
            stderr, report = _split_report(stderr)
            runs.append({"argv": argv, "code": code, "stdout": stdout, "stderr": stderr,
                         "process_s": elapsed, "report": report})
        done += 1
        if done == workloads.RSS_CYCLES["shell"]:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if time.monotonic() >= deadline:
            break
        if cycles is not None:
            if done >= cycles:
                break
        elif measured >= seconds or done >= workloads.MAX_CYCLES["shell"]:
            break
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"runs": runs, "wall_s": measured, "cycles": done, "rss_kb": rss_kb}


def check_shell_runs(runs: list[dict]) -> tuple[list[str], list[tuple[int, str]]]:
    sys.path.insert(0, str(SRC))
    import checks

    digests, errors = [], []
    for i, run in enumerate(runs):
        try:
            digest, error = checks.check_shell(run["argv"], run["code"], run["stdout"])
        except Exception as exc:  # a malformed output fails the operation
            digest, error = "", f"check raised {type(exc).__name__}: {exc}"
        if error and run["stderr"].strip():
            error += f" (stderr: {run['stderr'].strip()[-300:]})"
        digests.append(digest)
        if error:
            errors.append((i, f"{' '.join(run['argv'])}: {error}"))
    return digests, errors


# -- results -----------------------------------------------------------------


def load_refs(workload: str, seed: int) -> list[str]:
    path = BENCH / "refs" / f"{workload}.json"
    if seed != workloads.DEFAULT_SEED or not path.is_file():
        return []
    data = json.loads(path.read_text())
    return data["digests"] if data["seed"] == seed else []


def compare_refs(digests: list[str], refs: list[str], errors: list) -> None:
    failed = {i for i, _ in errors}
    for i, (got, want) in enumerate(zip(digests, refs)):
        if got and got != want and i not in failed:
            errors.append((i, f"output {i} differs from the recorded reference"))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(latencies, wall_s, timed_failed, setup_s, rss_kb) -> tuple[dict, list[str]]:
    n = len(latencies)
    value, pct, beyond = tail(latencies)
    metrics = {
        "throughput_ops_s": ((n - timed_failed) / wall_s, "ops/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MiB"),
    }
    notes = {
        "throughput_ops_s": f"{n - timed_failed} correct operations in {wall_s:.3f} s",
        "latency_p50_s": f"median of {n} operations",
        "latency_tail_s": f"p{pct:.1f}, {beyond} of {n} samples beyond it",
        "peak_rss_mb": "ru_maxrss after the first cycles",
    }
    lines = [f"{k} = {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "")
             for k, (v, u) in metrics.items()]
    return metrics, lines


def per_layer(summary: dict, wall_s: float, cli: dict, overhead: float):
    from tracer import layer_metrics

    metrics = layer_metrics(summary, wall_s)
    for key in ("import_s", "main_s", "process_s"):
        metrics[f"cli.{key}"] = (cli.get(key, 0.0), "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    calls = metrics["engine.jones.calls"][0]
    memo = f"base {calls:g} jones calls" if summary["memo_supported"] else "absent: jones takes no memo"
    lines.append(f"engine.memo: {memo}")
    lines.append(f"trace.spans: {summary['spans']} kept, {summary['spans_dropped']} beyond the cap")
    lines.append(f"trace.overhead: traced / untraced wall time of the same {wall_s:.3f} s of work")
    return metrics, lines


def execute(args) -> tuple[dict, list[str], int, int]:
    """Run the workload; return (metrics, report lines, attempted, failed)."""
    name, seed = args.workload, args.seed
    refs = load_refs(name, seed)
    cycles = workloads.TRACE_CYCLES[name] if args.trace else None
    spec = {"workload": name, "seed": seed, "seconds": args.seconds, "cycles": cycles,
            "trace": bool(args.trace), "check": True, "live_from": len(refs),
            "setup_probes": 0 if args.trace else SETUP_PROBES,
            "spans_path": str(OUT / f"spans-{name}-seed{seed}.txt") if args.trace else None}
    deadline = time.monotonic() + DEADLINE_S
    if name == "shell":
        if args.trace:
            first = run_shell(seed, args.seconds, cycles, True, deadline, spans=True)
            replay = run_shell(seed, args.seconds, cycles, False, deadline)
        else:
            first = run_shell(seed, args.seconds, cycles, False, deadline)
        runs = first["runs"]
        latencies = [r["process_s"] for r in runs]
        digests, errors = check_shell_runs(runs)
        result = first
    else:
        result = run_worker(spec, remaining(deadline))
        if args.trace:
            replay = run_worker(dict(spec, trace=False, check=False, spans_path=None),
                                remaining(deadline))
        latencies, digests, errors = result["latencies"], result["digests"], result["errors"]
        setup_s = result["setup_s"]
    compare_refs(digests, refs, errors)
    failed_ops = {i for i, _ in errors}
    attempted, failed = len(digests), len(failed_ops)
    timed_from = result.get("timed_from", 0)
    lines = [f"cycles = {result['cycles']} timed, operations = {attempted} "
             f"({timed_from} of them warm-up), "
             f"references = {min(len(refs), attempted)} of {attempted} outputs"]
    lines += [f"FAILED op {i}: {msg}" for i, msg in errors[:20]]
    lines.append(f"error_rate = {failed / attempted:.6g} ratio  "
                 f"({failed} failed of {attempted} attempted)")
    if not args.trace:
        if name == "shell":
            setup_s = statistics.median(
                [r["report"]["import_s"] for r in runs if "import_s" in r["report"]] or [0.0])
        timed_failed = sum(1 for i in failed_ops if i >= timed_from)
        metrics, more = end_to_end(
            latencies, result["wall_s"], timed_failed, setup_s, result["rss_kb"])
        return metrics, lines + more, attempted, failed
    overhead = result["wall_s"] / replay["wall_s"]
    if name == "shell":
        from tracer import merge

        summary = merge([r["report"]["trace"] for r in runs if "trace" in r["report"]])
        clean = replay["runs"]
        cli = {
            "import_s": statistics.median(r["report"].get("import_s", 0.0) for r in clean),
            "main_s": statistics.median(r["report"].get("main_s", 0.0) for r in clean),
            "process_s": statistics.median(r["process_s"] for r in clean),
        }
    else:
        summary, cli = result["trace"], {}
    metrics, more = per_layer(summary, result["wall_s"], cli, overhead)
    return metrics, lines + more, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidjones" / "__init__.py").is_file():
        print(f"bench: no braidjones sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    meta = metadata(args.seed)
    meta["workload"], meta["trace"] = args.workload, args.trace
    meta["loadavg_before"] = os.getloadavg()
    try:
        metrics, lines, attempted, failed = execute(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    meta["loadavg_after"] = os.getloadavg()
    print(f"# braidjones benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("meta " + json.dumps(meta))
    for line in lines:
        print(line)
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, meta=meta, report=lines), indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
