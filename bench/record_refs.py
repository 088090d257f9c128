"""Record the reference digests of the default seed's outputs.

    python3 bench/record_refs.py [workload ...]

Runs every cycle a run may reach (``MAX_CYCLES``) of each workload at the
default seed, cross-checks every output by its second route, and writes
``bench/refs/<workload>.json``. It refuses to write a table if any check
fails. Run it only at a commit whose outputs are trusted: the benchmark
then holds later commits to exactly these outputs.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(name: str) -> list[str]:
    seed, cycles = workloads.DEFAULT_SEED, workloads.MAX_CYCLES[name]
    if name == "shell":
        result = run.run_shell(seed, 0, cycles, False, deadline=float("inf"))
        digests, errors = run.check_shell_runs(result["runs"])
    else:
        spec = {"workload": name, "seed": seed, "seconds": 0, "cycles": cycles,
                "trace": False, "check": True, "live_from": 0, "setup_probes": 0}
        result = run.run_worker(spec, timeout=3600)
        digests, errors = result["digests"], result["errors"]
    if errors:
        raise run.BenchError(f"{name}: {len(errors)} outputs failed: {errors[:5]}")
    return digests


def main(names: list[str]) -> int:
    for name in names or workloads.WORKLOADS:
        digests = record(name)
        path = run.BENCH / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        meta = run.metadata(workloads.DEFAULT_SEED)
        path.write_text(json.dumps({
            "seed": workloads.DEFAULT_SEED,
            "cycles": workloads.MAX_CYCLES[name],
            "git_sha": meta["git_sha"],
            "src_sha256": meta["src_sha256"],
            "digests": digests,
        }, indent=0) + "\n")
        print(f"{name}: {len(digests)} outputs cross-checked and recorded in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
