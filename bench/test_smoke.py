"""Smoke test of the benchmark itself, at one timed cycle per workload.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload traced and untraced, and checks that every metric of
BENCHMARK.json is printed by name with its unit, that a corrupted reference
makes operations fail, that the seed decides the inputs, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    # --seconds 0 stops after the first timed cycle; a traced run does its
    # fixed number of cycles whatever --seconds says
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace)
    out = result(proc)
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    for m in expected:
        line = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}( |$)"
        assert re.search(line, proc.stdout, re.MULTILINE), m["name"]
    if trace == "0":
        assert "error_rate = 0 ratio  (0 failed of" in proc.stdout


def test_corrupted_reference_fails_operations(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "bench" / "refs" / "words.json"
    table = json.loads(path.read_text())
    table["digests"][3] = "0" * 16
    path.write_text(json.dumps(table))
    proc = bench("--workload", "words", "--seed", str(workloads.DEFAULT_SEED),
                 "--seconds", "0", cwd=tmp_path)
    out = result(proc)
    assert not out["correct"] and out["failed"] == 1
    assert "differs from the recorded reference" in proc.stdout
    assert "error_rate = 0 " not in proc.stdout


def test_seed_decides_the_inputs():
    for name in workloads.WORKLOADS:
        one = workloads.operations(name, 1, 2)
        assert one == workloads.operations(name, 1, 2)
        assert one != workloads.operations(name, 2, 2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "quartic", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
