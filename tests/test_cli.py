"""Command-line surface: output shapes, routes, exit codes."""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import braidjones
from braidjones import analysis, bracket, cli, engine
from braidjones.braid import parse_braid
from braidjones.cli import main
from braidjones.engine import jones, unlink_value
from braidjones.laurent import LaurentPoly

from .helpers import DESTABILIZATION_CHAIN, SPLIT_CHAIN, SQUARE_CHAIN


def python(*argv):
    """Run ``python *argv`` in a fresh interpreter with this package on its path."""
    src = os.path.dirname(os.path.dirname(braidjones.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def fresh(*args):
    """Run ``python -c *args`` in a fresh interpreter; its stdout lines."""
    proc = python("-c", *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records, err


class TestJones:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "jones", "B3: x1 x2 x1 x2")
        assert code == 0
        assert out == "-s^8 + s^6 + s^2\n"

    def test_json_record(self, capsys):
        code, records, _ = run_json(capsys, "jones", "B2: x1^3")
        assert code == 0
        (rec,) = records
        assert rec["input"] == "B2: x1^3"
        assert rec["polynomial"] == {"8": "-1", "6": "1", "2": "1"}
        assert (rec["degree"], rec["order"], rec["leading"]) == (8, 2, -1)

    def test_oracle_route_agrees(self, capsys):
        _, direct, _ = run(capsys, "jones", "B3: x1^2 x2^-1")
        code, via_oracle, _ = run(
            capsys, "jones", "B3: x1^2 x2^-1", "--engine", "oracle"
        )
        assert code == 0
        assert via_oracle == direct

    def test_long_destabilization_chain(self, capsys):
        code, out, _ = run(capsys, "jones", DESTABILIZATION_CHAIN)
        assert code == 0
        assert out == "1\n"

    def test_long_split_chain(self, capsys):
        code, out, _ = run(capsys, "jones", SPLIT_CHAIN)
        assert code == 0
        assert out == unlink_value(600).text() + "\n"

    def test_long_square_chain(self, capsys):
        code, out, _ = run(capsys, "jones", SQUARE_CHAIN)
        assert code == 0
        assert out == (LaurentPoly({5: -1, 1: -1}) ** 599).text() + "\n"

    def test_transfer_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "TRANSFER_CAP", 2)
        code, out, err = run(capsys, "jones", "B3: x1 x2 x1 x2")
        assert code == 1
        assert out == ""
        assert "cap of 2" in err
        assert "--engine" not in err  # no cap flag to raise on this route

    def test_huge_exponent_exits_one(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "jones", "B2: x1^1000000000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("braidjones: ") and "cap of" in err
        assert "Traceback" not in err
        assert peak < 1 << 20

    def test_live_bits_cap_exits_one(self, capsys):
        half = "x1^-10000 x3^10000 x5^-10000 x2^10000 x4^-10000 x6^10000"
        code, out, err = run(capsys, "jones", f"B7: {half} {half}")
        assert (code, out) == (1, "")
        assert err.startswith("braidjones: ") and "live transfer states" in err
        assert "Traceback" not in err

    def test_parse_error_exits_one(self, capsys):
        code, out, err = run(capsys, "jones", "B3: y1")
        assert code == 1
        assert out == ""
        assert "braidjones:" in err

    def test_bounds_error_exits_one(self, capsys):
        code, _, err = run(capsys, "jones", "B3: x5")
        assert code == 1
        assert "x5" in err

    # the oracle's transfer pass runs at every strand count, under its budget
    WIDE = "B13: x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x1^-2 x12"

    def test_oracle_above_twelve_strands(self, capsys):
        # 15 crossings, and 25, past the naive sum's cap of 24
        for word in (self.WIDE, self.WIDE + " x1^-5 x2^-3 x12^2"):
            code, via_oracle, err = run(capsys, "jones", word, "--engine", "oracle")
            assert (code, err) == (0, "")
            _, direct, _ = run(capsys, "jones", word)
            assert via_oracle == direct

    def test_oracle_above_twelve_strands_cap(self, capsys, monkeypatch):
        # 18 crossings that all commute: 2^18 matchings, past the real budget
        # after about 2.7 s; a budget of 2^16 refuses them at once
        word = "B40: " + " ".join(f"x{g}" for g in range(1, 36, 2))
        monkeypatch.setattr(bracket, "TL_BUDGET", 1 << 16)
        code, out, err = run(capsys, "jones", word, "--engine", "oracle")
        assert (code, out) == (1, "")
        assert "exceeds its work budget of 65536" in err
        assert "--engine recurrence" in err
        assert "Traceback" not in err


class TestFamily:
    def test_negative_range_sweep(self, capsys):
        code, out, _ = run(capsys, "family", "B2: x1^@", "--range", "-1..1")
        assert code == 0
        assert out == "1\n-s - s^-1\n1\n"

    def test_json_inputs_carry_exponent(self, capsys):
        code, records, _ = run_json(
            capsys, "family", "B3: x1^@ x2 x1^3 x2", "--range", "3..4"
        )
        assert code == 0
        assert [r["input"] for r in records] == [
            "B3: x1^@ x2 x1^3 x2 @ 3",
            "B3: x1^@ x2 x1^3 x2 @ 4",
        ]
        assert records[0]["polynomial"] == {"16": "-1", "10": "1", "6": "1"}
        assert records[1]["polynomial"] == {"11": "-1", "7": "-1"}

    WIDE_FAMILY = "B3: x1^2 x2^@ x1^-3 x2"

    def test_range_keeps_one_value_at_a_time(self):
        # keeping every value took 3.0 MiB over 0..300 (and 34.6 MiB over
        # 0..1000, which is too slow to trace here)
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = main(["family", self.WIDE_FAMILY, "--range", "0..300"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20

    def test_wide_range_memory(self):
        # peak RSS of a fresh process over 0..1000, above its RSS after the
        # import; keeping every value added about 34 MiB
        script = (
            "import contextlib, os, resource\n"
            "from braidjones.cli import main\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            f"    code = main(['family', {self.WIDE_FAMILY!r}, '--range', '0..1000'])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(code, after - before)\n"
        )
        code, growth_kib = map(int, fresh(script)[-1].split())
        assert code == 0
        assert growth_kib < 8 << 10

    def test_bad_range_exits_one(self, capsys):
        assert run(capsys, "family", "B2: x1^@", "--range", "5..1")[0] == 1
        assert run(capsys, "family", "B2: x1^@", "--range", "1-5")[0] == 1

    def test_slotless_word_exits_one(self, capsys):
        assert run(capsys, "family", "B2: x1^2", "--range", "0..1")[0] == 1


class TestGenfun:
    def test_single_coefficient(self, capsys):
        code, out, _ = run(
            capsys,
            "genfun",
            "--strands",
            "2",
            "--indices",
            "1",
            "--coeff",
            "3",
        )
        assert code == 0
        assert out.strip() == "-s^8 + s^6 + s^2"

    def test_grid_dump(self, capsys):
        code, out, _ = run(
            capsys, "genfun", "--strands", "2", "--indices", "1", "--upto", "2"
        )
        assert code == 0
        assert out.splitlines() == [
            "0: -s - s^-1",
            "1: 1",
            "2: -s^5 - s",
        ]

    def test_negative_coefficient_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            "genfun",
            "--strands",
            "2",
            "--indices",
            "1",
            "--coeff",
            "-2",
        )
        assert code == 1
        assert "nonnegative" in err

    def test_large_coefficient(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            "genfun",
            "--strands",
            "3",
            "--indices",
            "1,2,1",
            "--coeff",
            "2000,3,2000",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        word = parse_braid("B3: x1^2000 x2^3 x1^2000")
        assert out.strip() == engine.jones(word).text()

    def test_coeff_and_upto_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "genfun",
                    "--strands",
                    "2",
                    "--indices",
                    "1",
                    "--coeff",
                    "1",
                    "--upto",
                    "2",
                ]
            )
        assert exc.value.code == 1

    def test_negative_upto_exits_one(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("corner seeds built for a negative --upto")

        monkeypatch.setattr(engine.GeneratingFunction, "build", build)
        argv = ["genfun", "--strands", "3", "--indices", "1,2", "--upto", "-1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "--upto must be >= 0" in err


class TestClassify:
    def test_semistable_pair(self, capsys):
        code, records, _ = run_json(capsys, "classify", "B2: x1^@", "--at", "0")
        assert code == 0
        (rec,) = records
        assert rec["kind"] == "semistable"
        assert rec["coeff_sum"] == 0

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_nonpositive_prediction_exits_one(self, capsys, mode, m):
        # refused before the pair's classification is printed
        code, out, err = run(capsys, "classify", "B2: x1^@", "--at", "2", "--predict", m, *mode)
        assert (code, out) == (1, "")
        assert "--predict must be >= 1" in err

    def test_prediction_agrees(self, capsys):
        code, records, _ = run_json(
            capsys, "classify", "B2: x1^@", "--at", "0", "--predict", "5"
        )
        assert code == 0
        (rec,) = records
        assert rec["prediction"] == {"degree": 14, "leading": -1}
        assert rec["actual"] == {"degree": 14, "leading": -1}
        assert rec["agree"] is True

    def test_reclassify_note(self, capsys):
        code, records, _ = run_json(
            capsys,
            "classify",
            "B3: x1^@ x2 x1^3 x2",
            "--at",
            "1",
            "--predict",
            "3",
        )
        assert code == 0
        (rec,) = records
        assert rec["kind"] == "critical"
        assert rec["coeff_sum"] == 0
        assert rec["prediction"] == "reclassify"

    def test_prediction_at_large_exponent(self, capsys):
        start = time.perf_counter()
        code, records, _ = run_json(
            capsys,
            "classify",
            "B3: x1^2 x2^@ x1^-3 x2",
            "--at",
            "100000",
            "--predict",
            "3",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        (rec,) = records
        assert rec["agree"] is True

    def test_text_mode_prints_kind(self, capsys):
        code, out, _ = run(capsys, "classify", "B2: x1^@", "--at", "2")
        assert code == 0
        assert "kind: stable" in out


class TestAudit:
    def test_single_vector(self, capsys):
        code, records, _ = run_json(capsys, "audit", "--exps", "3,1,3,1")
        assert code == 0
        (rec,) = records
        assert rec["bound"] == 20
        assert rec["degree"] == 16
        assert rec["bound_met"] is True

    def test_exhaustive_sweep(self, capsys):
        code, records, _ = run_json(
            capsys, "audit", "--pairs", "1", "--max-exp", "3"
        )
        assert code == 0
        (rec,) = records
        assert rec["checked"] == 16
        assert rec["violations"] == []

    def test_sampled_sweep(self, capsys):
        code, records, _ = run_json(
            capsys,
            "audit",
            "--pairs",
            "2",
            "--max-exp",
            "4",
            "--samples",
            "20",
            "--seed",
            "7",
        )
        assert code == 0
        assert records[0]["checked"] == 20
        assert records[0]["violations"] == []

    def test_missing_selector_exits_one(self, capsys):
        assert run(capsys, "audit")[0] == 1

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--pairs", "2", "--samples", "-5"], "--samples must be >= 1, got -5"),
            (["--pairs", "2", "--samples", "0"], "--samples must be >= 1, got 0"),
            (["--pairs", "2", "--max-exp", "-1"], "--max-exp must be >= 0, got -1"),
            (["--pairs", "2", "--max-exp", "-1", "--samples", "3"], "--max-exp must be >= 0, got -1"),
            (["--pairs", "-1"], "--pairs must be >= 1, got -1"),
            (["--pairs", "0"], "--pairs must be >= 1, got 0"),
        ],
    )
    def test_counts_that_check_nothing_exit_one(self, capsys, monkeypatch, mode, argv, message):
        # refused in both output modes before any word is drawn
        def degree_audit(exps):
            raise AssertionError(f"audited {exps} under a count that checks nothing")

        monkeypatch.setattr(analysis, "degree_audit", degree_audit)
        code, out, err = run(capsys, "audit", *argv, *mode)
        assert (code, out, err) == (1, "", f"braidjones: {message}\n")


class TestTables:
    def test_two_pair_census(self, capsys):
        code, records, _ = run_json(capsys, "tables", "--pairs", "2")
        assert code == 0
        flat = [
            (r["delta"], r["word"], r["count"], r["leading"], r["degree"])
            for r in records
        ]
        assert flat == [
            (4, "1", 1, "s^2", 6),
            (3, "x1", 4, "-s", 4),
            (2, "x1 x2", 4, "1", 2),
            (2, "x1^2", 2, "s^6", 8),
            (1, "x1^2 x2", 4, "-s^5", 6),
            (0, "x1^3 x2", 1, "-s^8", 8),
        ]
        assert sum(r["count"] for r in records) == 16

    def test_six_pair_census(self, capsys):
        code, records, _ = run_json(capsys, "tables", "--pairs", "6")
        assert code == 0
        assert sum(r["count"] for r in records) == 2**12

    def test_text_mode_has_header(self, capsys):
        code, out, _ = run(capsys, "tables", "--pairs", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["delta", "bits", "count", "degree", "leading", "word"]
        assert len(lines) == 4


class TestUnits:
    def test_two_strand_family(self, capsys):
        code, records, _ = run_json(capsys, "units", "B2: x1^@")
        assert code == 0
        (rec,) = records
        assert rec["hits"] == [-1, 1]
        assert rec["window"] == [-1, 1]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "units", "B3: x1^@ x2 x1 x2")
        assert code == 0
        assert "units at: -3, -1" in out

    def test_units_far_from_zero(self, capsys):
        code, out, _ = run(capsys, "units", "B2: x1^@ x1^-250")
        assert code == 0
        assert "units at: 249, 251" in out

    def test_unadmitted_seed_exits_one(self, capsys):
        code, _, err = run(capsys, "units", "B2: x1^@ x1^-1000000000000")
        assert code == 1
        assert "exceeds the cap" in err


class TestBench:
    def test_reports_term_counts(self, capsys):
        code, out, _ = run(capsys, "bench", "--braid", "B3: x1^5 x2^5 x1^5 x2^5")
        assert code == 0
        assert "expansion terms: 2^4 = 16" in out
        assert "naive states: 2^20 = 1048576" in out

    def test_compare_agrees_on_small_input(self, capsys, monkeypatch):
        # the naive sum itself, not the oracle's transfer pass for 3 strands
        def unreachable(word):
            raise AssertionError("bench --compare naive ran the transfer pass")

        monkeypatch.setattr(bracket, "bracket_tl", unreachable)
        code, records, _ = run_json(
            capsys,
            "bench",
            "--braid",
            "B3: x1^3 x2^3 x1^3 x2^3",
            "--compare",
            "naive",
        )
        assert code == 0
        assert records[0]["naive"] == "agrees"

    def test_compare_reports_cap(self, capsys):
        code, out, _ = run(
            capsys,
            "bench",
            "--braid",
            "B3: x1^15 x2^15 x1^15 x2^15",
            "--compare",
            "naive",
        )
        assert code == 0
        assert "naive: cap exceeded at c = 60 (limit 24)" in out

    def test_counts_past_the_digit_limit(self, capsys):
        # 2^15000 has 4,516 decimal digits, past the 4,300 that Python (3.10.7
        # and 3.11 on) converts to text by default
        word = "B2: x1^15000"
        value = jones(parse_braid(word))
        code, out, _ = run(capsys, "bench", "--braid", word)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"value: {value.text()}"
        assert lines[2:] == ["expansion terms: 2^1 = 2", "naive states: 2^15000"]
        code, records, _ = run_json(capsys, "bench", "--braid", word)
        assert code == 0
        (rec,) = records
        assert rec["polynomial"] == value.as_json_dict()
        assert (rec["expansion_terms"], rec["naive_states"]) == (2, "2^15000")


class TestUsage:
    def test_module_form_runs_the_command(self):
        proc = python("-m", "braidjones.cli", "units", "B2: x1^@")
        assert proc.returncode == 0, proc.stderr
        assert "units at: -1, 1" in proc.stdout.splitlines()

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["family", "B2: x1^@", "--range", "a..b"], "range must look like -2..5, got 'a..b'"),
            (
                ["genfun", "--strands", "3", "--indices", "1,x", "--upto", "1"],
                "need a comma-separated integer list, got '1,x'",
            ),
            (["audit"], "audit needs --exps or --pairs"),
        ],
    )
    def test_option_errors_name_no_position(self, capsys, argv, message):
        # only braid text has positions; an option value is read whole
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"braidjones: {message}\n")

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["jones", "bench"])
    def test_naive_cap_help_states_its_cost(self, capsys, command):
        # the --engine help states the oracle's budget, the --compare help
        # the naive sum's cap
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        budget = bracket.TL_BUDGET.bit_length() - 1
        option, cost = {
            "jones": ("--engine {recurrence,oracle} ", f"at most 2^{budget} units of work"),
            "bench": (
                "--compare {naive} ",
                f"{bracket.NAIVE_CAP} crossings, 2^{bracket.NAIVE_CAP} states, about 15 s",
            ),
        }[command]
        assert cost in help_text.partition(option)[2]


class TestClosedFormCaps:
    E = 10**12

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "B3: x1^2 x2^@ x1^-3 x2", "--range", f"{E}..{E}"],
            ["genfun", "--strands", "3", "--indices", "1,2", "--coeff", f"{E},3"],
            ["classify", "B3: x1^2 x2^@ x1^-3 x2", "--at", str(E)],
        ],
    )
    def test_huge_exponent_exits_one(self, capsys, monkeypatch, argv):
        # V(e) has about e terms: these ran until killed before the closed
        # forms checked the packed span of the word they stand for, so a
        # closed form reached here fails the test rather than hanging it
        def unreachable(*args):
            raise AssertionError("the closed form ran on an oversized word")

        monkeypatch.setattr(engine, "general_term", unreachable)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("braidjones: ") and f"cap of {engine.PACKED_BITS_CAP} bits" in err

    def test_ring_cap_exits_one(self, capsys, monkeypatch):
        # with the span cap raised past the word, the division by D^k refuses
        # to walk V(e)'s e quotient terms before it starts; family and
        # classify evaluate through jones and never reach the ring's division
        monkeypatch.setattr(engine, "PACKED_BITS_CAP", 1 << 64)
        argv = ["genfun", "--strands", "3", "--indices", "1,2", "--coeff", f"{self.E},3"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("braidjones: ") and "quotient terms" in err


class TestEnumerationCaps:
    # uncapped, each of these ran for seconds to minutes or ran out of memory
    # before it printed anything; the caps refuse them before any evaluation.
    # A fresh interpreter shows any traceback on stderr, and its 2 GiB
    # address-space limit keeps a missing cap from exhausting the host
    SCRIPT = "import sys\nfrom braidjones.cli import main\nsys.exit(main(sys.argv[1:]))"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tables", "--pairs", "100"], f"cap of 4^{analysis.CENSUS_PAIRS_CAP}"),
            (["audit", "--pairs", "4", "--max-exp", "9"], f"cap of {cli.AUDIT_CAP}"),
            (["audit", "--pairs", "2", "--samples", str(10**12)], f"cap of {cli.AUDIT_CAP}"),
            (["audit", "--pairs", str(10**9), "--samples", "1"], f"cap of {cli.AUDIT_CAP}"),
            (["audit", "--pairs", "2", "--max-exp", str(10**11)], f"cap of {cli.AUDIT_CAP}"),
            (["genfun", "--strands", "3", "--indices", ",".join("12" * 12), "--upto", "1"],
             f"cap of 2^{engine.CORNER_CAP}"),
            (["genfun", "--strands", "3", "--indices", "1,2,1,2,1,2", "--upto", "100"],
             f"cap of {cli.GRID_CAP}"),
            (["family", "B2: x1^@", "--range", f"0..{10**12}"], f"cap of {cli.RANGE_CAP}"),
        ],
    )
    def test_over_cap_exits_one(self, argv, message):
        src = os.path.dirname(os.path.dirname(braidjones.__file__))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert time.perf_counter() - start < 2.0
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr and message in proc.stderr

    @pytest.mark.parametrize(
        "command, text",
        [
            ("tables", f"at most {analysis.CENSUS_PAIRS_CAP} (4^{analysis.CENSUS_PAIRS_CAP} bit"),
            ("audit", f"at most {cli.AUDIT_CAP} exponents"),
            ("genfun", f"at most {engine.CORNER_CAP} indices"),
            ("genfun", f"at most (M+1)^(k+1) 2^k = {cli.GRID_CAP} for k indices"),
            ("family", f"at most (hi-lo+1)(max|e|+1) = {cli.RANGE_CAP}"),
        ],
    )
    def test_help_states_the_cap(self, capsys, command, text):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert text in " ".join(capsys.readouterr().out.split())

    def test_samples_keep_their_seeded_order(self, capsys, monkeypatch):
        # drawn one at a time as they are checked, in the order of one list
        seen = []
        audit = analysis.degree_audit
        monkeypatch.setattr(analysis, "degree_audit", lambda v: seen.append(v) or audit(v))
        argv = ["audit", "--pairs", "2", "--max-exp", "9", "--samples", "4", "--seed", "5"]
        code, records, _ = run_json(capsys, *argv)
        assert code == 0 and records[0]["checked"] == 4
        rng = random.Random(5)
        assert seen == [tuple(rng.randint(0, 9) for _ in range(4)) for _ in range(4)]


# An argv grammar over every subcommand: small integers and huge ones in every
# integer slot, words and families on drawn strands, generators and exponents
HUGE = (10**12, -(10**12), 2**64, 10**100)
INTS = st.one_of(st.integers(-2, 8), st.sampled_from(HUGE)).map(str)
INT_LISTS = st.lists(INTS, min_size=1, max_size=4).map(",".join)
WORDS = st.builds(
    "B{}: x1^{} x{}^{} x1".format,
    st.one_of(st.sampled_from("234"), INTS),
    INTS,
    st.one_of(st.sampled_from("12"), INTS),
    INTS,
)
FAMILIES = st.one_of(
    st.sampled_from(("B2: x1^@", "B3: x1^2 x2^@ x1^-3 x2")),
    st.builds("B3: x1^@ x2^{} x1^{} x2".format, INTS, INTS),
)


def _argv(*parts):
    """Strategies of argv pieces, joined in order."""
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(
        lambda pieces: [arg for piece in pieces for arg in piece]
    )


def _one(values):
    return values.map(lambda v: [v])


def _options(**flags):
    """Any subset of ``--flag value`` pairs, each value from its strategy."""
    pairs = [_argv(f"--{name.replace('_', '-')}", _one(values)) for name, values in flags.items()]
    return st.tuples(*(st.one_of(st.just([]), pair) for pair in pairs)).map(
        lambda pieces: [arg for piece in pieces for arg in piece]
    )


ARGV = _argv(
    st.one_of(
        _argv("jones", _one(WORDS), _options(engine=st.sampled_from(("recurrence", "oracle")))),
        _argv("family", _one(FAMILIES), "--range", _one(st.builds("{}..{}".format, INTS, INTS))),
        _argv("genfun", "--strands", _one(INTS), "--indices", _one(INT_LISTS), st.one_of(
            _argv("--coeff", _one(INT_LISTS)), _argv("--upto", _one(INTS))
        )),
        _argv("classify", _one(FAMILIES), "--at", _one(INTS), _options(predict=INTS)),
        _argv("audit", st.one_of(
            _argv("--exps", _one(INT_LISTS)),
            _argv("--pairs", _one(INTS), _options(max_exp=INTS, samples=INTS, seed=INTS)),
        )),
        _argv("tables", "--pairs", _one(INTS)),
        _argv("units", _one(FAMILIES)),
        _argv("bench", "--braid", _one(WORDS), _options(compare=st.just("naive"))),
        st.just(["selftest"]),
    ),
    st.sampled_from(([], ["--json"])),
)


def _overtime(signum, frame):
    raise TimeoutError("the draw ran past 2 s")


class TestArgvGrammar:
    # a few ms a draw: most stop at a parse error or a cap
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ARGV)
    # draws that once ran past the limit or out of memory
    @example(["family", "B2: x1^@", "--range", "0..1000000000000"])
    @example(["audit", "--pairs", "1000000000000", "--max-exp", "-1"])
    @example(["bench", "--braid", "B2: x1^1000000000000 x1^-1000000000000 x1"])
    @example(["genfun", "--strands", str(2**64), "--indices", "1", "--coeff", "1"])
    @example(["jones", "B3: x1^1000000000000 x2 x1", "--engine", "oracle"])
    @example(["jones", "B13: x1^1000000000000 x2 x1", "--engine", "oracle"])
    @example(["units", "B2: x1^@ x1^-1000"])
    @example(["units", "B2: x1^@ x1^300"])
    @example(["units", "B2: x1^@ x1^-1000000000000"])
    def test_every_draw_exits_within_two_seconds(self, argv):
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _overtime)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # usage errors and --help
                    code = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=30, deadline=None)
    @given(
        _options(pairs=INTS, samples=INTS, max_exp=INTS, seed=INTS).filter(bool),
        st.sampled_from(([], ["--json"])),
    )
    def test_audit_exps_refuses_sweep_options(self, options, mode):
        # any value of any sweep option, refused before the vector is audited
        argv = ["audit", "--exps", "3,1,3,1", *options, *mode]
        out, err = io.StringIO(), io.StringIO()
        audit = mock.patch.object(analysis, "degree_audit", side_effect=AssertionError(argv))
        with audit, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        names = ", ".join(arg for arg in options if arg.startswith("--"))
        assert (code, out.getvalue()) == (1, ""), argv
        assert err.getvalue() == f"braidjones: --exps cannot be combined with {names}\n"


class TestImportBoundary:
    # each command runs in a fresh interpreter, so what it imports is seen
    SCRIPT = (
        "import json, sys\n"
        "from braidjones.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('braidjones'))\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["jones", "B3: x1 x2^-1 x1"],
            ["jones", "B3: x1 x2^-1 x1", "--engine", "oracle"],
            ["bench", "--braid", "B3: x1^3 x2^-2", "--compare", "naive"],
        ],
    )
    def test_commands_skip_analysis_and_selftest(self, argv):
        report = json.loads(fresh(self.SCRIPT, *argv)[-1])
        assert report["code"] == 0
        assert "braidjones.analysis" not in report["loaded"]
        assert "braidjones.selftest" not in report["loaded"]

    # dataclasses brings inspect, dis and tokenize, fractions brings decimal;
    # a module the interpreter loaded before the package does not count
    HEAVY_SCRIPT = (
        "import contextlib, json, os, sys\n"
        "heavy = ('dataclasses', 'fractions')\n"
        "before = set(sys.modules)\n"
        "def new():\n"
        "    return [m for m in heavy if m in sys.modules and m not in before]\n"
        "import braidjones\n"
        "report = [['import braidjones', 0, new()]]\n"
        "import braidjones.cli\n"
        "report.append(['import braidjones.cli', 0, new()])\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "        code = braidjones.cli.main(argv)\n"
        "    report.append([argv[0], code, new()])\n"
        "print(json.dumps(report))\n"
    )
    # one command of each kind in the benchmark's shell mix
    SHELL_MIX = [
        ["jones", "--json", "B3: x1 x2^-1 x1"],
        ["family", "--json", "B3: x1^@ x2 x1^3 x2", "--range", "-2..3"],
        ["genfun", "--json", "--strands", "3", "--indices", "1,2,1,2", "--upto", "1"],
        ["tables", "--json", "--pairs", "2"],
        ["audit", "--json", "--pairs", "1", "--samples", "5"],
        ["units", "--json", "B2: x1^@"],
        ["classify", "--json", "B3: x1^@ x2 x1^3 x2", "--at", "1", "--predict", "3"],
        ["bench", "--json", "--braid", "B3: x1^3 x2^-2", "--compare", "naive"],
        ["selftest", "--json"],
    ]

    def test_no_dataclasses_or_fractions(self):
        report = json.loads(fresh(self.HEAVY_SCRIPT, json.dumps(self.SHELL_MIX))[-1])
        assert [step for step, _, _ in report] == [
            "import braidjones",
            "import braidjones.cli",
            *(argv[0] for argv in self.SHELL_MIX),
        ]
        assert [(step, code, loaded) for step, code, loaded in report] == [
            (step, 0, []) for step, _, _ in report
        ]

    def test_every_public_name_resolves(self):
        script = (
            "import braidjones\n"
            "missing = [n for n in braidjones.__all__ "
            "if getattr(braidjones, n, None) is None]\n"
            "print(missing)\n"
        )
        assert fresh(script) == ["[]"]
