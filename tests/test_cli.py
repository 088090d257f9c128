"""Command-line surface: output shapes, routes, exit codes."""
from __future__ import annotations

import json

import pytest

from braidjones.cli import main
from braidjones.engine import unlink_value

from .helpers import DESTABILIZATION_CHAIN, SPLIT_CHAIN


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

    def test_parse_error_exits_one(self, capsys):
        code, out, err = run(capsys, "jones", "B3: y1")
        assert code == 1
        assert out == ""
        assert "braidjones:" in err

    def test_bounds_error_exits_one(self, capsys):
        code, _, err = run(capsys, "jones", "B3: x5")
        assert code == 1
        assert "x5" in err

    def test_oracle_cap_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            "jones",
            "B2: x1^30",
            "--engine",
            "oracle",
            "--max-strands",
            "0",
        )
        assert code == 1
        assert "cap" in err.lower()


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


class TestClassify:
    def test_semistable_pair(self, capsys):
        code, records, _ = run_json(capsys, "classify", "B2: x1^@", "--at", "0")
        assert code == 0
        (rec,) = records
        assert rec["kind"] == "semistable"
        assert rec["coeff_sum"] == 0

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


class TestBench:
    def test_reports_term_counts(self, capsys):
        code, out, _ = run(capsys, "bench", "--braid", "B3: x1^5 x2^5 x1^5 x2^5")
        assert code == 0
        assert "expansion terms: 2^4 = 16" in out
        assert "naive states: 2^20 = 1048576" in out

    def test_compare_agrees_on_small_input(self, capsys):
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


class TestUsage:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
