"""Built-in consistency checks wiring the evaluator to its oracles.

Every check recomputes a batch of values along two independent routes
(recurrence engine vs. state-sum oracle, closed form vs. evaluator,
census vs. hand-pinned rows) and compares exactly. The CLI exposes this
as ``braidjones selftest``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .analysis import (
    alternating_closed_form,
    alternating_recurrences_check,
    alternating_word,
    degree_audit,
    leading_term_table,
    two_strand_closed_form,
    unit_search,
)
from .braid import parse_braid, parse_family
from .bracket import bracket_naive, bracket_tl, jones_via_bracket
from .engine import GeneratingFunction, jones, unlink_value


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _check_two_strand() -> CheckResult:
    bad = []
    for a in range(-4, 7):
        closed = two_strand_closed_form(a)
        engine = jones(parse_braid(f"B2: x1^{a}"))
        if closed != engine:
            bad.append(f"exp {a}: {closed.text()} vs {engine.text()}")
    detail = bad[0] if bad else "exponents -4..6 agree with the recurrence"
    return CheckResult("two-strand torus closures", not bad, detail)


def _check_bracket_fixtures() -> CheckResult:
    expected = {
        "B2: x1": "1",
        "B2: x1^2": "-s^5 - s",
        "B2: x1^3": "-s^8 + s^6 + s^2",
        "B2: x1^-1": "1",
        "B3: x1 x2": "1",
    }
    bad = []
    for text, value in expected.items():
        got = jones_via_bracket(parse_braid(text))
        if got.text() != value:
            bad.append(f"{text}: {got.text()} vs {value}")
    detail = bad[0] if bad else f"{len(expected)} pinned state-sum values"
    return CheckResult("state-sum oracle fixtures", not bad, detail)


def _check_oracle_routes() -> CheckResult:
    words = ["B3: x1^2 x2^-1 x1 x2", "B2: x1^-3", "B3: x1 x2^3 x1^2 x2"]
    bad = []
    for text in words:
        word = parse_braid(text)
        naive = bracket_naive(word)
        tl = bracket_tl(word)
        if naive != tl:
            bad.append(f"{text}: state routes disagree")
            continue
        if jones_via_bracket(word) != jones(word):
            bad.append(f"{text}: oracle vs engine")
    detail = bad[0] if bad else f"{len(words)} words down both state routes"
    return CheckResult("oracle route agreement", not bad, detail)


def _check_alternating() -> CheckResult:
    bad = []
    for n in range(0, 13):
        closed = alternating_closed_form(n)
        engine = jones(alternating_word(n))
        if closed != engine:
            bad.append(f"length {n}: {closed.text()} vs {engine.text()}")
    detail = bad[0] if bad else "lengths 0..12 match the residue formulas"
    return CheckResult("alternating 3-braid closed form", not bad, detail)


def _check_recurrences() -> CheckResult:
    report = alternating_recurrences_check(3)
    detail = (
        f"{report.checked} identities hold"
        if report.ok
        else "failed: " + ", ".join(report.failures)
    )
    return CheckResult("alternating length recurrences", report.ok, detail)


def _check_square_free() -> CheckResult:
    bad = []
    for strands, count in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)]:
        word = parse_braid(
            f"B{strands}: " + " ".join(f"x{i + 1}" for i in range(count))
        )
        if unlink_value(strands - count) != jones(word):
            bad.append(f"n={strands} k={count}")
    detail = bad[0] if bad else "6 strand/count combinations"
    return CheckResult("increasing square-free closures", not bad, detail)


def _check_generating_function() -> CheckResult:
    bad = []
    single = GeneratingFunction.build(2, (1,))
    for a in range(0, 7):
        if single.coefficient((a,)) != two_strand_closed_form(a):
            bad.append(f"one variable, exponent {a}")
    grid = GeneratingFunction.build(3, (1, 2, 1, 2))
    for exps in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 3, 1), (2, 3, 1, 2)]:
        direct = jones(
            parse_braid(
                f"B3: x1^{exps[0]} x2^{exps[1]} x1^{exps[2]} x2^{exps[3]}"
            )
        )
        if grid.coefficient(exps) != direct:
            bad.append(f"four variables, exponents {exps}")
    detail = bad[0] if bad else "12 series coefficients match direct evaluation"
    return CheckResult("generating function coefficients", not bad, detail)


def _check_census() -> CheckResult:
    rows = leading_term_table(2)
    total = sum(row.count for row in rows)
    bad = []
    if total != 16:
        bad.append(f"counts sum to {total}, not 16")
    full = [r for r in rows if r.delta == 0]
    if not (
        len(full) == 1
        and full[0].word == "x1^3 x2"
        and full[0].leading == "-s^8"
        and full[0].degree == 8
    ):
        bad.append("dense row off")
    empty = [r for r in rows if r.delta == 4]
    if not (len(empty) == 1 and empty[0].leading == "s^2" and empty[0].degree == 6):
        bad.append("empty row off")
    detail = bad[0] if bad else f"{len(rows)} classes covering all 16 words"
    return CheckResult("two-pair leading-term census", not bad, detail)


def _check_degree_bound() -> CheckResult:
    cases = {
        (3, 1, 3, 1): "-s^16 + s^10 + s^6",
        (4, 1, 3, 1): "-s^11 - s^7",
        (2, 1, 2, 1): "2s^12 + s^8 + s^4",
    }
    bad = []
    for exps, value in cases.items():
        report = degree_audit(exps)
        actual = jones(
            parse_braid(
                f"B3: x1^{exps[0]} x2^{exps[1]} x1^{exps[2]} x2^{exps[3]}"
            )
        )
        if actual.text() != value:
            bad.append(f"{exps}: value {actual.text()}")
        elif not report.bound_met:
            bad.append(f"{exps}: degree {report.degree} above {report.bound}")
    detail = bad[0] if bad else "3 pinned values, all under the degree bound"
    return CheckResult("four-syllable degree audits", not bad, detail)


def _check_units() -> CheckResult:
    result = unit_search(parse_family("B2: x1^@"))
    ok = result.hits == (-1, 1)
    detail = (
        f"window [{result.window.lo}, {result.window.hi}], hits {result.hits}"
    )
    return CheckResult("two-strand unit exponents", ok, detail)


_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_two_strand,
    _check_bracket_fixtures,
    _check_oracle_routes,
    _check_alternating,
    _check_recurrences,
    _check_square_free,
    _check_generating_function,
    _check_census,
    _check_degree_bound,
    _check_units,
)


def run_selftest() -> list[CheckResult]:
    """Run every built-in check and collect the outcomes."""
    return [check() for check in _CHECKS]
