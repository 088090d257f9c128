"""Built-in consistency checks wiring the evaluator to its oracles.

Every check recomputes a batch of values along two independent routes
(recurrence engine vs. state-sum oracle, closed form vs. evaluator,
census vs. hand-pinned rows) and compares exactly, through one rule: a
check passes when each of its (label, got, expected) cases agrees, and
otherwise reports its first disagreement. The CLI exposes this as
``braidjones selftest``.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .analysis import (
    alternating_closed_form,
    alternating_recurrences_check,
    alternating_word,
    degree_audit,
    leading_term_table,
    two_strand_closed_form,
    unit_search,
)
from .braid import BraidWord, Syllable, parse_braid, parse_family
from .bracket import bracket_naive, bracket_tl, jones_via_bracket
from .engine import GeneratingFunction, jones, unlink_value
from .laurent import LaurentPoly


Cases = Iterator[tuple[str, object, object]]  # (label, got, expected)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _agree(name: str, summary: str, cases: Cases) -> CheckResult:
    """The check ``name``: ok with ``summary`` when every (label, got,
    expected) case agrees, else failed at the first case that differs."""
    for label, got, expected in cases:
        if got != expected:
            return CheckResult(name, False, f"{label}: {_text(got)} vs {_text(expected)}")
    return CheckResult(name, True, summary)


def _text(value: object) -> str:
    return value.text() if isinstance(value, LaurentPoly) else str(value)


def _quartic(exps: tuple[int, ...]) -> BraidWord:
    """x1^a x2^b x1^c x2^d on three strands."""
    return BraidWord(3, tuple(map(Syllable, (1, 2, 1, 2), exps)))


def _two_strand() -> Cases:
    for a in range(-4, 7):
        yield f"exp {a}", two_strand_closed_form(a), jones(parse_braid(f"B2: x1^{a}"))


def _bracket_fixtures() -> Cases:
    expected = {
        "B2: x1": "1",
        "B2: x1^2": "-s^5 - s",
        "B2: x1^3": "-s^8 + s^6 + s^2",
        "B2: x1^-1": "1",
        "B3: x1 x2": "1",
    }
    for text, value in expected.items():
        yield text, jones_via_bracket(parse_braid(text)).text(), value


def _oracle_routes() -> Cases:
    for text in ["B3: x1^2 x2^-1 x1 x2", "B2: x1^-3", "B3: x1 x2^3 x1^2 x2"]:
        word = parse_braid(text)
        yield f"{text}: state routes", bracket_naive(word), bracket_tl(word)
        yield f"{text}: oracle vs engine", jones_via_bracket(word), jones(word)


def _alternating() -> Cases:
    for n in range(13):
        yield f"length {n}", alternating_closed_form(n), jones(alternating_word(n))


def _recurrences() -> Cases:
    report = alternating_recurrences_check(3)
    yield "identities", report.checked, 21
    for name in report.failures:
        yield name, "fails", "holds"


def _square_free() -> Cases:
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)]:
        word = BraidWord(n, tuple(Syllable(g, 1) for g in range(1, k + 1)))
        yield f"n={n} k={k}", jones(word), unlink_value(n - k)


def _generating_function() -> Cases:
    single = GeneratingFunction.build(2, (1,))
    for a in range(7):
        yield f"one variable, exponent {a}", single.coefficient((a,)), two_strand_closed_form(a)
    grid = GeneratingFunction.build(3, (1, 2, 1, 2))
    for exps in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 3, 1), (2, 3, 1, 2)]:
        yield f"four variables, exponents {exps}", grid.coefficient(exps), jones(_quartic(exps))


def _census() -> Cases:
    rows = leading_term_table(2)
    yield "classes", len(rows), 6
    yield "counts", sum(row.count for row in rows), 16
    dense = [(r.word, r.leading, r.degree) for r in rows if r.delta == 0]
    yield "dense row", dense, [("x1^3 x2", "-s^8", 8)]
    yield "empty row", [(r.leading, r.degree) for r in rows if r.delta == 4], [("s^2", 6)]


def _degree_bound() -> Cases:
    pinned = {
        (3, 1, 3, 1): "-s^16 + s^10 + s^6",
        (4, 1, 3, 1): "-s^11 - s^7",
        (2, 1, 2, 1): "2s^12 + s^8 + s^4",
    }
    for exps, value in pinned.items():
        yield f"{exps}: value", jones(_quartic(exps)).text(), value
        report = degree_audit(exps)
        yield f"{exps}: degree {report.degree} under {report.bound}", report.bound_met, True


def _units() -> Cases:
    result = unit_search(parse_family("B2: x1^@"))
    yield "window", (result.window.lo, result.window.hi), (-1, 1)
    yield "hits", result.hits, (-1, 1)


# name, the detail of a pass, and the cases, in the order they are reported
_CHECKS: tuple[tuple[str, str, Callable[[], Cases]], ...] = (
    ("two-strand torus closures", "exponents -4..6 agree with the recurrence", _two_strand),
    ("state-sum oracle fixtures", "5 pinned state-sum values", _bracket_fixtures),
    ("oracle route agreement", "3 words down both state routes", _oracle_routes),
    ("alternating 3-braid closed form", "lengths 0..12 match the residue formulas", _alternating),
    ("alternating length recurrences", "21 identities hold", _recurrences),
    ("increasing square-free closures", "6 strand/count combinations", _square_free),
    (
        "generating function coefficients",
        "12 series coefficients match direct evaluation",
        _generating_function,
    ),
    ("two-pair leading-term census", "6 classes covering all 16 words", _census),
    (
        "four-syllable degree audits",
        "3 pinned values, all under the degree bound",
        _degree_bound,
    ),
    ("two-strand unit exponents", "window [-1, 1], hits (-1, 1)", _units),
)


def run_selftest() -> list[CheckResult]:
    """Run every built-in check and collect the outcomes."""
    return [_agree(name, summary, cases()) for name, summary, cases in _CHECKS]
