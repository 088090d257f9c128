"""Degree diagnostics, closed forms, and enumeration audits.

Everything here sits on top of the evaluator. The stability machinery
classifies a pair of consecutive family values by how their degrees relate
and predicts degrees and leading coefficients further along the family;
the closed forms cover the two-strand torus family and the alternating
3-braid word x1 x2 x1 x2 ...; the table builder regenerates the
leading-term census of alternating-syllable 3-braids; the unit scan finds
every exponent at which a family value can equal 1, with certificates
that the window searched is exhaustive. Each call evaluates its own words
through :func:`~braidjones.engine.jones`, a family's value at an exponent
as ``jones`` of the word it stands for, and keeps no value once it returns.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from typing import Callable, NamedTuple, Sequence

from .braid import BraidWord, CapExceeded, ExponentFamily, InvariantViolation, Syllable
from .engine import LOOP_VALUE, jones, step_up
from .laurent import ONE, LaurentPoly


# Syllable pairs of a census: it walks 4^P bit vectors and keeps each; 4^8 took
# 0.7 s and 36 MiB on a 2-vCPU host, and each pair more multiplies both by four
CENSUS_PAIRS_CAP = 8


class ZeroPolynomial(ValueError):
    """A Jones value was unexpectedly zero (this should be impossible)."""


# -- stability of exponent families ------------------------------------


class Stability(enum.Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"
    CRITICAL = "critical"


class Classification(NamedTuple):
    """Stability class of a consecutive pair, with the coefficient sum C."""

    kind: Stability
    coeff_sum: int


def _degree(value: LaurentPoly) -> int:
    if value.is_zero():
        raise ZeroPolynomial("zero polynomial has no degree data")
    return int(value.degree)


def classify_pair(v_e: LaurentPoly, v_e1: LaurentPoly) -> Classification:
    """Classify the pair (V(e), V(e+1)) by degree growth.

    Stable means deg V(e+1) exceeds deg V(e) by at least 2, semistable
    means it does not grow at all, critical means it grows by exactly 1.
    C is the sum of the two leading coefficients; it decides what a
    critical pair does next.
    """
    gap = _degree(v_e1) - _degree(v_e)
    if gap >= 2:
        kind = Stability.STABLE
    elif gap <= 0:
        kind = Stability.SEMISTABLE
    else:
        kind = Stability.CRITICAL
    return Classification(kind, v_e.leading + v_e1.leading)


class Prediction(NamedTuple):
    """Predicted degree and leading coefficient of V(e+m)."""

    degree: int
    coeff: int


class _Reclassify:
    """Sentinel: the pair one step later is critical again; re-classify there."""

    def __repr__(self) -> str:  # pragma: no cover
        return "RECLASSIFY"


RECLASSIFY = _Reclassify()


def predict_degrees(
    classification: Classification,
    v_e: LaurentPoly,
    v_e1: LaurentPoly,
    m: int,
    v_e2: LaurentPoly | None = None,
) -> Prediction | _Reclassify:
    """Degree and leading coefficient of V(e+m) from the pair at e.

    Covers every stability class. A critical pair with C = 0 needs the
    next value V(e+2) to discriminate its sub-cases; in the sub-case where
    V(e+2) is again critical over V(e+1) the sentinel RECLASSIFY is
    returned and the caller should restart at e+1.
    """
    if m < 1:
        raise ValueError("prediction index m must be >= 1")
    if m == 1:
        return Prediction(_degree(v_e1), v_e1.leading)
    kind = classification.kind
    if kind is Stability.STABLE:
        return Prediction(_degree(v_e1) + 3 * (m - 1), v_e1.leading)
    if kind is Stability.SEMISTABLE:
        return Prediction(_degree(v_e) + 3 * m - 2, v_e.leading)
    # critical
    if classification.coeff_sum != 0:
        return Prediction(_degree(v_e1) + 3 * (m - 1), classification.coeff_sum)
    if v_e2 is None:
        raise ValueError("a critical pair with C = 0 needs V(e+2) to continue")
    gap = _degree(v_e2) - _degree(v_e1)
    if gap == 2:
        return Prediction(_degree(v_e1) + 3 * m - 4, v_e2.leading)
    if gap <= 0:
        if m == 2:
            return Prediction(_degree(v_e2), v_e2.leading)
        return Prediction(_degree(v_e1) + 3 * m - 5, v_e1.leading)
    if gap == 1:
        return RECLASSIFY
    raise ValueError("V(e+2) inconsistent with a C = 0 critical pair")


def order_bound_check(family: ExponentFamily, e: int, m: int) -> bool:
    """Two-sided extreme-exponent bounds along a family.

    Going up, the order of V(e+m) is at least min(ord V(e), ord V(e+1))
    plus m-1; going down, the degree of V(e-m) is at most
    max(deg V(e-1), deg V(e)) minus m-1. Both are checked.
    """
    if m < 2:
        raise ValueError("the propagation bounds start at m = 2")
    value = _values(family)
    up_floor = min(int(value(e).order), int(value(e + 1).order)) + (m - 1)
    up_ok = int(value(e + m).order) >= up_floor
    down_ceil = max(_degree(value(e - 1)), _degree(value(e))) - (m - 1)
    down_ok = _degree(value(e - m)) <= down_ceil
    return up_ok and down_ok


def _values(family: ExponentFamily) -> Callable[[int], LaurentPoly]:
    """``jones`` of the family's word at an exponent, cached: the unit window asks twice."""
    return functools.cache(lambda e: jones(family.instantiate(e)))


# -- closed forms -------------------------------------------------------


def two_strand_closed_form(exp: int) -> LaurentPoly:
    """Jones value of the closure of x1^exp on two strands.

    Small exponents come from the recurrence; for exp >= 4 the value is
    the alternating sum

        -s^(3a-1) + s^(3a-3) - ... +- s^(a+3)  plus  (-1)^(a+1) s^(a-1)

    and negative exponents are the mirror (variable inverted) of the
    positive ones.
    """
    if exp < 0:
        return two_strand_closed_form(-exp).inverse_variable()
    if exp <= 3:
        v0, v1 = LOOP_VALUE, ONE
        for _ in range(exp):
            v0, v1 = v1, step_up(v0, v1)
        return v0
    a = exp
    terms = [(3 * a - 1 - 2 * j, -1 if j % 2 == 0 else 1) for j in range(a - 1)]
    terms.append((a - 1, 1 if a % 2 else -1))
    return LaurentPoly(terms)


def alternating_word(length: int) -> BraidWord:
    """The 3-braid word x1 x2 x1 x2 ... with the given letter count."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return BraidWord(
        3, tuple(Syllable(1 if i % 2 == 0 else 2, 1) for i in range(length))
    )


_ALTERNATING_FORMULA_MAX = 29  # largest length the residue formulas are pinned at


def alternating_closed_form(length: int) -> LaurentPoly:
    """Jones value of the closure of the alternating word of this length.

    Six residue formulas mod 6 cover the values; they are asserted against
    the evaluator for lengths up to 29 in the test suite, and longer
    inputs fall back to the evaluator rather than extrapolating.
    """
    n = length
    if n < 0:
        raise ValueError("length must be >= 0")
    if n > _ALTERNATING_FORMULA_MAX:
        return jones(alternating_word(n))
    k, r = divmod(n, 6)
    if r == 0:
        terms = [(12 * k, 2), (6 * k + 2, 1), (6 * k - 2, 1)]
    elif r == 1:
        terms = [(12 * k + 3, 1), (12 * k + 1, -1), (6 * k + 3, -1), (6 * k - 1, -1)]
    elif r == 2:
        terms = [(12 * k + 4, -1), (6 * k + 4, 1), (6 * k, 1)]
    elif r == 3:
        terms = [(6 * k + 5, -1), (6 * k + 1, -1)]
    elif r == 4:
        terms = [(12 * k + 8, -1), (6 * k + 6, 1), (6 * k + 2, 1)]
    else:
        terms = [(12 * k + 11, -1), (12 * k + 9, 1), (6 * k + 7, -1), (6 * k + 3, -1)]
    return LaurentPoly(terms)


class RecurrenceReport(NamedTuple):
    """Outcome of the alternating-word recurrence audit."""

    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def alternating_recurrences_check(k_max: int) -> RecurrenceReport:
    """Verify the length-step identities of the alternating family.

    Odd lengths satisfy the plain two-term step from the two previous
    lengths; even lengths satisfy one of three period-six identities that
    step from smaller even and odd lengths.
    """
    v = alternating_closed_form
    s3s = LaurentPoly({3: 1, 1: -1})
    s4 = LaurentPoly.monomial(4)
    s7s5 = LaurentPoly({7: 1, 5: -1})
    s8 = LaurentPoly.monomial(8)
    s12 = LaurentPoly.monomial(12)
    failures: list[str] = []
    checked = 0
    limit = 6 * k_max + 5

    def expect(name: str, actual: LaurentPoly, predicted: LaurentPoly) -> None:
        nonlocal checked
        checked += 1
        if actual != predicted:
            failures.append(name)

    for n in range(3, limit + 1, 2):
        expect(f"odd step at {n}", v(n), s3s * v(n - 1) + s4 * v(n - 2))
    for k in range(0, k_max + 1):
        expect(
            f"step at {6 * k + 4}",
            v(6 * k + 4),
            s3s * v(6 * k + 3) + s4 * v(6 * k + 2),
        )
    for k in range(1, k_max + 1):
        expect(
            f"step at {6 * k + 2}",
            v(6 * k + 2),
            s3s * v(6 * k + 1) + s7s5 * v(6 * k - 1) + s8 * v(6 * k - 2),
        )
        expect(
            f"step at {6 * k}",
            v(6 * k),
            s3s * (v(6 * k - 1) + s4 * v(6 * k - 3) + s8 * v(6 * k - 5))
            + s12 * v(6 * k - 6),
        )
    return RecurrenceReport(checked, tuple(failures))


# -- degree census of alternating-syllable 3-braids ---------------------


def _alternating_syllable_word(exponents: Sequence[int]) -> BraidWord:
    return BraidWord(
        3,
        tuple(
            Syllable(1 if i % 2 == 0 else 2, a) for i, a in enumerate(exponents)
        ),
    )


class DegreeReport(NamedTuple):
    """Degree bound audit of one word x1^a1 x2^a2 ... with a_i >= 0."""

    exponents: tuple[int, ...]
    total: int  # sum of the exponents
    pairs: int  # half the syllable count
    zeros: int  # how many exponents vanish
    bound: int  # 3*total - 2*pairs + 2*zeros
    degree: int
    leading: int

    @property
    def bound_met(self) -> bool:
        return self.degree <= self.bound


def degree_audit(exponents: Sequence[int]) -> DegreeReport:
    """Check the syllable-count degree bound on one exponent vector."""
    exps = tuple(exponents)
    if not exps or len(exps) % 2:
        raise ValueError("need a nonempty even-length exponent vector")
    if any(a < 0 for a in exps):
        raise ValueError("the degree bound is for nonnegative exponents")
    value = jones(_alternating_syllable_word(exps))
    total = sum(exps)
    pairs = len(exps) // 2
    zeros = sum(1 for a in exps if a == 0)
    return DegreeReport(
        exponents=exps,
        total=total,
        pairs=pairs,
        zeros=zeros,
        bound=3 * total - 2 * pairs + 2 * zeros,
        degree=_degree(value),
        leading=value.leading,
    )


def _conjugate_closure(letters: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Positive 3-braid words reachable from ``letters`` by conjugation moves.

    Moves: cyclic rotation, the braid relation on any three-letter window,
    and the global half-twist flip x1 <-> x2. All preserve the conjugacy
    class of the braid and the word length.
    """
    start = tuple(letters)
    seen = {start}
    stack = [start]
    while stack:
        word = stack.pop()
        moves = [word[1:] + word[:1], tuple(3 - x for x in word)]
        for i in range(len(word) - 2):
            a, b, c = word[i : i + 3]
            if a == c and a != b:
                moves.append(word[:i] + (b, a, b) + word[i + 3 :])
        for move in moves:
            if move not in seen:
                seen.add(move)
                stack.append(move)
    return seen


def _letters_to_word(letters: Sequence[int]) -> BraidWord:
    return BraidWord(3, tuple(Syllable(g, 1) for g in letters))


def _letters_text(letters: Sequence[int]) -> str:
    if not letters:
        return "1"
    parts: list[tuple[int, int]] = []
    for g in letters:
        if parts and parts[-1][0] == g:
            parts[-1] = (g, parts[-1][1] + 1)
        else:
            parts.append((g, 1))
    return " ".join(f"x{g}" + (f"^{e}" if e > 1 else "") for g, e in parts)


class TableRow(NamedTuple):
    """One conjugacy class of {0,1}-exponent words of fixed syllable count.

    ``delta`` is the count of zero exponents, ``bits`` the largest member
    bit vector, ``word`` the least positive word of the class, ``count``
    the number of member bit vectors, ``leading`` the leading term of the
    shared Jones value and ``degree`` that term's exponent plus delta.
    The field ``count`` shadows the tuple method of that name.
    """

    delta: int
    bits: tuple[int, ...]
    word: str
    count: int
    leading: str
    degree: int


def leading_term_table(pairs: int) -> list[TableRow]:
    """Census of all words x1^j1 x2^j2 ... x2^j2L with bits j in {0,1}.

    Rows group bit vectors whose reduced positive words are conjugate;
    each row records the class size and the leading term of the common
    Jones value. Rows are sorted by descending delta, then by descending
    representative bit vector.
    """
    if pairs < 1:
        raise ValueError("need at least one syllable pair")
    if pairs > CENSUS_PAIRS_CAP:
        raise CapExceeded(f"4^{pairs} bit vectors exceed the cap of 4^{CENSUS_PAIRS_CAP}")
    # the moves are invertible, so one closure is a whole class: every
    # member maps to its least word and no member is closed over again
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    groups: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    for bits in itertools.product((0, 1), repeat=2 * pairs):
        letters = tuple(
            1 if i % 2 == 0 else 2 for i, b in enumerate(bits) if b
        )
        canon = least.get(letters)
        if canon is None:
            members = _conjugate_closure(letters)
            canon = min(members)
            least.update(dict.fromkeys(members, canon))
        delta = 2 * pairs - sum(bits)
        groups.setdefault((delta, canon), []).append(bits)
    rows: list[TableRow] = []
    for (delta, canon), members in groups.items():
        value = jones(_letters_to_word(canon))
        lead = LaurentPoly.monomial(_degree(value), value.leading)
        rows.append(
            TableRow(
                delta=delta,
                bits=max(members),
                word=_letters_text(canon),
                count=len(members),
                leading=lead.text(),
                degree=delta + _degree(value),
            )
        )
    rows.sort(key=lambda r: (-r.delta, tuple(-b for b in r.bits)))
    return rows


class ScanReport(NamedTuple):
    """Sampled check of the generic leading term s^(3D - 2L)."""

    pairs: int
    checked: int
    mismatches: tuple[tuple[tuple[int, ...], str], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def leading_term_scan(
    pairs: int,
    samples: int,
    exp_max: int = 4,
    seed: int = 0,
) -> ScanReport:
    """Sample exponent vectors with entries >= 2 and test the leading term.

    The expectation is a leading term of exactly +s^(3D - 2L). Verified
    for up to four syllable pairs; for more pairs this is exploratory, so
    mismatches are reported rather than raised.
    """
    if exp_max < 2:
        raise ValueError("entries below 2 are outside the scan's scope")
    rng = random.Random(seed)
    mismatches: list[tuple[tuple[int, ...], str]] = []
    for _ in range(samples):
        exps = tuple(rng.randint(2, exp_max) for _ in range(2 * pairs))
        value = jones(_alternating_syllable_word(exps))
        expected_deg = 3 * sum(exps) - 2 * pairs
        if _degree(value) != expected_deg or value.leading != 1:
            lead = LaurentPoly.monomial(_degree(value), value.leading)
            mismatches.append((exps, lead.text()))
    return ScanReport(pairs, samples, tuple(mismatches))


# -- units along a family ------------------------------------------------


class UnitWindow(NamedTuple):
    """Exponent window outside which a family value can never be 1.

    Above the window the order certificate pins two consecutive values of
    positive order, which propagates; below it the degree certificate pins
    two consecutive values of negative degree, which propagates downward.
    """

    lo: int
    hi: int
    order_anchor: tuple[int, int, int]  # (e, ord V(e), ord V(e+1)), both >= 1
    degree_anchor: tuple[int, int, int]  # (e, deg V(e), deg V(e-1)), both <= -1


class UnitSearchResult(NamedTuple):
    window: UnitWindow
    hits: tuple[int, ...]


_SCAN_LIMIT = 200


def unit_window(family: ExponentFamily) -> UnitWindow:
    """Certified finite window containing every possible unit exponent."""
    return _scan_window(_values(family))


def _scan_window(value: Callable[[int], LaurentPoly]) -> UnitWindow:
    e = 0
    while True:
        lo_ord = int(value(e).order)
        hi_ord = int(value(e + 1).order)
        if lo_ord >= 1 and hi_ord >= 1:
            upper = (e, lo_ord, hi_ord)
            hi = e - 1
            break
        e += 1
        if e > _SCAN_LIMIT:
            raise RuntimeError("order growth not reached within the scan limit")
    e = 0
    while True:
        hi_deg = _degree(value(e))
        lo_deg = _degree(value(e - 1))
        if hi_deg <= -1 and lo_deg <= -1:
            lower = (e, hi_deg, lo_deg)
            lo = e + 1
            break
        e -= 1
        if e < -_SCAN_LIMIT:
            raise RuntimeError("degree decay not reached within the scan limit")
    return UnitWindow(lo=lo, hi=hi, order_anchor=upper, degree_anchor=lower)


def unit_search(family: ExponentFamily) -> UnitSearchResult:
    """All exponents where the family value is exactly 1.

    Sweeps the certified window and verifies the structural constraints:
    at most two unit exponents, and when there are two they differ by
    exactly 2. A violation raises InvariantViolation.
    """
    value = _values(family)
    window = _scan_window(value)
    hits = tuple(e for e in range(window.lo, window.hi + 1) if value(e) == ONE)
    if len(hits) > 2:
        raise InvariantViolation(
            f"family {family.text()} has {len(hits)} unit values at {hits}"
        )
    if len(hits) == 2 and hits[1] - hits[0] != 2:
        raise InvariantViolation(
            f"family {family.text()} has unit values spaced "
            f"{hits[1] - hits[0]} apart at {hits}"
        )
    return UnitSearchResult(window, hits)
