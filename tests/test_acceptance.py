"""Acceptance gate: thirteen checks, one printed verdict line each.

Every expected value below is either a pinned constant that the
independent state-sum oracle reproduces, or is recomputed inside the
check from two unrelated routes. All comparisons are exact equality of
integer-coefficient polynomials; there is no tolerance anywhere. Run
with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""
from __future__ import annotations

import contextlib
import itertools
import random
import time

from braidjones.analysis import (
    RECLASSIFY,
    alternating_closed_form,
    alternating_word,
    classify_pair,
    degree_audit,
    leading_term_scan,
    leading_term_table,
    order_bound_check,
    predict_degrees,
    two_strand_closed_form,
    unit_search,
)
from braidjones.braid import BraidWord, ExponentFamily, Syllable, parse_braid, parse_family
from braidjones.bracket import bracket_naive, jones_from_bracket, jones_via_bracket
from braidjones.engine import (
    SKEIN_SPEC,
    GeneratingFunction,
    expand,
    expansion_value,
    jones,
    skein_weights,
)
from braidjones.fibonacci import FibSpec, s_basis
from braidjones.laurent import LaurentPoly
from .helpers import random_family, random_word

V = LaurentPoly.parse


@contextlib.contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL {title}")
        raise
    print(f"criterion {number:02d} PASS {title}")


def both_routes(word: BraidWord) -> LaurentPoly:
    value = jones(word)
    assert jones_via_bracket(word) == value, word.text()
    return value


def test_criterion_01_two_strand_seeds():
    with verdict(1, "two-strand seed values match on both routes"):
        fam = parse_family("B2: x1^@")
        assert both_routes(fam.instantiate(0)) == V("-s - s^-1")
        assert both_routes(fam.instantiate(1)) == V("1")
        assert both_routes(fam.instantiate(-1)) == V("1")


def test_criterion_02_alternating_base_values():
    with verdict(2, "first six alternating closure values match on both routes"):
        pinned = [
            "s^2 + 2 + s^-2",
            "-s - s^-1",
            "1",
            "-s^5 - s",
            "-s^8 + s^6 + s^2",
            "-s^11 + s^9 - s^7 - s^3",
        ]
        for n, text in enumerate(pinned):
            assert both_routes(alternating_word(n)) == V(text), n


def test_criterion_03_alternating_residue_formulas():
    with verdict(3, "six residue closed forms equal the engine for lengths 0..29"):
        start = time.perf_counter()
        for n in range(30):
            assert alternating_closed_form(n) == jones(alternating_word(n)), n
        assert time.perf_counter() - start < 10.0


def test_criterion_04_two_strand_closed_form():
    with verdict(4, "two-strand closed form and its mirror symmetry on [-8, 8]"):
        fam = parse_family("B2: x1^@")
        for a in range(-8, 9):
            assert two_strand_closed_form(a) == jones(fam.instantiate(a)), a
            assert (
                two_strand_closed_form(-a)
                == two_strand_closed_form(a).inverse_variable()
            ), a


def test_criterion_05_product_rule():
    with verdict(5, "split-syllable product rule, random and exhaustive"):
        rng = random.Random(105)
        for _ in range(50):
            alpha = random_word(rng, 3, max_syllables=3, max_abs_exp=3)
            beta = random_word(rng, 3, max_syllables=3, max_abs_exp=3)
            k = rng.randint(-3, 3)
            joined = BraidWord(
                4, alpha.syllables + (Syllable(3, k),) + beta.syllables
            )
            flat = BraidWord(3, alpha.syllables + beta.syllables)
            assert jones(joined) == jones(flat) * two_strand_closed_form(k)
        for a1 in range(-4, 5):
            for a2 in range(-4, 5):
                word = parse_braid(f"B3: x1^{a1} x2^{a2}")
                assert jones(word) == two_strand_closed_form(
                    a1
                ) * two_strand_closed_form(a2), (a1, a2)


def test_criterion_06_engine_equals_oracle():
    with verdict(6, "recurrence engine equals the state-sum oracle, zero mismatches"):
        for a in range(-12, 13):
            both_routes(parse_braid(f"B2: x1^{a}"))
        exps = [e for e in range(-3, 4) if e != 0]
        for count in range(1, 5):
            for start in (1, 2):
                gens = [1 + (start + i) % 2 for i in range(count)]
                for vector in itertools.product(exps, repeat=count):
                    word = BraidWord(
                        3, tuple(Syllable(g, a) for g, a in zip(gens, vector))
                    )
                    both_routes(word)
        rng = random.Random(106)
        for strands in (4, 5):
            for _ in range(50):
                both_routes(random_word(rng, strands, max_syllables=4, max_abs_exp=3))


def test_criterion_07_expansion_identity():
    with verdict(7, "2^k corner expansion equals the engine; division always exact"):
        rng = random.Random(107)
        for _ in range(100):
            strands = rng.choice((3, 4))
            word = random_word(rng, strands, max_syllables=6, max_abs_exp=3)
            assert expansion_value(word) == jones(word), word.text()


def test_criterion_08_generating_functions():
    with verdict(8, "series coefficients, integer instance, and basis identity"):
        grids = [(2, (1,)), (3, (1, 2)), (3, (1, 2, 1))]
        for strands, indices in grids:
            gf = GeneratingFunction.build(strands, indices)
            for vector in itertools.product(range(4), repeat=len(indices)):
                word = BraidWord(
                    strands,
                    tuple(Syllable(g, a) for g, a in zip(indices, vector)),
                )
                assert gf.coefficient(vector) == jones(word), (indices, vector)
        mersenne = FibSpec(1, 2)
        prev, cur = 0, 1
        for n in range(21):
            assert prev == 2**n - 1, n
            prev, cur = cur, mersenne.step(prev, cur)
        s = LaurentPoly.monomial(1)
        for a in range(-5, 9):
            s0, s1 = s_basis(SKEIN_SPEC, a)
            w0, w1 = skein_weights(a)
            assert (s0, s1) == (s * w0, s * w1), a


def test_criterion_09_degree_bounds():
    with verdict(9, "degree bounds exhaustive for three pairs; equality on samples"):
        for pairs in (1, 2, 3):
            for vector in itertools.product(range(5), repeat=2 * pairs):
                report = degree_audit(vector)
                assert report.bound_met, vector
                if all(a >= 1 for a in vector):
                    assert report.degree <= 3 * report.total - 2 * report.pairs, vector
        for pairs in (1, 2, 3, 4):
            scan = leading_term_scan(pairs, samples=25, exp_max=4, seed=pairs)
            assert scan.ok, scan.mismatches


TABLE_TWO = [
    (4, "1", 1, "s^2", 6),
    (3, "x1", 4, "-s", 4),
    (2, "x1 x2", 4, "1", 2),
    (2, "x1^2", 2, "s^6", 8),
    (1, "x1^2 x2", 4, "-s^5", 6),
    (0, "x1^3 x2", 1, "-s^8", 8),
]

TABLE_THREE = [
    (6, "1", 1, "s^2", 8),
    (5, "x1", 6, "-s", 6),
    (4, "x1 x2", 9, "1", 4),
    (4, "x1^2", 6, "s^6", 10),
    (3, "x1^2 x2", 18, "-s^5", 8),
    (3, "x1^3", 2, "s^9", 12),
    (2, "x1^3 x2", 12, "-s^8", 10),
    (2, "x1^2 x2^2", 3, "s^10", 12),
    (1, "x1^4 x2", 6, "-s^11", 12),
    (0, "x1^2 x2 x1^2 x2", 1, "2s^12", 12),
]

TABLE_FOUR = [
    (8, "1", 1, "s^2", 10),
    (7, "x1", 8, "-s", 8),
    (6, "x1 x2", 16, "1", 6),
    (6, "x1^2", 12, "s^6", 12),
    (5, "x1^2 x2", 48, "-s^5", 10),
    (5, "x1^3", 8, "s^9", 14),
    # counts 52/16 fixed by the per-word value census inside criterion 10;
    # the values differ, so no conjugacy grouping can move words between rows
    (4, "x1^3 x2", 52, "-s^8", 12),
    (4, "x1^2 x2^2", 16, "s^10", 14),
    (4, "x1^4", 2, "s^12", 16),
    (3, "x1^4 x2", 48, "-s^11", 14),
    (3, "x1^3 x2^2", 8, "s^13", 16),
    (2, "x1^2 x2 x1^2 x2", 12, "2s^12", 14),
    (2, "x1^5 x2", 16, "-s^14", 16),
    (1, "x1^3 x2 x1^2 x2", 8, "s^15", 16),
    (0, "x1^3 x2 x1^3 x2", 1, "-s^16", 16),
]


def quartic(a1: int, a2: int, a3: int, a4: int) -> BraidWord:
    return parse_braid(f"B3: x1^{a1} x2^{a2} x1^{a3} x2^{a4}")


def assert_leading(word: BraidWord, degree: int, coeff: int, oracle: bool = False):
    value = jones(word)
    assert (int(value.degree), value.leading) == (degree, coeff), word.text()
    if oracle:
        assert jones_via_bracket(word) == value, word.text()


def test_criterion_10_leading_term_tables():
    with verdict(10, "census tables and the quartic-family leading-term rows"):
        for pairs, pinned in ((2, TABLE_TWO), (3, TABLE_THREE), (4, TABLE_FOUR)):
            rows = leading_term_table(pairs)
            flat = [(r.delta, r.word, r.count, r.leading, r.degree) for r in rows]
            assert flat == pinned, pairs
            assert sum(r.count for r in rows) == 4**pairs
        # ground the delta=4 counts of the four-pair table: group all 70
        # four-letter bit vectors by exact value, on both routes
        census: dict[str, int] = {}
        for bits in itertools.product((0, 1), repeat=8):
            if sum(bits) != 4:
                continue
            word = BraidWord(3, tuple(
                Syllable(1 if i % 2 == 0 else 2, 1)
                for i, bit in enumerate(bits) if bit
            ))
            value = both_routes(word)
            census[value.text()] = census.get(value.text(), 0) + 1
        assert census == {
            "-s^8 + s^6 + s^2": 52,
            "s^10 + 2s^6 + s^2": 16,
            "s^12 + s^6 + s^4 + s^2": 2,
        }
        # row family (1, 1, a3, a4): leading term -s^(3D-4)
        for a3 in range(1, 9):
            for a4 in (1, 2, 4):
                d = 2 + a3 + a4
                assert_leading(quartic(1, 1, a3, a4), 3 * d - 4, -1)
        # row family (a1, 1, 2, 1): coefficient 2 at the critical start
        assert jones(quartic(2, 1, 2, 1)) == V("2s^12 + s^8 + s^4")
        for a1 in range(2, 9):
            d = a1 + 4
            assert_leading(quartic(a1, 1, 2, 1), 3 * d - 6, 2 if a1 == 2 else 1)
        # row family (a1, 1, 3, 1): two pinned critical entries, then the
        # propagated tail -s^(3D-10); the tail is re-checked on the oracle
        assert jones(quartic(3, 1, 3, 1)) == V("-s^16 + s^10 + s^6")
        assert jones(quartic(4, 1, 3, 1)) == V("-s^11 - s^7")
        for a1 in range(5, 9):
            d = a1 + 5
            assert_leading(quartic(a1, 1, 3, 1), 3 * d - 10, -1, oracle=True)
        # row family (a1, 1, a3, 1), both middle exponents large: s^(3D-8)
        for a1 in range(4, 9):
            for a3 in (4, 5, 7):
                d = a1 + a3 + 2
                assert_leading(quartic(a1, 1, a3, 1), 3 * d - 8, 1)
        # row family (a1, 1, 3, 2): -s^(3D-6)
        for a1 in range(3, 9):
            d = a1 + 6
            assert_leading(quartic(a1, 1, 3, 2), 3 * d - 6, -1)
        # row family (a1, 1, a3, a4) with a1, a3, a4 >= 3: -s^(3D-6)
        for a1 in range(3, 9):
            for a3, a4 in ((3, 3), (4, 3), (3, 4)):
                d = a1 + 1 + a3 + a4
                assert_leading(quartic(a1, 1, a3, a4), 3 * d - 6, -1)
        # generic row, all exponents >= 2: +s^(3D-4)
        for a1 in range(2, 9):
            for rest in ((2, 2, 2), (3, 2, 4), (2, 3, 2)):
                d = a1 + sum(rest)
                assert_leading(quartic(a1, *rest), 3 * d - 4, 1)
        # conjugation reductions tying the rows together
        for a3 in range(1, 7):
            for a4 in range(1, 7):
                assert jones(quartic(2, 1, a3, a4)) == jones(
                    quartic(a3, 1, a4 + 1, 1)
                )
        for a1 in range(1, 7):
            for a4 in range(1, 7):
                assert jones(quartic(a1, 1, 2, a4)) == jones(
                    quartic(a1, 1, a4 + 1, 1)
                )
        for a1 in range(3, 8):
            for a3 in range(4, 8):
                assert jones(quartic(a1, 1, a3, 2)) == jones(
                    quartic(3, 1, a1, a3 - 1)
                )


def check_propagation_window(fam: ExponentFamily, lo: int, hi: int) -> None:
    values = {e: jones(fam.instantiate(e)) for e in range(lo, hi + 3)}
    for e in range(lo, hi):
        classification = classify_pair(values[e], values[e + 1])
        for m in range(2, hi + 2 - e):
            prediction = predict_degrees(
                classification, values[e], values[e + 1], m, values[e + 2]
            )
            if prediction is RECLASSIFY:
                break
            actual = values[e + m]
            assert (prediction.degree, prediction.coeff) == (
                int(actual.degree),
                actual.leading,
            ), (fam.text(), e, m)


def test_criterion_11_propagation_rules():
    with verdict(11, "pair propagation, order bounds, eventual degree growth"):
        rng = random.Random(111)
        families = [parse_family("B2: x1^@"), parse_family("B3: x1^@ x2 x1^3 x2")]
        while len(families) < 25:
            families.append(
                random_family(rng, 3, max_syllables=4, max_abs_exp=3)
            )
        for fam in families:
            check_propagation_window(fam, -5, 5)
            for e in (-2, 0, 2):
                for m in (2, 3, 5):
                    assert order_bound_check(fam, e, m), (fam.text(), e, m)
            # eventual growth: degrees strictly increase past stable onset
            degrees = [int(jones(fam.instantiate(e)).degree) for e in range(-5, 11)]
            onset = next(
                i
                for i in range(len(degrees) - 1)
                if degrees[i + 1] - degrees[i] >= 2
                and all(b - a >= 2 for a, b in zip(degrees[i:], degrees[i + 1 :]))
            )
            tail = degrees[onset:]
            assert all(b > a for a, b in zip(tail, tail[1:])), fam.text()


def test_criterion_12_unit_values():
    with verdict(12, "unit exponents: pinned pair, random families, knot parity"):
        assert unit_search(parse_family("B2: x1^@")).hits == (-1, 1)
        rng = random.Random(112)
        for _ in range(50):
            fam = random_family(rng, 3, max_syllables=4, max_abs_exp=3)
            result = unit_search(fam)  # raises on any violation
            assert len(result.hits) <= 2
            if len(result.hits) == 2:
                assert result.hits[1] - result.hits[0] == 2
        for _ in range(200):
            fam = random_family(
                rng, rng.choice((3, 4)), max_syllables=4, max_abs_exp=3
            )
            e = rng.randint(-4, 4)
            first, second = fam.instantiate(e), fam.instantiate(e + 1)
            assert not (first.is_knot() and second.is_knot()), (fam.text(), e)
            at_one = (
                jones(first).evaluate(1),
                jones(second).evaluate(1),
            )
            assert at_one != (1, 1), (fam.text(), e)


def test_criterion_13_expansion_benchmark():
    with verdict(13, "large quartic word in under a second; 16 terms vs 2^60 states"):
        word = parse_braid("B3: x1^15 x2^15 x1^15 x2^15")
        assert word.crossing_count() == 60
        assert len(expand(word)) == 16
        start = time.perf_counter()
        value = jones(word)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        assert value == jones(word.canonical())
        small = parse_braid("B3: x1^3 x2^3 x1^3 x2^3")
        assert small.crossing_count() == 12
        assert jones_from_bracket(small, bracket_naive(small)) == jones(small)
