"""Braid words: parsing, normalization, closure combinatorics."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidjones import analysis, engine, selftest
from braidjones.braid import (
    BoundsError,
    BraidWord,
    ExponentFamily,
    ParseError,
    Syllable,
    parse_braid,
    parse_family,
    reduce_cyclic,
)
from braidjones.fibonacci import FibSpec
from braidjones.laurent import LaurentPoly
from .helpers import random_word


def words(strands: int = 3):
    syllable = st.tuples(
        st.integers(min_value=1, max_value=strands - 1),
        st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
    )
    return st.lists(syllable, min_size=0, max_size=6).map(
        lambda syls: BraidWord(strands, tuple(Syllable(g, e) for g, e in syls))
    )


class TestParse:
    def test_basic(self):
        w = parse_braid("B3: x1^2 x2 x1^-1")
        assert w.strands == 3
        assert [(s.gen, s.exp) for s in w.syllables] == [(1, 2), (2, 1), (1, -1)]

    def test_text_round_trip(self):
        for text in ["B2: x1^5", "B3: x1 x2 x1 x2", "B4: x3^-2 x1"]:
            assert parse_braid(parse_braid(text).text()) == parse_braid(text)

    def test_empty_word(self):
        w = parse_braid("B3:")
        assert w.syllables == ()
        assert w.components() == 3

    def test_parse_errors(self):
        for bad in ["x1 x2", "B3 x1", "B3: y1", "B3: x1^", "B3: x1^@"]:
            with pytest.raises(ParseError):
                parse_braid(bad)

    def test_generator_bounds(self):
        with pytest.raises(BoundsError):
            parse_braid("B3: x3")
        with pytest.raises(BoundsError):
            parse_braid("B2: x0")
        with pytest.raises(BoundsError):
            BraidWord(1, (Syllable(1, 1),))

    def test_family_parse(self):
        fam = parse_family("B3: x1^@ x2 x1^3 x2")
        assert fam.slot == 0
        assert fam.instantiate(5).syllables[0] == Syllable(1, 5)
        assert fam.text() == "B3: x1^@ x2 x1^3 x2"

    def test_family_needs_exactly_one_slot(self):
        with pytest.raises(ParseError):
            parse_family("B3: x1 x2")
        with pytest.raises(ParseError):
            parse_family("B3: x1^@ x2^@")


def is_rotation(a: list, b: list) -> bool:
    return len(a) == len(b) and (not a or any(a[i:] + a[:i] == b for i in range(len(a))))


class TestCombinatorics:
    def test_writhe_and_crossings(self):
        w = parse_braid("B3: x1^2 x2^-3")
        assert w.writhe() == -1
        assert w.crossing_count() == 5

    def test_permutation_and_components(self):
        assert parse_braid("B3: x1 x2").permutation() == (2, 0, 1)
        assert parse_braid("B3: x1 x2").components() == 1
        assert parse_braid("B3: x1^2").components() == 3
        assert parse_braid("B2: x1^2").components() == 2
        assert parse_braid("B2: x1^3").components() == 1

    def test_permutation_ignores_exponent_sign(self):
        assert parse_braid("B3: x1^-1 x2^3").permutation() == parse_braid(
            "B3: x1 x2"
        ).permutation()

    def test_reduce_cyclic_merges_and_drops(self):
        w = parse_braid("B3: x1 x1 x2^0 x2 x2^-1")
        assert reduce_cyclic(w.syllables) == [(1, 2)]

    def test_reduce_cyclic_wraparound(self):
        # cyclic closure merges the last syllable into the first
        w = parse_braid("B3: x1 x2 x1")
        assert reduce_cyclic(w.syllables) == [(1, 2), (2, 1)]

    def test_fixture_merge(self):
        # the wrap-around merge reduces these conjugates to rotations of one word
        a = reduce_cyclic(parse_braid("B3: x2 x1^2 x2").syllables)
        b = reduce_cyclic(parse_braid("B3: x1^2 x2^2").syllables)
        assert a == [(2, 2), (1, 2)] and is_rotation(a, b)

    def test_fixture_no_merge(self):
        # alternating generators leave nothing to merge
        w = parse_braid("B3: x1 x2 x1 x2^2")
        assert len(reduce_cyclic(w.syllables)) == 4

    def test_rotated(self):
        w = parse_braid("B3: x1 x2 x1^3")
        assert w.rotated(1).text() == "B3: x2 x1^3 x1"
        assert w.rotated(3) == w
        assert w.rotated(-1) == w.rotated(2)

    def test_with_exponent(self):
        w = parse_braid("B3: x1^2 x2")
        assert w.with_exponent(0, 7).text() == "B3: x1^7 x2"


class TestProperties:
    @given(words())
    def test_reduce_cyclic_idempotent(self, w):
        once = reduce_cyclic(w.syllables)
        assert reduce_cyclic(once) == once

    @given(words(), st.integers(min_value=-6, max_value=6))
    def test_rotation_preserves_invariants(self, w, k):
        r = w.rotated(k)
        assert r.writhe() == w.writhe()
        assert r.crossing_count() == w.crossing_count()
        assert r.components() == w.components()
        assert is_rotation(reduce_cyclic(r.syllables), reduce_cyclic(w.syllables))

    @given(words())
    def test_writhe_equals_exponent_sum(self, w):
        assert w.writhe() == sum(s.exp for s in w.syllables)

    @given(words(strands=4))
    def test_components_bounded_by_strands(self, w):
        assert 1 <= w.components() <= 4

    def test_random_words_respect_shape(self):
        rng = random.Random(7)
        for _ in range(50):
            w = random_word(rng, 4, max_syllables=5, max_abs_exp=3)
            assert w.strands == 4
            assert 1 <= len(w.syllables) <= 5
            assert all(1 <= s.gen <= 3 and 0 < abs(s.exp) <= 3 for s in w.syllables)


# Two separately built equal instances of every value class of the package,
# and one of its fields.
VALUE_CLASSES = {
    "Syllable": (lambda: Syllable(1, 2), "gen"),
    "BraidWord": (lambda: parse_braid("B3: x1^2 x2^-1"), "strands"),
    "ExponentFamily": (lambda: parse_family("B3: x1^@ x2"), "slot"),
    "FibSpec": (lambda: FibSpec(LaurentPoly.monomial(1, -1), LaurentPoly.monomial(3)), "r1"),
    "ExpansionTerm": (lambda: engine.expand(parse_braid("B2: x1^2"))[0], "weight"),
    "GeneratingFunction": (lambda: engine.GeneratingFunction.build(2, (1,)), "seeds"),
    "Classification": (
        lambda: analysis.classify_pair(LaurentPoly.monomial(1), LaurentPoly.monomial(4)),
        "kind",
    ),
    "Prediction": (lambda: analysis.Prediction(4, -1), "degree"),
    "RecurrenceReport": (lambda: analysis.alternating_recurrences_check(1), "checked"),
    "DegreeReport": (lambda: analysis.degree_audit((3, 1, 3, 1)), "bound"),
    "TableRow": (lambda: analysis.leading_term_table(1)[0], "count"),
    "ScanReport": (lambda: analysis.leading_term_scan(1, 3), "mismatches"),
    "UnitWindow": (lambda: analysis.unit_search(parse_family("B2: x1^@")).window, "lo"),
    "UnitSearchResult": (lambda: analysis.unit_search(parse_family("B2: x1^@")), "hits"),
    "CheckResult": (lambda: selftest.CheckResult("name", True, "detail"), "ok"),
}


class TestValueClasses:
    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_immutable(self, name):
        make, field = VALUE_CLASSES[name]
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_equal_values_hash_equal(self, name):
        make, _ = VALUE_CLASSES[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if name == "GeneratingFunction":
            return  # its seeds are a dict, so it never hashed
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_repr_unchanged(self):
        assert repr(Syllable(1, 2)) == "Syllable(gen=1, exp=2)"
        assert repr(parse_braid("B3: x1^2 x2^-1")) == (
            "BraidWord(strands=3, syllables=(Syllable(gen=1, exp=2), "
            "Syllable(gen=2, exp=-1)))"
        )
        assert repr(BraidWord(2)) == "BraidWord(strands=2, syllables=())"

    def test_validation_kept(self):
        with pytest.raises(BoundsError):
            BraidWord(0)
        with pytest.raises(BoundsError):
            ExponentFamily(parse_braid("B3: x1 x2"), 2)
        with pytest.raises(ValueError, match="distinct"):
            FibSpec(2, 2)

    def test_fib_spec_derived_fields(self):
        spec = FibSpec(2, -3)
        assert (spec.beta, spec.gamma, spec.diff) == (-1, 6, -5)
        assert spec != FibSpec(-3, 2)
        assert repr(spec) == "FibSpec(r1=2, r2=-3)"

    def test_recurrence_report_truth(self):
        assert analysis.alternating_recurrences_check(1)
        assert not analysis.RecurrenceReport(3, ("odd step at 5",))
