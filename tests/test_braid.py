"""Braid words: parsing, normalization, closure combinatorics."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidjones.braid import (
    BoundsError,
    BraidWord,
    ParseError,
    Syllable,
    parse_braid,
    parse_family,
)
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


class TestCombinatorics:
    def test_writhe_and_crossings(self):
        w = parse_braid("B3: x1^2 x2^-3")
        assert w.writhe() == -1
        assert w.crossing_count() == 5

    def test_permutation_and_components(self):
        assert parse_braid("B3: x1 x2").permutation() == (2, 0, 1)
        assert parse_braid("B3: x1 x2").components() == 1
        assert parse_braid("B3: x1 x2").is_knot()
        assert parse_braid("B3: x1^2").components() == 3
        assert parse_braid("B2: x1^2").components() == 2
        assert parse_braid("B2: x1^3").components() == 1

    def test_permutation_ignores_exponent_sign(self):
        assert parse_braid("B3: x1^-1 x2^3").permutation() == parse_braid(
            "B3: x1 x2"
        ).permutation()

    def test_canonical_merges_and_drops(self):
        w = parse_braid("B3: x1 x1 x2^0 x2 x2^-1")
        c = w.canonical()
        assert [(s.gen, s.exp) for s in c.syllables] == [(1, 2)]

    def test_canonical_wraparound(self):
        # cyclic closure merges the last syllable into the first
        w = parse_braid("B3: x1 x2 x1")
        assert [(s.gen, s.exp) for s in w.canonical().syllables] == [(1, 2), (2, 1)]

    def test_fixture_merge(self):
        # wrap-around merge makes these the same closure representative
        a = parse_braid("B3: x2 x1^2 x2").canonical()
        b = parse_braid("B3: x1^2 x2^2").canonical()
        assert a == b

    def test_fixture_no_merge(self):
        # alternating generators leave nothing to merge
        w = parse_braid("B3: x1 x2 x1 x2^2").canonical()
        assert len(w.syllables) == 4

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
    def test_canonical_idempotent(self, w):
        assert w.canonical().canonical() == w.canonical()

    @given(words(), st.integers(min_value=-6, max_value=6))
    def test_rotation_preserves_invariants(self, w, k):
        r = w.rotated(k)
        assert r.writhe() == w.writhe()
        assert r.crossing_count() == w.crossing_count()
        assert r.components() == w.components()
        assert r.canonical() == w.canonical()

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
