"""Recurrence engine: skein steps, expansion, memoized evaluation."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidjones.braid import BraidWord, Syllable, parse_braid, parse_family
from braidjones.bracket import jones_via_bracket
from braidjones.engine import (
    SKEIN_SPEC,
    FamilySweep,
    GeneratingFunction,
    expand,
    expansion_value,
    family_values,
    jones,
    skein_weights,
    square_free_value,
    step_down,
    step_up,
    unlink_value,
)
from braidjones.fibonacci import s_basis
from braidjones.laurent import LaurentPoly
from .helpers import DESTABILIZATION_CHAIN, SPLIT_CHAIN, random_word

V = LaurentPoly.parse
S2P1 = V("s^2 + 1")

small_polys = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-6, 6)), max_size=4
).map(LaurentPoly)


class TestSteps:
    def test_two_strand_seed_values(self):
        fam = parse_family("B2: x1^@")
        assert jones(fam.instantiate(0)) == V("-s - s^-1")
        assert jones(fam.instantiate(1)) == V("1")
        assert jones(fam.instantiate(-1)) == V("1")

    def test_step_up_matches_direct(self):
        fam = parse_family("B2: x1^@")
        v0, v1 = jones(fam.instantiate(0)), jones(fam.instantiate(1))
        assert step_up(v0, v1) == jones(fam.instantiate(2))
        assert step_up(v1, step_up(v0, v1)) == jones(fam.instantiate(3))

    @given(small_polys, small_polys)
    def test_step_down_inverts_step_up(self, a, b):
        assert step_down(b, step_up(a, b)) == a
        assert step_up(step_down(a, b), a) == b

    @given(st.integers(min_value=-8, max_value=8))
    def test_weights_solve_recurrence(self, a):
        w0, w1 = skein_weights(a)
        n0, n1 = skein_weights(a + 1)
        m0, m1 = skein_weights(a + 2)
        assert m0 == step_up(w0, n0)
        assert m1 == step_up(w1, n1)

    def test_weight_seeds(self):
        assert skein_weights(0) == (S2P1, LaurentPoly())
        assert skein_weights(1) == (LaurentPoly(), S2P1)

    @given(st.integers(min_value=-5, max_value=8))
    def test_weights_are_scaled_basis(self, a):
        # the D-scaled basis pair equals s times the weight pair
        s = LaurentPoly.monomial(1)
        s0, s1 = s_basis(SKEIN_SPEC, a)
        w0, w1 = skein_weights(a)
        assert s0 == s * w0
        assert s1 == s * w1


class TestClosedForms:
    def test_unlink_values(self):
        assert unlink_value(1) == V("1")
        assert unlink_value(2) == V("-s - s^-1")
        assert unlink_value(3) == V("s^2 + 2 + s^-2")
        with pytest.raises(ValueError):
            unlink_value(0)

    def test_square_free_values(self):
        for strands in range(2, 7):
            for k in range(0, strands):
                word = BraidWord(
                    strands, tuple(Syllable(g, 1) for g in range(1, k + 1))
                )
                assert jones(word) == square_free_value(strands, k)
        with pytest.raises(ValueError):
            square_free_value(3, 3)


class TestExpansion:
    def test_term_count_drops_dead_branches(self):
        # exponent-1 syllables only contribute through their bit-1 branch
        word = parse_braid("B3: x1^3 x2 x1^2")
        terms = expand(word)
        assert len(terms) == 4  # 2^3 halved by the middle syllable
        assert all(t.bits[1] == 1 for t in terms)

    def test_bases_have_unit_exponents(self):
        word = parse_braid("B3: x1^3 x2^-2 x1^4 x2")
        for term in expand(word):
            assert all(s.exp == 1 for s in term.base.syllables)

    def test_expansion_equals_engine_exhaustive(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                word = parse_braid(f"B3: x1^{a} x2^{b}")
                assert expansion_value(word) == jones(word)

    def test_expansion_equals_engine_random(self):
        rng = random.Random(11)
        for _ in range(60):
            word = random_word(rng, 4, max_syllables=5, max_abs_exp=4)
            assert expansion_value(word) == jones(word), word.text()

    def test_expansion_equals_engine_large_quartic(self):
        word = parse_braid("B3: x1^1003 x2^-998 x1^1001 x2^995")
        assert expansion_value(word, {}) == jones(word, {})


class TestEngine:
    def test_agrees_with_oracle_exhaustive_b2(self):
        for a in range(-6, 7):
            word = parse_braid(f"B2: x1^{a}")
            assert jones(word) == jones_via_bracket(word)

    def test_agrees_with_oracle_random(self):
        rng = random.Random(12)
        for strands in (3, 4, 5):
            for _ in range(25):
                word = random_word(rng, strands, max_syllables=4, max_abs_exp=3)
                assert jones(word) == jones_via_bracket(word), word.text()

    def test_rotation_invariance(self):
        rng = random.Random(13)
        for _ in range(20):
            word = random_word(rng, 4, max_syllables=4, max_abs_exp=3)
            for k in range(len(word.syllables)):
                assert jones(word.rotated(k)) == jones(word)

    def test_long_destabilization_chain(self):
        assert jones(parse_braid(DESTABILIZATION_CHAIN), {}) == V("1")

    def test_long_split_chain(self):
        assert jones(parse_braid(SPLIT_CHAIN), {}) == unlink_value(600)

    def test_memo_isolation(self):
        memo = {}
        word = parse_braid("B3: x1^2 x2^2")
        value = jones(word, memo)
        assert memo  # private table actually used
        assert jones(word, memo) == value
        assert jones(word, {}) == value

    def test_mirror_symmetry(self):
        # reversing all crossings inverts the variable
        rng = random.Random(14)
        for _ in range(20):
            word = random_word(rng, 3, max_syllables=4, max_abs_exp=3)
            mirror = BraidWord(
                word.strands,
                tuple(Syllable(s.gen, -s.exp) for s in word.syllables),
            )
            assert jones(mirror) == jones(word).inverse_variable()


class TestFamilySweep:
    def test_matches_direct_evaluation(self):
        fam = parse_family("B3: x1^@ x2 x1^3 x2")
        sweep = FamilySweep(fam, memo={})
        for e in range(-4, 7):
            assert sweep[e] == jones(fam.instantiate(e)), e

    def test_family_values_range(self):
        fam = parse_family("B2: x1^@")
        values = family_values(fam, -2, 3)
        assert values == [jones(fam.instantiate(e)) for e in range(-2, 4)]
        with pytest.raises(ValueError):
            family_values(fam, 2, 1)

    def test_two_sided_consistency(self):
        fam = parse_family("B3: x2^@ x1^2 x2 x1")
        sweep = FamilySweep(fam, memo={})
        hi = sweep[5]   # extend up first
        lo = sweep[-5]  # then down
        assert hi == jones(fam.instantiate(5))
        assert lo == jones(fam.instantiate(-5))


class TestGeneratingFunction:
    def test_single_variable_coefficients(self):
        gf = GeneratingFunction.build(2, (1,), memo={})
        fam = parse_family("B2: x1^@")
        for a in range(0, 9):
            assert gf.coefficient((a,)) == jones(fam.instantiate(a)), a

    def test_grid_coefficients(self):
        gf = GeneratingFunction.build(3, (1, 2, 1, 2), memo={})
        for exps in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 2, 1), (3, 0, 2, 2), (1, 3, 1, 3)]:
            word = BraidWord(
                3, tuple(Syllable(g, a) for g, a in zip((1, 2, 1, 2), exps))
            )
            assert gf.coefficient(exps) == jones(word), exps

    def test_cone_restrictions(self):
        gf = GeneratingFunction.build(2, (1,), memo={})
        with pytest.raises(ValueError):
            gf.coefficient((-1,))
        with pytest.raises(ValueError):
            gf.coefficient((1, 2))
        with pytest.raises(ValueError):
            GeneratingFunction.build(3, ())
