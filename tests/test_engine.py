"""Recurrence engine: skein steps, expansion, transfer evaluation."""
from __future__ import annotations

import ast
import inspect
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidjones import bracket, engine, laurent
from braidjones.braid import (
    BraidWord,
    CapExceeded,
    Syllable,
    parse_braid,
    parse_family,
)
from braidjones.bracket import jones_via_bracket
from braidjones.engine import (
    SKEIN_SPEC,
    GeneratingFunction,
    expand,
    expansion_value,
    jones,
    skein_weights,
    step_up,
    unlink_value,
)
from braidjones.fibonacci import general_term, s_basis
from braidjones.laurent import LaurentPoly
from .helpers import DESTABILIZATION_CHAIN, SPLIT_CHAIN, SQUARE_CHAIN, random_word

V = LaurentPoly.parse
S2P1 = V("s^2 + 1")


# a two-component link whose cut leaves one transfer part and the twists
# T(2, -2119) and T(2, -3829), and its copy with exponents about a tenth
FOUND_B5 = "B5: x3^-2119 x1^1440 x4^-2561 x2^517 x2^-2050 x1^2448 x4^-1268 x2^2746"
FOUND_B5_SCALED = "B5: x3^-212 x1^144 x4^-256 x2^52 x2^-205 x1^245 x4^-127 x2^275"


@st.composite
def small_words(draw):
    strands = draw(st.integers(2, 5))
    syllable = st.tuples(st.integers(1, strands - 1), st.integers(-4, 4))
    syls = draw(st.lists(syllable, max_size=6))
    return BraidWord(strands, tuple(Syllable(g, e) for g, e in syls))


@st.composite
def wide_words(draw):
    strands = draw(st.integers(2, 9))
    syllable = st.tuples(st.integers(1, strands - 1), st.integers(-30, 30))
    syls = draw(st.lists(syllable, max_size=8))
    return BraidWord(strands, tuple(Syllable(g, e) for g, e in syls))


@st.composite
def mixed_words(draw):
    # short and long syllables of both signs; widths from 8 to 64
    strands = draw(st.integers(2, 7))
    magnitude = st.one_of(st.integers(1, 5), st.integers(6, 300))
    syllable = st.tuples(st.integers(1, strands - 1), magnitude, st.booleans())
    syls = draw(st.lists(syllable, min_size=3, max_size=6))
    return BraidWord(
        strands, tuple(Syllable(g, -m if neg else m) for g, m, neg in syls)
    )


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
        # x1 ... xk on n strands closes to an unlink of n - k components
        for strands in range(2, 7):
            for k in range(0, strands):
                word = BraidWord(
                    strands, tuple(Syllable(g, 1) for g in range(1, k + 1))
                )
                assert jones(word) == unlink_value(strands - k)


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
        assert expansion_value(word) == jones(word)

    # a syllable is short up to |a| = 9 at width 32, 7 at 40, 6 at 48 and 5
    # at 56 and 64; the examples hold syllables at that limit, one below and
    # one above it, at widths 32, 32, 40, 48, then 40, 48, 56 and 64
    @settings(max_examples=60, deadline=None)
    @given(mixed_words())
    @example(parse_braid("B4: x1^9 x2^-12 x3^12 x1^-10 x2^8 x3^-12"))
    @example(parse_braid("B5: x1^9 x2^-12 x3^12 x4^-10 x1^-8 x2^12 x3^-12 x4^-9"))
    @example(parse_braid("B5: x1^5 x2^-100 x3^100 x4^-6 x1^-4 x2^100 x3^-100 x4^5"))
    @example(parse_braid("B5: x1^-5 x2^300 x3^-300 x4^6 x1^4 x2^-300 x3^300 x4^-5"))
    @example(parse_braid("B5: x1^7 x2^-100 x3^100 x4^-8 x1^-6 x2^100 x3^-100 x4^7"))
    @example(parse_braid("B5: x1^6 x2^-300 x3^300 x4^-7 x1^-5 x2^300 x3^-300 x4^6"))
    @example(parse_braid("B5: x1^5 x2^-2000 x3^2000 x4^-6 x1^-4 x2^2000 x3^-2000 x4^5"))
    @example(parse_braid("B6: x1^5 x2^-500 x3^500 x4^-500 x5^500 x1^-4 x2^500 x3^-500 x4^6"))
    def test_expansion_equals_engine_short_and_long(self, word):
        assert expansion_value(word) == jones(word), word.text()

    def test_expansion_cap_refuses_before_any_term(self, monkeypatch):
        # 2^13 terms, each a jones call: refused before the first weight
        def unreachable(*args):
            raise AssertionError("an expansion term was built")

        monkeypatch.setattr(engine, "skein_weights", unreachable)
        word = parse_braid("B3: " + " ".join(f"x{1 + i % 2}^3" for i in range(13)))
        assert len(word.syllables) == engine.CORNER_CAP + 1
        start = time.perf_counter()
        for route in (expand, expansion_value):
            with pytest.raises(CapExceeded, match=f"cap of 2\\^{engine.CORNER_CAP}"):
                route(word)
        assert time.perf_counter() - start < 0.1

    def test_expansion_equals_engine_wide_digits(self):
        # coefficients near 1.6e11, packed with large mixed-sign shifts
        word = parse_braid(
            "B4: x1^97 x2^-113 x3^88 x1^-101 x2^120 x3^-95 x2^77 x1^-64"
        )
        value = jones(word)
        assert max(abs(c) for _, c in value.terms()) > 10**11
        assert expansion_value(word) == value


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
        assert jones(parse_braid(DESTABILIZATION_CHAIN)) == V("1")

    def test_long_split_chain(self):
        assert jones(parse_braid(SPLIT_CHAIN)) == unlink_value(600)

    def test_long_square_chain(self):
        assert engine._width(600, [2] * 599) == 1600
        hopf = V("-s^5 - s")
        assert jones(parse_braid(SQUARE_CHAIN)) == hopf**599

    def test_transfer_cap(self, monkeypatch):
        assert bracket.CapExceeded is CapExceeded
        monkeypatch.setattr(engine, "TRANSFER_CAP", 3)
        with pytest.raises(CapExceeded, match="cap of 3"):
            jones(parse_braid("B4: x1 x2 x3 x1 x2 x3"))
        # words that cut into two-strand pieces never reach the transfer
        assert jones(parse_braid("B4: x1^2 x2^3 x3^-2")) == (
            V("-s^5 - s") * V("-s^8 + s^6 + s^2") * V("-s^-5 - s^-1")
        )

    @pytest.mark.parametrize(
        "text", ["B2: x1^1000000000000000", "B3: x1^-1000000000000000 x2 x1 x2"]
    )
    def test_huge_exponent_fails_fast(self, text):
        word = parse_braid(text)
        cap = f"cap of {engine.PACKED_BITS_CAP} bits"
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=cap):
                jones(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("strands", [engine.STRAND_CAP + 1, 10**12])
    def test_many_strands_fail_fast(self, strands):
        # one strand past the cap: refused before the coefficient bound's
        # 2^(n-1) or any table of n entries is built
        word = BraidWord(strands, (Syllable(1, 1), Syllable(2, -1)))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=f"cap of {engine.STRAND_CAP}$"):
                jones(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_live_bits_cap(self):
        # each state is under the one-state cap, but 429 matchings of them
        # on 7 strands would need about 1 GB
        half = "x1^-10000 x3^10000 x5^-10000 x2^10000 x4^-10000 x6^10000"
        word = parse_braid(f"B7: {half} {half}")
        cap = f"cap of {engine.LIVE_BITS_CAP} bits"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=cap):
                jones(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < engine.LIVE_BITS_CAP // 8  # bytes

    def test_wide_words_agree_with_oracle(self):
        # every generator twice, so the transfer runs on all 6-9 strands and
        # meets states of both parities; two syllables have |a| of 20-40
        rng = random.Random(16)
        for strands in (6, 7, 8, 9):
            for _ in range(2):
                gens = list(range(1, strands)) * 2
                rng.shuffle(gens)
                syls = [Syllable(g, rng.choice((-2, -1, 1, 2, 3))) for g in gens]
                for i in rng.sample(range(len(syls)), 2):
                    exp = rng.choice((-1, 1)) * rng.randint(20, 40)
                    syls[i] = Syllable(syls[i].gen, exp)
                word = BraidWord(strands, tuple(syls))
                assert jones(word) == jones_via_bracket(word), word.text()

    def test_never_reaches_oracle(self, monkeypatch):
        rng = random.Random(15)
        words = [
            random_word(rng, n, max_syllables=6, max_abs_exp=4)
            for n in (3, 4, 5, 6)
            for _ in range(10)
        ]
        expected = [jones_via_bracket(w) for w in words]

        def oracle(*args, **kwargs):
            raise AssertionError("the engine called the bracket oracle")

        for name in ("jones_via_bracket", "bracket_tl", "bracket_naive"):
            monkeypatch.setattr(bracket, name, oracle)
        for word, value in zip(words, expected):
            assert jones(word) == value, word.text()
            assert jones(word.canonical()) == value, word.text()

    def test_engine_source_imports_no_oracle(self):
        tree = ast.parse(inspect.getsource(engine))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any("bracket" in name for name in imported)

    @settings(max_examples=80, deadline=None)
    @given(small_words())
    def test_three_routes_agree(self, word):
        value = jones(word)
        assert expansion_value(word) == value
        assert jones_via_bracket(word) == value
        assert jones(word.canonical()) == value

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


class TestUnpack:
    @pytest.mark.parametrize("width", [8, 16, 32, 40, 48, 56, 64, 128, 192, 320, 1600])
    def test_round_trip(self, width):
        top = (1 << width - 1) - 1
        rng = random.Random(width)
        edges = [0, 0, top, -top, 0, 0, 0, 1, -1, top, top, -top, -top]
        noise = [rng.choice((0, 0, rng.randint(-top, top))) for _ in range(200)]
        # no digit zero, the top one positive: no digit to drop
        dense = [rng.choice((1, -1)) * rng.randint(1, top) for _ in range(200)]
        dense += [-top, top, -1, 1, top]
        # [0] packs to 0, which has no lowest set bit to count zero digits by
        for digits in (edges + [1], edges + [-1], edges + noise + [-top], [top], dense, [0]):
            packed = sum(d << width * i for i, d in enumerate(digits))
            for low, sign in ((-7, 1), (4, -1)):
                expected = LaurentPoly(
                    {low + 2 * i: sign * d for i, d in enumerate(digits)}
                )
                assert engine._unpack(packed, width, low, sign) == expected


class TestPackedWidth:
    @settings(max_examples=120, deadline=None)
    @given(wide_words())
    @example(BraidWord(9))  # delta^8 alone
    @example(parse_braid("B9: x4^3"))
    @example(parse_braid("B7: x1 x3 x5 x2^-2 x4^2 x6^-2"))
    @example(parse_braid("B3: x1^30 x2^30 x1^30 x2^30"))
    def test_coefficients_within_bound(self, word):
        exps = [s.exp for s in word.syllables]
        bound = engine._coefficient_bound(word.strands, exps)
        assert bound < 1 << engine._width(word.strands, exps) - 1
        assert all(abs(c) <= bound for _, c in jones(word).terms()), word.text()

    @pytest.mark.parametrize("a, width", [(811, 32), (812, 40), (5159, 40), (5160, 48)])
    def test_boundary_quartics(self, a, width):
        word = parse_braid(f"B3: x1^{a} x2^{a} x1^{a} x2^{a}")
        assert engine._width(3, [a] * 4) == width
        assert jones(word) == expansion_value(word)

    # the smallest a whose coefficient bound needs 49 and 57 signed bits
    @pytest.mark.parametrize("a, width", [(444, 48), (445, 56), (1349, 56), (1350, 64)])
    def test_boundary_words(self, a, width):
        word = parse_braid(f"B4: x1^{a} x2^-{a} x3^{a} x1^-{a} x2^{a} x3^-{a}")
        assert engine._width(4, [s.exp for s in word.syllables]) == width
        assert jones(word) == expansion_value(word)

    def test_found_word_is_fast(self):
        word = parse_braid(FOUND_B5)
        start = time.perf_counter()
        value = jones(word)
        assert time.perf_counter() - start < 5.0
        assert value.evaluate(1) == (-2) ** (word.components() - 1)

    def test_found_word_scaled(self):
        word = parse_braid(FOUND_B5_SCALED)
        assert jones(word) == expansion_value(word)

    def test_parts_multiply_packed(self, monkeypatch):
        # x3^a with |a| > 1 cuts each word into a twist and two blocks, on
        # x1, x2 and on x4, x5, each generator in two syllables
        rng = random.Random(17)
        exps = (-3, -2, -1, 1, 2, 3)
        words = [parse_braid(FOUND_B5_SCALED)]
        for _ in range(12):
            left, right = [1, 1, 2, 2], [4, 4, 5, 5]
            rng.shuffle(left)
            rng.shuffle(right)
            syls = [Syllable(g, rng.choice(exps)) for g in left]
            syls.append(Syllable(3, rng.choice((-3, -2, 2, 3))))
            syls += [Syllable(g, rng.choice(exps)) for g in right]
            words.append(BraidWord(6, tuple(syls)))
        expected = [expansion_value(words[0])]
        expected += [jones_via_bracket(w) for w in words[1:]]

        def ring_product(*args):
            raise AssertionError("jones multiplied in the ring")

        monkeypatch.setattr(LaurentPoly, "__mul__", ring_product)
        monkeypatch.setattr(LaurentPoly, "__pow__", ring_product)
        for word, value in zip(words, expected):
            assert jones(word) == value, word.text()
            assert jones(word.canonical()) == value, word.text()


def one_slot_seeds(fam):
    """Corner seeds V(0) and V(1) of a one-slot family, for :func:`general_term`."""
    return {(e,): jones(fam.instantiate(e)) for e in (0, 1)}


class TestFamilySweep:
    @pytest.mark.parametrize("exp", [10**4, -(10**4)])
    def test_large_exponent_is_one_word(self, exp):
        # a family value is one jones call on the instantiated word, with no
        # walk over the exponents in between: time and memory follow the
        # size of the one value
        word = parse_family("B3: x1^2 x2^@ x1^-3 x2").instantiate(exp)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            value = jones(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 8 << 20
        assert value == jones(word.canonical())

    @pytest.mark.parametrize(
        "text", ["B3: x1^2 x2^@ x1^-3 x2", "B3: x1^@ x2 x1^3 x2", "B4: x1^@ x2^3 x3^-2 x2 x1"]
    )
    def test_one_slot_expansion_formula(self, text):
        # the paper's general term V(e) = (S_0[e] V(0) + S_1[e] V(1)) / D,
        # negative exponents included, against the evaluator
        fam = parse_family(text)
        seeds = one_slot_seeds(fam)
        for e in range(-20, 21):
            assert general_term(SKEIN_SPEC, seeds, (e,)) == jones(fam.instantiate(e)), e

    def test_quotient_cap_passes_admitted_exponents(self, monkeypatch):
        # each closed-form value is a division whose quotient has about e
        # terms, and the ring's cap on them follows the packed bits cap: at
        # both caps scaled down by one ratio, the largest exponent admitted
        # still evaluates
        fam = parse_family("B3: x1^@ x2 x1^3 x2")
        seeds = one_slot_seeds(fam)
        assert general_term(SKEIN_SPEC, seeds, (10**5,)) == jones(fam.instantiate(10**5))
        scale = engine.PACKED_BITS_CAP >> 12
        monkeypatch.setattr(engine, "PACKED_BITS_CAP", engine.PACKED_BITS_CAP // scale)
        monkeypatch.setattr(laurent, "QUOTIENT_CAP", laurent.QUOTIENT_CAP // scale)
        for text in ("B2: x1^@", "B3: x1^@ x2 x1^3 x2", "B4: x1^@ x2^3 x3^-2"):
            fam = parse_family(text)
            lo, hi = 1, 1 << 12  # admitted, refused
            engine._admit(fam.instantiate(lo))
            with pytest.raises(CapExceeded):
                engine._admit(fam.instantiate(hi))
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    engine._admit(fam.instantiate(mid))
                    lo = mid
                except CapExceeded:
                    hi = mid
            value = general_term(SKEIN_SPEC, one_slot_seeds(fam), (lo,))
            assert value == jones(fam.instantiate(lo)), text

    def test_span_cap_admits_what_jones_admits(self, monkeypatch):
        # x1^@ x2^5 cuts into two twists, so a span summed over the whole
        # word would refuse values that jones evaluates
        monkeypatch.setattr(engine, "PACKED_BITS_CAP", 160)

        def admits(route, *args):
            try:
                route(*args)
            except CapExceeded:
                return False
            return True

        gf = GeneratingFunction.build(3, (1, 2))
        fam = parse_family("B3: x1^@ x2^5")
        seen = set()
        for e in range(26):
            admitted = admits(jones, fam.instantiate(e))
            assert admits(gf.coefficient, (e, 5)) == admitted, e
            seen.add(admitted)
        assert seen == {True, False}


class TestGeneratingFunction:
    def test_single_variable_coefficients(self):
        gf = GeneratingFunction.build(2, (1,))
        fam = parse_family("B2: x1^@")
        for a in range(0, 9):
            assert gf.coefficient((a,)) == jones(fam.instantiate(a)), a

    def test_grid_coefficients(self):
        gf = GeneratingFunction.build(3, (1, 2, 1, 2))
        for exps in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 1, 2, 1), (3, 0, 2, 2), (1, 3, 1, 3)]:
            word = BraidWord(
                3, tuple(Syllable(g, a) for g, a in zip((1, 2, 1, 2), exps))
            )
            assert gf.coefficient(exps) == jones(word), exps

    def test_cone_restrictions(self):
        gf = GeneratingFunction.build(2, (1,))
        with pytest.raises(ValueError):
            gf.coefficient((-1,))
        with pytest.raises(ValueError):
            gf.coefficient((1, 2))
        with pytest.raises(ValueError):
            GeneratingFunction.build(3, ())
