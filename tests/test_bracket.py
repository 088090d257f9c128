"""State-sum oracle: bracket polynomial and its normalized closure value."""
from __future__ import annotations

import ast
import inspect
import random
import textwrap
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidjones import bracket
from braidjones.bracket import (
    DELTA,
    CapExceeded,
    bracket_naive,
    bracket_tl,
    jones_from_bracket,
    jones_via_bracket,
)
from braidjones.braid import BraidWord, Syllable, parse_braid
from braidjones.laurent import LaurentPoly
from .helpers import random_word


@st.composite
def oracle_words(draw, max_crossings: int = 14, max_strands: int = 6):
    """Words on 1 to ``max_strands`` strands with at most ``max_crossings`` crossings."""
    strands = draw(st.integers(min_value=1, max_value=max_strands))
    syllables: list[Syllable] = []
    left = draw(st.integers(min_value=0, max_value=max_crossings))
    while strands > 1 and left:
        mag = draw(st.integers(min_value=1, max_value=min(4, left)))
        sign = draw(st.sampled_from((1, -1)))
        gen = draw(st.integers(min_value=1, max_value=strands - 1))
        syllables.append(Syllable(gen, sign * mag))
        left -= mag
    return BraidWord(strands, tuple(syllables))


class TestFixtures:
    # closure values pinned from first principles (state enumeration by hand
    # for the small ones, independent published values for the knots)
    @pytest.mark.parametrize(
        "text, value",
        [
            ("B2: x1", "1"),                           # unknot
            ("B2: x1^0", "-s - s^-1"),                 # two-component unlink
            ("B2: x1^2", "-s^5 - s"),                  # Hopf link, positive
            ("B2: x1^-2", "-s^-1 - s^-5"),             # Hopf link, negative
            ("B2: x1^3", "-s^8 + s^6 + s^2"),          # right trefoil
            ("B2: x1^-3", "s^-2 + s^-6 - s^-8"),       # left trefoil
            ("B3: x1 x2^-1 x1 x2^-1", "s^4 - s^2 + 1 - s^-2 + s^-4"),  # figure eight
            ("B3: x1 x2 x1 x2", "-s^8 + s^6 + s^2"),   # trefoil again
            ("B3:", "s^2 + 2 + s^-2"),                 # three-component unlink
        ],
    )
    def test_closure_values(self, text, value):
        assert jones_via_bracket(parse_braid(text)).text() == value

    def test_empty_two_strand(self):
        assert jones_via_bracket(parse_braid("B2:")).text() == "-s - s^-1"

    def test_bracket_of_empty_word(self):
        # delta^(strands-1) with no crossings
        assert bracket_naive(parse_braid("B2:")) == LaurentPoly({2: -1, -2: -1})


class TestRoutesAgree:
    def test_exhaustive_small(self):
        rng = random.Random(3)
        for _ in range(40):
            w = random_word(rng, 3, max_syllables=3, max_abs_exp=2)
            assert bracket_naive(w) == bracket_tl(w), w.text()

    def test_wider_braids(self):
        rng = random.Random(4)
        for _ in range(15):
            w = random_word(rng, 5, max_syllables=3, max_abs_exp=2)
            assert bracket_naive(w) == bracket_tl(w), w.text()

    @settings(max_examples=60, deadline=None)
    @given(oracle_words())
    @example(parse_braid("B1:"))
    @example(parse_braid("B5:"))
    @example(parse_braid("B4: x1^3 x2^-2 x1 x2^4"))  # strand 4 untouched
    @example(parse_braid("B6: x5^-4 x4^3 x5^-4 x4^3"))  # 14 crossings
    def test_state_sum_equals_transfer(self, word):
        assert bracket_naive(word) == bracket_tl(word), word.text()

    # the walk tallies both smoothings of the last letter from whether its
    # incoming wire x at the left position is joined to that position's top
    @settings(max_examples=100, deadline=None)
    @given(oracle_words(max_crossings=12, max_strands=7))
    @example(parse_braid("B1:"))
    @example(parse_braid("B3:"))
    @example(parse_braid("B2: x1"))  # x is a top itself
    @example(parse_braid("B2: x1^-1"))
    @example(parse_braid("B4: x1^2 x3"))  # the last letter alone on its positions
    @example(parse_braid("B2: x1^3"))  # incoming wires already joined
    @example(parse_braid("B3: x1 x2 x1"))  # tops already joined
    def test_last_letter_leaves(self, word):
        assert bracket_naive(word) == bracket_tl(word), word.text()

    def test_untouched_strand_is_one_more_loop(self):
        inner = parse_braid("B3: x1^3 x2^-2 x1 x2^4")
        outer = parse_braid("B4: x1^3 x2^-2 x1 x2^4")
        assert bracket_naive(outer) == bracket_naive(inner) * DELTA


class TestNaiveWalk:
    def test_no_recursion_and_no_other_route(self):
        # the walk keeps its own stack, so no depth of word can reach the
        # recursion limit, and it shares no code with the other routes
        tree = ast.parse(textwrap.dedent(inspect.getsource(bracket_naive)))
        (func,) = tree.body
        nested = [
            node
            for node in ast.walk(func)
            if node is not func
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        assert nested == []
        names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        assert not names & {"bracket_naive", "bracket_tl", "jones", "engine"}


class TestInvariance:
    def test_cyclic_rotation(self):
        rng = random.Random(5)
        for _ in range(20):
            w = random_word(rng, 4, max_syllables=4, max_abs_exp=2)
            for k in range(1, len(w.syllables)):
                assert jones_via_bracket(w.rotated(k)) == jones_via_bracket(w)

    def test_markov_stabilization(self):
        # adding x_n^(+-1) on one more strand keeps the closure value
        rng = random.Random(6)
        for _ in range(15):
            w = random_word(rng, 3, max_syllables=3, max_abs_exp=2)
            for sign in (1, -1):
                up = parse_braid(w.text().replace("B3:", "B4:") + f" x3^{sign}")
                assert jones_via_bracket(up) == jones_via_bracket(w)

    def test_braid_relation(self):
        a = parse_braid("B3: x1 x2 x1")
        b = parse_braid("B3: x2 x1 x2")
        assert bracket_naive(a) == bracket_naive(b)

    def test_distant_generators_commute(self):
        a = parse_braid("B4: x1 x3 x1^2")
        b = parse_braid("B4: x3 x1 x1^2")
        assert bracket_naive(a) == bracket_naive(b)


class TestCaps:
    def test_naive_cap(self):
        with pytest.raises(CapExceeded, match=f"naive cap of {bracket.NAIVE_CAP}"):
            bracket_naive(parse_braid(f"B2: x1^{bracket.NAIVE_CAP + 1}"))

    def test_tl_cap(self):
        with pytest.raises(CapExceeded, match=f"transfer cap of {bracket.TL_CAP}"):
            bracket_tl(parse_braid(f"B{bracket.TL_CAP + 1}: x1"))

    def test_delta_powers(self):
        for n in range(65):
            assert bracket._delta_power(n) == DELTA**n, n

    def test_many_strands_without_crossings(self):
        # the unlink's delta^(n-1), built from its binomial coefficients
        start = time.perf_counter()
        value = bracket_naive(BraidWord(4000))
        assert time.perf_counter() - start < 1.0
        assert len(value) == 4000 and value.leading == -1
        with pytest.raises(CapExceeded, match=f"cap of {bracket.SIZE_CAP}"):
            bracket_naive(BraidWord(bracket.SIZE_CAP + 1))

    @pytest.mark.parametrize("strands", [12, 13])
    def test_size_cap_before_any_letter(self, strands):
        # 10^12 letters would take either route days: refused at once, on
        # the transfer's side of its strand cap and on the naive sum's
        word = parse_braid(f"B{strands}: x1^1000000000000 x2 x1")
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"cap of {bracket.SIZE_CAP}"):
            jones_via_bracket(word)
        with pytest.raises(CapExceeded, match="naive cap of 24"):
            bracket_naive(word)
        assert time.perf_counter() - start < 0.1

    def test_route_selection_respects_strand_cap(self, monkeypatch):
        # the strand count alone picks the route: the transfer pass up to
        # TL_CAP strands, the naive sum above; the other route would raise
        def unreachable(word):
            raise AssertionError(f"wrong route for {word.text()}")

        for strands, other in [(12, "bracket_naive"), (13, "bracket_tl")]:
            gens = " ".join(f"x{g}" for g in range(1, strands))
            word = parse_braid(f"B{strands}: {gens} x1^-2 x{strands - 1}")
            expected = jones_from_bracket(word, bracket_naive(word))
            with monkeypatch.context() as patch:
                patch.setattr(bracket, other, unreachable)
                assert jones_via_bracket(word) == expected, strands
