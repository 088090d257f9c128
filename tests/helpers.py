"""Shared generators for randomized tests.

Everything here is deterministic given the Random instance handed in, so
test runs are reproducible from the seed set at the call site.
"""
from __future__ import annotations

import random

from braidjones.braid import BraidWord, ExponentFamily, Syllable

# 599 destabilizations down to the unknot
DESTABILIZATION_CHAIN = "B600: " + " ".join(f"x{i}" for i in range(1, 600))
# 599 split unions of 600 unknots
SPLIT_CHAIN = "B1200: " + " ".join(f"x{i}" for i in range(1, 1200, 2))


def random_word(
    rng: random.Random,
    strands: int,
    max_syllables: int = 4,
    max_abs_exp: int = 3,
    allow_negative: bool = True,
) -> BraidWord:
    count = rng.randint(1, max_syllables)
    syllables = []
    prev = 0
    for _ in range(count):
        gen = rng.randint(1, strands - 1)
        if gen == prev and strands > 2:
            gen = gen % (strands - 1) + 1
        exp = rng.randint(1, max_abs_exp)
        if allow_negative and rng.random() < 0.5:
            exp = -exp
        syllables.append(Syllable(gen, exp))
        prev = gen
    return BraidWord(strands, tuple(syllables))


def random_family(
    rng: random.Random,
    strands: int = 3,
    max_syllables: int = 4,
    max_abs_exp: int = 3,
    allow_negative: bool = False,
) -> ExponentFamily:
    word = random_word(rng, strands, max_syllables, max_abs_exp, allow_negative)
    slot = rng.randrange(len(word.syllables))
    return ExponentFamily(word, slot)
