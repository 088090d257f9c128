"""Seeded inputs for the four benchmark workloads.

Every workload is an endless sequence of *cycles*. A cycle is a short list
of operations whose sizes follow a fixed schedule; the seed only chooses
the words inside each size class. A run stops at a cycle boundary, so two
seeds put the same mix of sizes in front of the program and their figures
differ only by what the words themselves cost.

This module imports nothing from braidjones, so the process that drives a
run can build inputs without loading the package it measures.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("quartic", "words", "oracle", "shell")
DEFAULT_SEED = 0

# The quartic x1^a x2^a x1^a x2^a that the roadmap pins, at a = 300 and 3000.
PINNED_QUARTICS = (300, 3000)
# A cycle holds four quartics per slot. Slot magnitudes are spread evenly
# over this range and each exponent is jittered by 3%; an odd slot count
# puts the median inside the middle slot.
QUARTIC_RANGE = (100, 1500)
QUARTIC_SLOTS = 5
QUARTIC_PER_SLOT = 4
QUARTIC_JITTER = 0.03
# The exponent signs of x1^a x2^b x1^c x2^d, up to negating all four (the
# mirror image, which costs the same). Each slot deals them from a shuffled
# deck, half a deck per cycle: every two cycles a slot has run each pattern
# once, and a run's median and tail do not hang on which patterns the seed
# drew. Half-deck cycles keep a cycle short, so a run stops close to its
# time target.
SIGN_PATTERNS = tuple(
    (1, b, c, d) for b in (1, -1) for c in (1, -1) for d in (1, -1)
)

# (strands, syllables) per cycle. Shapes near the median cost are repeated:
# the more words cost about the median, the less a run's median depends on
# which words it drew. 6-strand words stop at 10 syllables and 5-strand
# words at 12: a 6-strand word of 12 or more syllables can take a good part
# of a second on its own, and a few of them would decide a run's figures.
WORD_SHAPES = (
    (4, 8), (5, 8), (6, 8),
    (4, 10), (5, 10), (5, 10), (6, 10), (6, 10),
    (4, 11), (4, 11), (5, 11),
    (4, 12), (4, 12),
    (4, 14), (5, 12),
)
ORACLE_SHAPES = (
    (7, 16), (8, 16), (7, 20),
    (9, 16), (9, 16), (8, 20), (8, 20), (7, 24), (7, 24),
    (7, 28), (8, 24), (9, 20),
)

# Bounds on one run, whatever the speed of the program under test. They cap
# the cost of checking outputs and the size of the reference tables.
MAX_CYCLES = {"quartic": 20, "words": 250, "oracle": 60, "shell": 40}
# Cycles run before the clock starts. In ``words`` the shared memo makes each
# cycle cheaper than the last, steeply at first: the first ten cycles cost
# nearly twice the next ten. Without a warm-up, a run that happens to get
# through more cycles reads much faster than one that does not.
WARMUP_CYCLES = {"quartic": 0, "words": 10, "oracle": 0, "shell": 0}
# Peak RSS is read once this many cycles past the warm-up are done, so that it measures the
# same work on a fast and a slow program (the shared memo grows with it).
RSS_CYCLES = {"quartic": 2, "words": 8, "oracle": 6, "shell": 4}
# Cycles of a traced run: fixed, so that its counts repeat exactly.
TRACE_CYCLES = {"quartic": 4, "words": 6, "oracle": 4, "shell": 2}


def word_text(strands: int, syllables: list[tuple[int, int]]) -> str:
    return f"B{strands}:" + "".join(f" x{g}^{e}" for g, e in syllables)


def balanced_word(
    rng: random.Random, strands: int, count: int
) -> list[tuple[int, int]]:
    """Syllables using every generator equally often, none twice in a row.

    Exponents have magnitudes 1, 2 and 3 in equal shares with seeded signs.
    Balancing fixes the crossing count and keeps every strand linked, so
    words of one shape cost about the same.
    """
    gens = [1 + i % (strands - 1) for i in range(count)]
    for _ in range(10_000):
        rng.shuffle(gens)
        if all(gens[i] != gens[i - 1] for i in range(count)):
            break
    mags = [1 + i % 3 for i in range(count)]
    rng.shuffle(mags)
    return [(g, m * rng.choice((1, -1))) for g, m in zip(gens, mags)]


def _quartic_cycles(rng: random.Random) -> Iterator[list[str]]:
    lo, hi = QUARTIC_RANGE
    mags = [lo + (hi - lo) * (j + 0.5) / QUARTIC_SLOTS for j in range(QUARTIC_SLOTS)]
    decks: list[list[tuple[int, ...]]] = [[] for _ in mags]
    while True:
        out = []
        for mag, deck in zip(mags, decks):
            if not deck:
                deck.extend(SIGN_PATTERNS)
                rng.shuffle(deck)
            for signs in (deck.pop() for _ in range(QUARTIC_PER_SLOT)):
                mirror = rng.choice((1, -1))
                exps = [
                    mirror * sign * round(mag * rng.uniform(1 - QUARTIC_JITTER, 1 + QUARTIC_JITTER))
                    for sign in signs
                ]
                out.append(word_text(3, list(zip((1, 2, 1, 2), exps))))
        rng.shuffle(out)
        yield out


def _shaped_cycle(rng: random.Random, shapes) -> list[str]:
    out = [word_text(n, balanced_word(rng, n, k)) for n, k in shapes]
    rng.shuffle(out)
    return out


def _small_word(rng: random.Random, strands: int, count: int, top: int) -> str:
    syls, prev = [], None
    for _ in range(count):
        g = rng.choice([x for x in range(1, strands) if x != prev])
        syls.append((g, rng.choice([e for e in range(-top, top + 1) if e])))
        prev = g
    return word_text(strands, syls)


def _family(rng: random.Random) -> str:
    rest = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]
    return "B3: x1^@" + "".join(
        f" x{g}^{e}" for g, e in zip((2, 1, 2), rest)
    )


def _naive_word(rng: random.Random, crossings: int) -> str:
    """A 3-strand word with exactly ``crossings`` crossings."""
    syls, left, gen = [], crossings, rng.choice((1, 2))
    while left:
        mag = min(left, rng.randint(1, 4))
        syls.append((gen, mag * rng.choice((1, -1))))
        left -= mag
        gen = 3 - gen
    return word_text(3, syls)


# Crossings of the words that ``bench --compare naive`` sums over 2^c states.
# Each cycle runs three of them, so the tail percentile of a run falls among
# commands of one size rather than on the step between two sizes.
NAIVE_CROSSINGS = 14


def _shell_cycle(rng: random.Random) -> list[list[str]]:
    j = ["--json"]
    indices = rng.choice(("1,2,1", "2,1,2"))
    return [
        ["jones", *j, _small_word(rng, 4, rng.randint(6, 8), 3)],
        ["family", *j, _family(rng), "--range", f"{rng.randint(-4, 0)}..{rng.randint(4, 7)}"],
        ["genfun", *j, "--strands", "3", "--indices", indices, "--upto", "3"],
        ["tables", *j, "--pairs", "5"],
        ["audit", *j, "--pairs", "2", "--samples", "300", "--max-exp", "4",
         "--seed", str(rng.randint(0, 10**6))],
        ["units", *j, _family(rng)],
        ["classify", *j, _family(rng), "--at", str(rng.randint(0, 3)),
         "--predict", str(rng.randint(2, 5))],
        # three naive sums of one size: the slowest tenth of a run's commands
        *(["bench", *j, "--braid", _naive_word(rng, NAIVE_CROSSINGS), "--compare", "naive"]
          for _ in range(3)),
        ["selftest", *j],
    ]


def prefix(workload: str) -> list:
    """Operations run once before the first cycle."""
    if workload == "quartic":
        return [word_text(3, [(g, a) for g in (1, 2, 1, 2)]) for a in PINNED_QUARTICS]
    return []


def cycles(workload: str, seed: int) -> Iterator[list]:
    """The endless cycle sequence of a workload, determined by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "quartic":
        yield from _quartic_cycles(rng)
    make = {
        "words": lambda r: _shaped_cycle(r, WORD_SHAPES),
        "oracle": lambda r: _shaped_cycle(r, ORACLE_SHAPES),
        "shell": _shell_cycle,
    }[workload]
    while True:
        yield make(rng)


def operations(workload: str, seed: int, n_cycles: int) -> list:
    """The prefix and the first ``n_cycles`` cycles, flattened."""
    ops = list(prefix(workload))
    stream = cycles(workload, seed)
    for _ in range(n_cycles):
        ops.extend(next(stream))
    return ops
