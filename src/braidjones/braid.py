"""Braid words in syllable form, plus the moves the evaluator relies on.

A word is a sequence of syllables ``x_i^a`` on a fixed number of strands.
Closures are taken cyclically, so the canonical form merges syllables
across the wrap-around and rotates to a least representative. Markov
moves appear as :meth:`BraidWord.destabilized` (remove a lone ``x_{n-1}``
with unit exponent) and conjugation invariance of the canonical form;
:meth:`BraidWord.split_absent` factors the closure across an unused
generator.

Text form: ``B3: x1^2 x2``. A one-slot exponent family writes its variable
exponent as ``x1^@``.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator

from .laurent import ParseError


class BoundsError(ValueError):
    """A generator index lies outside 1..strands-1."""


@dataclasses.dataclass(frozen=True)
class Syllable:
    """One power ``x_gen^exp`` of an Artin generator."""

    gen: int
    exp: int


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A braid word on ``strands`` strands.

    The syllable list is kept exactly as given; use :meth:`canonical` for
    the cyclically reduced representative. Strand positions are 1-based.
    """

    strands: int
    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BoundsError(f"strand count must be >= 1, got {self.strands}")
        for i, syl in enumerate(self.syllables):
            if not 1 <= syl.gen <= self.strands - 1:
                raise BoundsError(
                    f"syllable {i}: generator x{syl.gen} out of range for "
                    f"B{self.strands} (need 1..{self.strands - 1})"
                )

    # -- basic data -----------------------------------------------------

    def writhe(self) -> int:
        """Exponent sum of the word."""
        return sum(s.exp for s in self.syllables)

    def crossing_count(self) -> int:
        return sum(abs(s.exp) for s in self.syllables)

    def letters(self) -> Iterator[tuple[int, int]]:
        """Single crossings as (generator, +1 or -1) pairs."""
        for syl in self.syllables:
            step = 1 if syl.exp > 0 else -1
            for _ in range(abs(syl.exp)):
                yield syl.gen, step

    def permutation(self) -> tuple[int, ...]:
        """Image of each starting strand position under the word.

        Convention: reading the word left to right, ``x_i`` (any exponent
        parity) swaps the strands at positions i and i+1. Entry p-1 of the
        result is the final position of the strand that starts at p.
        """
        image = list(range(self.strands))
        for syl in self.syllables:
            if syl.exp % 2 == 0:
                continue
            a, b = syl.gen - 1, syl.gen
            for p, q in enumerate(image):
                if q == a:
                    image[p] = b
                elif q == b:
                    image[p] = a
        return tuple(image)

    def components(self) -> int:
        """Number of components of the closure (permutation cycles)."""
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            count += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = perm[p]
        return count

    def is_knot(self) -> bool:
        return self.components() == 1

    # -- rewriting ------------------------------------------------------

    def canonical(self) -> BraidWord:
        """Cyclically reduced least representative of the closure.

        Merges adjacent syllables with equal generator (including across
        the wrap-around), drops zero exponents, and rotates the result to
        the lexicographically least syllable sequence. Idempotent, and
        constant on cyclic rotations of the same word.
        """
        syls = [(s.gen, s.exp) for s in self.syllables if s.exp != 0]
        changed = True
        while changed:
            changed = False
            out: list[tuple[int, int]] = []
            for gen, exp in syls:
                if out and out[-1][0] == gen:
                    merged = out[-1][1] + exp
                    out.pop()
                    if merged:
                        out.append((gen, merged))
                    changed = True
                else:
                    out.append((gen, exp))
            while len(out) >= 2 and out[0][0] == out[-1][0]:
                gen, tail = out.pop()
                head = out[0][1]
                out.pop(0)
                merged = head + tail
                if merged:
                    out.insert(0, (gen, merged))
                changed = True
            syls = out
        if not syls:
            return BraidWord(self.strands)
        tup = tuple(syls)
        # the least rotation starts at a least syllable
        first = min(tup)
        best = min(tup[i:] + tup[:i] for i, syl in enumerate(tup) if syl == first)
        return BraidWord(self.strands, tuple(Syllable(g, e) for g, e in best))

    def rotated(self, k: int) -> BraidWord:
        """Cyclic rotation by k syllables (a conjugate of the word)."""
        if not self.syllables:
            return self
        k %= len(self.syllables)
        return BraidWord(self.strands, self.syllables[k:] + self.syllables[:k])

    def destabilized(self) -> BraidWord | None:
        """Undo one stabilization if the top generator allows it.

        If ``x_{strands-1}`` occurs in exactly one syllable and with
        exponent +1 or -1, return the word on one fewer strand with that
        syllable removed; otherwise None. The result is not normalized.
        """
        top = self.strands - 1
        if top < 1:
            return None
        spots = [i for i, s in enumerate(self.syllables) if s.gen == top]
        if len(spots) != 1 or self.syllables[spots[0]].exp not in (1, -1):
            return None
        rest = self.syllables[: spots[0]] + self.syllables[spots[0] + 1 :]
        return BraidWord(self.strands - 1, rest)

    def split_absent(self) -> tuple[BraidWord, BraidWord] | None:
        """Split the closure across an unused generator.

        If some generator ``x_g`` never occurs, the closure is the split
        union of the closures of the two halves; returns (front, back)
        with the back reindexed to start at x1, or None if every
        generator occurs.
        """
        used = {s.gen for s in self.syllables}
        for g in range(1, self.strands):
            if g not in used:
                front = tuple(s for s in self.syllables if s.gen < g)
                back = tuple(
                    Syllable(s.gen - g, s.exp) for s in self.syllables if s.gen > g
                )
                return BraidWord(g, front), BraidWord(self.strands - g, back)
        return None

    # -- small editors ----------------------------------------------------

    def with_exponent(self, index: int, exp: int) -> BraidWord:
        syls = list(self.syllables)
        syls[index] = Syllable(syls[index].gen, exp)
        return BraidWord(self.strands, tuple(syls))

    def without_syllable(self, index: int) -> BraidWord:
        syls = self.syllables[:index] + self.syllables[index + 1 :]
        return BraidWord(self.strands, syls)

    # -- text form --------------------------------------------------------

    def text(self) -> str:
        return f"B{self.strands}:" + "".join(
            f" x{s.gen}" + (f"^{s.exp}" if s.exp != 1 else "")
            for s in self.syllables
        )

    def __str__(self) -> str:
        return self.text()


@dataclasses.dataclass(frozen=True)
class ExponentFamily:
    """A braid word with one variable exponent slot.

    ``template`` holds a placeholder exponent at position ``slot``;
    :meth:`instantiate` substitutes the actual exponent.
    """

    template: BraidWord
    slot: int

    def __post_init__(self) -> None:
        if not 0 <= self.slot < len(self.template.syllables):
            raise BoundsError(f"slot {self.slot} out of range")

    @property
    def strands(self) -> int:
        return self.template.strands

    def instantiate(self, exp: int) -> BraidWord:
        return self.template.with_exponent(self.slot, exp)

    def text(self) -> str:
        parts = []
        for i, s in enumerate(self.template.syllables):
            if i == self.slot:
                parts.append(f" x{s.gen}^@")
            else:
                parts.append(f" x{s.gen}" + (f"^{s.exp}" if s.exp != 1 else ""))
        return f"B{self.template.strands}:" + "".join(parts)

    def __str__(self) -> str:
        return self.text()


_HEADER = re.compile(r"\s*B(\d+)\s*:")
_TOKEN = re.compile(r"\s*x(\d+)(?:\^(@|-?\d+))?")


def _scan(text: str) -> tuple[int, list[tuple[int, int | None]], list[int]]:
    m = _HEADER.match(text)
    if not m:
        raise ParseError("expected header like 'B3:'", 0)
    strands = int(m.group(1))
    pos = m.end()
    syllables: list[tuple[int, int | None]] = []
    slots: list[int] = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("expected syllable like 'x1' or 'x1^-2'", pos)
        gen = int(m.group(1))
        raw = m.group(2)
        if raw == "@":
            slots.append(len(syllables))
            syllables.append((gen, None))
        else:
            syllables.append((gen, 1 if raw is None else int(raw)))
        pos = m.end()
    return strands, syllables, slots


def parse_braid(text: str) -> BraidWord:
    """Parse a braid word such as ``B3: x1^2 x2 x1^-1``.

    The word is returned exactly as written (no normalization). Raises
    ParseError on malformed text and BoundsError on generator indices
    outside 1..strands-1.
    """
    strands, syllables, slots = _scan(text)
    if slots:
        raise ParseError("'@' slot is only valid in a family", 0)
    return BraidWord(strands, tuple(Syllable(g, e) for g, e in syllables))


def parse_family(text: str) -> ExponentFamily:
    """Parse a one-slot family such as ``B3: x1^@ x2 x1^3 x2``."""
    strands, syllables, slots = _scan(text)
    if len(slots) != 1:
        raise ParseError("a family needs exactly one 'x<i>^@' slot", 0)
    syls = tuple(Syllable(g, 1 if e is None else e) for g, e in syllables)
    return ExponentFamily(BraidWord(strands, syls), slots[0])
