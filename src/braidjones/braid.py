"""Braid words in syllable form, and the errors the whole package raises.

A word is a sequence of syllables ``x_i^a`` on a fixed number of strands.
Closures are taken cyclically, so :func:`reduce_cyclic` merges syllables
across the wrap-around; conjugate words reduce to rotations of one another.

Text form: ``B3: x1^2 x2``. A one-slot exponent family writes its variable
exponent as ``x1^@``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

from .laurent import CapExceeded  # CapExceeded is re-exported


class ParseError(ValueError):
    """Raised on malformed text input; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class BoundsError(ValueError):
    """A generator index lies outside 1..strands-1."""


class InvariantViolation(RuntimeError):
    """A verified structural property failed on actual data."""


# The value classes of the package are named tuples: immutable, hashable,
# compared by value and cheap to define at import. So they also unpack, and
# compare equal to plain tuples of their fields. A class that validates its
# fields subclasses its fields' tuple with its own __new__.


class Syllable(NamedTuple):
    """One power ``x_gen^exp`` of an Artin generator."""

    gen: int
    exp: int


class _BraidWordFields(NamedTuple):
    strands: int
    syllables: tuple[Syllable, ...] = ()


class BraidWord(_BraidWordFields):
    """A braid word on ``strands`` strands.

    The syllable list is kept exactly as given; :func:`reduce_cyclic` gives
    the cyclically reduced form. Strand positions are 1-based.
    """

    __slots__ = ()

    def __new__(cls, strands: int, syllables: tuple[Syllable, ...] = ()) -> BraidWord:
        if strands < 1:
            raise BoundsError(f"strand count must be >= 1, got {strands}")
        for i, syl in enumerate(syllables):
            if not 1 <= syl.gen <= strands - 1:
                raise BoundsError(
                    f"syllable {i}: generator x{syl.gen} out of range for "
                    f"B{strands} (need 1..{strands - 1})"
                )
        return tuple.__new__(cls, (strands, syllables))

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

    # -- rewriting ------------------------------------------------------

    def rotated(self, k: int) -> BraidWord:
        """Cyclic rotation by k syllables (a conjugate of the word)."""
        if not self.syllables:
            return self
        k %= len(self.syllables)
        return BraidWord(self.strands, self.syllables[k:] + self.syllables[:k])

    # -- small editors ----------------------------------------------------

    def with_exponent(self, index: int, exp: int) -> BraidWord:
        syls = list(self.syllables)
        syls[index] = Syllable(syls[index].gen, exp)
        return BraidWord(self.strands, tuple(syls))

    # -- text form --------------------------------------------------------

    def text(self) -> str:
        return f"B{self.strands}:" + "".join(
            f" x{s.gen}" + (f"^{s.exp}" if s.exp != 1 else "")
            for s in self.syllables
        )

    def __str__(self) -> str:
        return self.text()


def reduce_cyclic(syllables: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Cyclically reduced form of a closure's (generator, exponent) pairs.

    Merges neighbouring syllables on one generator, across the wrap-around
    too, and drops zero exponents. Conjugate words reduce to rotations of
    one another.
    """
    out: list[tuple[int, int]] = []
    for gen, exp in syllables:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    head = 0
    while len(out) - head > 1 and out[head][0] == out[-1][0]:
        gen, exp = out.pop()
        exp += out[head][1]
        if exp:
            out[head] = (gen, exp)
        else:
            head += 1
    return out[head:]


class _ExponentFamilyFields(NamedTuple):
    template: BraidWord
    slot: int


class ExponentFamily(_ExponentFamilyFields):
    """A braid word with one variable exponent slot.

    ``template`` holds a placeholder exponent at position ``slot``;
    :meth:`instantiate` substitutes the actual exponent.
    """

    __slots__ = ()

    def __new__(cls, template: BraidWord, slot: int) -> ExponentFamily:
        if not 0 <= slot < len(template.syllables):
            raise BoundsError(f"slot {slot} out of range")
        return tuple.__new__(cls, (template, slot))

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
