"""Jones polynomials of closed braids in the skein variable ``s``.

The evaluator rests on one fact: for a fixed word with one marked syllable,
the Jones value of the closure as a function of that syllable's exponent
satisfies the two-term recurrence

    V(e+2) = (s^3 - s) V(e+1) + s^4 V(e)

with characteristic roots -s and s^3. Solving the recurrence against the
exponents 0 and 1 gives the single-syllable reduction

    (s^2 + 1) V(... x^a ...) = W0(a) V(... ...) + W1(a) V(... x ...)

with the weight pair of :func:`skein_weights`, and applying it to every
syllable at once expands any word over the 2^k words with exponents in
{0, 1} (:func:`expand`). The division by s^2 + 1 is always exact.

:func:`jones` reduces a word by cyclic normalization, split unions across
unused generators, destabilization, and the single-syllable reduction,
ending at the bracket oracle for the residual all-exponent-one words.
Values are memoized on canonical cyclic forms.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Mapping

from . import bracket
from .braid import BraidWord, ExponentFamily, Syllable
from .fibonacci import FibSpec, series_denominator, series_weight
from .laurent import ONE, LaurentPoly

# the recurrence in any one syllable exponent has these roots
SKEIN_SPEC = FibSpec(r1=LaurentPoly.monomial(1, -1), r2=LaurentPoly.monomial(3))

LOOP_VALUE = LaurentPoly({1: -1, -1: -1})  # value of one extra unknot component
_S2P1 = LaurentPoly({2: 1, 0: 1})  # s^2 + 1, the expansion denominator
_UP1 = LaurentPoly({3: 1, 1: -1})  # s^3 - s
_UP0 = LaurentPoly.monomial(4)  # s^4
_DOWN1 = LaurentPoly({-3: 1, -1: -1})  # s^-3 - s^-1
_DOWN0 = LaurentPoly.monomial(-4)  # s^-4

MemoTable = dict[tuple[int, tuple[Syllable, ...]], LaurentPoly]

_SHARED_MEMO: MemoTable = {}


def step_up(v_e: LaurentPoly, v_e1: LaurentPoly) -> LaurentPoly:
    """V(e+2) from (V(e), V(e+1))."""
    return _UP1 * v_e1 + _UP0 * v_e


def step_down(v_e1: LaurentPoly, v_e2: LaurentPoly) -> LaurentPoly:
    """V(e) from (V(e+1), V(e+2)); inverts :func:`step_up`."""
    return _DOWN1 * v_e1 + _DOWN0 * v_e2


def skein_weights(exp: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Weight pair (W0, W1) that reduces one exponent to 0 and 1.

    W0(a) = s^(3a) + (-1)^a s^(a+2) and W1(a) = s^(3a-1) + (-1)^(a+1) s^(a-1);
    they solve the exponent recurrence with seeds (s^2+1, 0) and (0, s^2+1).

    >>> skein_weights(2)[0].text(), skein_weights(2)[1].text()
    ('s^6 + s^4', 's^5 - s')
    """
    sign = 1 if exp % 2 == 0 else -1
    w0 = LaurentPoly([(3 * exp, 1), (exp + 2, sign)])
    w1 = LaurentPoly([(3 * exp - 1, 1), (exp - 1, -sign)])
    return w0, w1


def unlink_value(components: int) -> LaurentPoly:
    """Jones polynomial of an unlink with the given component count."""
    if components < 1:
        raise ValueError("need at least one component")
    return LOOP_VALUE ** (components - 1)


def square_free_value(strands: int, syllable_count: int) -> LaurentPoly:
    """Value of the closure of x_{i1} ... x_{ik} with i1 < ... < ik.

    Such a closure is an unlink with strands - k components, hence
    (-s - s^-1)^(strands - k - 1).
    """
    if syllable_count >= strands:
        raise ValueError("an ascending square-free word has fewer syllables than strands")
    return unlink_value(strands - syllable_count)


@dataclasses.dataclass(frozen=True)
class ExpansionTerm:
    """One summand of the {0,1}-exponent expansion of a word."""

    bits: tuple[int, ...]
    weight: LaurentPoly
    base: BraidWord


def expand(word: BraidWord) -> list[ExpansionTerm]:
    """All expansion terms of a word with k syllables (at most 2^k).

    Summing weight * V(base) over the terms and dividing by (s^2+1)^k
    recovers V(word) exactly; terms whose weight vanishes (a syllable with
    exponent 1 sent to 0) are dropped.
    """
    syls = word.syllables
    pairs = [skein_weights(s.exp) for s in syls]
    terms: list[ExpansionTerm] = []
    for bits in itertools.product((0, 1), repeat=len(syls)):
        weight = ONE
        dead = False
        for pair, j in zip(pairs, bits):
            w = pair[j]
            if not w:
                dead = True
                break
            weight = weight * w
        if dead:
            continue
        base = BraidWord(
            word.strands,
            tuple(Syllable(s.gen, 1) for s, j in zip(syls, bits) if j),
        )
        terms.append(ExpansionTerm(bits, weight, base))
    return terms


def expansion_value(word: BraidWord, memo: MemoTable | None = None) -> LaurentPoly:
    """Evaluate a word through the full {0,1} expansion.

    Costs 2^k base evaluations instead of the 2^(sum |a_i|) smoothing
    states of the naive bracket; equals :func:`jones` on every input.
    """
    total = LaurentPoly()
    for term in expand(word):
        total = total + term.weight * jones(term.base, memo)
    return total.exact_div(_S2P1 ** len(word.syllables))


def jones(word: BraidWord, memo: MemoTable | None = None) -> LaurentPoly:
    """Jones polynomial of the closure of a braid word.

    Exact over the integers in the variable s. Pass a dict as ``memo`` to
    isolate caching; by default a module-wide table is shared.
    """
    if memo is None:
        memo = _SHARED_MEMO
    word = word.canonical()
    key = (word.strands, word.syllables)
    cached = memo.get(key)
    if cached is not None:
        return cached
    # split unions and destabilizations run in a loop, not by recursion,
    # so long chains of either cannot exhaust the stack
    loops = 0  # unknot components split off, each a LOOP_VALUE factor
    value = ONE
    parts = [word]
    while parts:
        part = parts.pop()
        if not part.syllables:
            loops += part.strands - 1
            continue
        halves = part.split_absent()
        if halves is not None:
            loops += 1
            parts.extend(half.canonical() for half in halves)
            continue
        smaller = part.destabilized()
        if smaller is not None:
            parts.append(smaller.canonical())
            continue
        part_key = (part.strands, part.syllables)
        part_value = memo.get(part_key)
        if part_value is None:
            part_value = _evaluate(part, memo)
            memo[part_key] = part_value
        value = part_value if value is ONE else value * part_value
    if loops:
        value = value * LOOP_VALUE**loops
    memo[key] = value
    return value


def _evaluate(word: BraidWord, memo: MemoTable) -> LaurentPoly:
    # word is canonical, uses every generator and does not destabilize
    for i, syl in enumerate(word.syllables):
        if syl.exp != 1:
            w0, w1 = skein_weights(syl.exp)
            v0 = jones(word.without_syllable(i), memo)
            v1 = jones(word.with_exponent(i, 1), memo)
            return (w0 * v0 + w1 * v1).exact_div(_S2P1)
    return bracket.jones_via_bracket(word)


class FamilySweep:
    """Lazy two-sided table of Jones values of a one-slot family.

    Evaluates the word at slot exponents 0 and 1 once, then extends in
    either direction by the exponent recurrence.
    """

    def __init__(self, family: ExponentFamily, memo: MemoTable | None = None):
        self.family = family
        self._memo = memo
        self._values: dict[int, LaurentPoly] = {}

    def value(self, exp: int) -> LaurentPoly:
        vals = self._values
        if not vals:
            vals[0] = jones(self.family.instantiate(0), self._memo)
            vals[1] = jones(self.family.instantiate(1), self._memo)
        hi = max(vals)
        while exp > hi:
            vals[hi + 1] = step_up(vals[hi - 1], vals[hi])
            hi += 1
        lo = min(vals)
        while exp < lo:
            vals[lo - 1] = step_down(vals[lo], vals[lo + 1])
            lo -= 1
        return vals[exp]

    def __getitem__(self, exp: int) -> LaurentPoly:
        return self.value(exp)


def family_values(
    family: ExponentFamily,
    lo: int,
    hi: int,
    memo: MemoTable | None = None,
) -> list[LaurentPoly]:
    """Values of a family on the inclusive exponent range [lo, hi]."""
    if lo > hi:
        raise ValueError("empty exponent range")
    sweep = FamilySweep(family, memo)
    return [sweep.value(e) for e in range(lo, hi + 1)]


@dataclasses.dataclass(frozen=True)
class GeneratingFunction:
    """Rational generating function of Jones values over a syllable grid.

    For a generator index sequence (i1 .. ik) on a fixed strand count,
    the series sum over a1..ak >= 0 of V(x_i1^a1 ... x_ik^ak) t1^a1...tk^ak
    equals

        prod_j q(t_j)^-1  *  sum over J in {0,1}^k of
            Q_J1(t_1) ... Q_Jk(t_k) V(x_i1^J1 ... x_ik^Jk)

    with q(t) = (1 + s t)(1 - s^3 t) = 1 - (s^3 - s) t - s^4 t^2,
    Q_0(t) = 1 - (s^3 - s) t and Q_1(t) = t. The 2^k corner seeds are the
    only braid evaluations needed; coefficients come from unrolling the
    1/q series per variable.
    """

    strands: int
    indices: tuple[int, ...]
    seeds: Mapping[tuple[int, ...], LaurentPoly]

    # per-variable numerator and denominator, as {t power: coefficient}
    Q0 = {0: ONE, 1: -_UP1}
    Q1 = {1: ONE}
    DENOMINATOR = {0: ONE, 1: -_UP1, 2: -_UP0}

    @classmethod
    def build(
        cls,
        strands: int,
        indices: Iterable[int],
        memo: MemoTable | None = None,
    ) -> GeneratingFunction:
        indices = tuple(indices)
        if not indices:
            raise ValueError("need at least one syllable index")
        seeds: dict[tuple[int, ...], LaurentPoly] = {}
        for bits in itertools.product((0, 1), repeat=len(indices)):
            word = BraidWord(
                strands,
                tuple(Syllable(g, j) for g, j in zip(indices, bits)),
            )
            seeds[bits] = jones(word, memo)
        return cls(strands, indices, seeds)

    def coefficient(self, exponents: Iterable[int]) -> LaurentPoly:
        """Series coefficient at t1^a1 ... tk^ak for nonnegative a's.

        Equals the Jones value of x_i1^a1 ... x_ik^ak. Negative exponents
        are outside the series cone; evaluate those words directly.
        """
        exps = tuple(exponents)
        if len(exps) != len(self.indices):
            raise ValueError("exponent count does not match the index sequence")
        if any(a < 0 for a in exps):
            raise ValueError("series coefficients need nonnegative exponents")
        den = series_denominator(SKEIN_SPEC, max(exps))
        total = LaurentPoly()
        for bits, seed in self.seeds.items():
            term = seed
            for a, j in zip(exps, bits):
                term = term * series_weight(SKEIN_SPEC, j, a, den)
            total = total + term
        return total
