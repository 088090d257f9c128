"""Jones polynomials of closed braids in the skein variable ``s``.

The evaluator rests on one fact: for a fixed word with one marked syllable,
the Jones value of the closure as a function of that syllable's exponent
satisfies the two-term recurrence

    V(e+2) = (s^3 - s) V(e+1) + s^4 V(e)

with characteristic roots -s and s^3. Solving the recurrence against the
exponents 0 and 1 gives the single-syllable reduction

    (s^3 + s) V(... x^a ...) = S0(a) V(... ...) + S1(a) V(... x ...)

with the basis pair ``s_basis(SKEIN_SPEC, a)``; applied to every syllable
at once it expands any word over its 2^k corner words, exponents in {0, 1},
which :func:`expansion_value` contracts by ``general_term`` and
:func:`expand` lists. The division is always exact. That expansion and
:class:`GeneratingFunction` are the paper's claims, checks on :func:`jones`.

:func:`jones` evaluates a word in two stages, with no recursion and no
call into the bracket oracle. First it splits the closure at every
generator that occurs in at most one syllable: such a generator with
exponent a contributes the factor V(T(2, a)) of the two-strand torus link
(the unlink of two components when a = 0, the unknot when a = +-1), and the
strands on either side evaluate separately. Then each remaining part goes
through a syllable-level Temperley-Lieb transfer. In the same quadratic
relation a whole syllable acts on planar matchings as

    x_i^a = A^-a + beta_a e_i,   (1 + A^4) beta_a = A^(2-a) (1 - (-A^4)^a),

so a syllable with few terms in beta_a applies it as one product, while a
longer one scales every state by (1 + A^4) to apply binomial shifts only,
and one exact division at the end removes (1 + A^4) per long syllable. An
e_i move that opens no loop is a saddle on the closure and changes its loop
count by one, so a matching's polynomial is s^p C(s^2) with p fixed by the
parity of its loop count (the parity behind Kauffman's state sum). Each C
is packed into one integer as its value at s^2 = 2^width (Kronecker
substitution), so each shift, sum and product is one integer operation, at
a cost in proportion to the width. The width is chosen once per word, the
narrowest of 8, 16, 32, 40, 48, 56 and 64 bits, or a multiple of 64, that
holds a proved bound on the coefficients of its value
(:func:`_coefficient_bound`); every part and twist is packed at that width,
their quotients are multiplied as integers, and the digits of the product
are read back once, in C, through a memoryview, a 5- to 7-byte digit
widened to 8 bytes first.
"""

from __future__ import annotations

import itertools
import sys
from typing import Iterable, Mapping, NamedTuple, Sequence

from .braid import BraidWord, CapExceeded, Syllable, reduce_cyclic
from .fibonacci import FibSpec, general_term, s_basis
from .laurent import LaurentPoly, NotDivisible

# the recurrence in any one syllable exponent has these roots
SKEIN_SPEC = FibSpec(r1=LaurentPoly.monomial(1, -1), r2=LaurentPoly.monomial(3))

LOOP_VALUE = LaurentPoly({1: -1, -1: -1})  # value of one extra unknot component

# Catalan(12): the live matchings of a 12-strand transfer
TRANSFER_CAP = 208_012
# Syllables of an expansion or a generating function, 2^k jones calls each:
# 2^12 seeds on 3 strands took 0.3 s on a 2-vCPU host, 2^14 1.1 s
CORNER_CAP = 12
# Bits one packed transfer state may reach: 40 times the 0.8 Mbit of the
# quartic x1^3000 x2^3000 x1^3000 x2^3000, and far below what exhausts memory
PACKED_BITS_CAP = 1 << 25
# Strands of a word: the closure of x1 x2^-1 took 0.07 s on 1,024 strands,
# 0.17 s on 1,448, 0.4-0.7 s on 2,048 and 1.7 s on 2,896 (2-vCPU host), about
# n^3; PACKED_BITS_CAP alone would admit 5,792 strands (n^2 bits), 12.6 s
STRAND_CAP = 1 << 11
# Bits the live states of a transfer may reach together, counting each at
# the packed bound of one state: 32 MiB
LIVE_BITS_CAP = 1 << 28
# Bits of packed G_a, (|a| - 1) * width, up to which a syllable divides out
# u + 1 where it stands. Timed on 4-6 strands, 7-14 syllables of one |a|, the
# product with G_a beats carrying u + 1 up to about 256 bits at widths 64-256
# (|a| = 5, 3, 2) and 350 at width 32. At widths 40, 48 and 56 (|a| up to 7,
# 6 and 5) three sets of 40 such words took 0.78-1.04 of the long kernel's
# time at the limit and 0.91-1.16 one |a| above it, 280-288 bits
SHORT_BITS = 256
# The sign of each byte, spread over a whole byte: 0x00 below 0x80, 0xff from it
_SIGN_BYTES = bytes(128) + b"\xff" * 128

Syllables = list[tuple[int, int]]  # (generator, exponent) pairs


step_up = SKEIN_SPEC.step  # V(e+2) from (V(e), V(e+1))


def unlink_value(components: int) -> LaurentPoly:
    """Jones polynomial of an unlink with the given component count."""
    if components < 1:
        raise ValueError("need at least one component")
    return LOOP_VALUE ** (components - 1)


class ExpansionTerm(NamedTuple):
    """One summand of the {0,1}-exponent expansion of a word."""

    bits: tuple[int, ...]
    weight: LaurentPoly
    base: BraidWord


def expand(word: BraidWord) -> list[ExpansionTerm]:
    """All expansion terms of a word with k syllables (at most 2^k).

    Summing weight * V(base) over the terms and dividing by (s^2+1)^k
    recovers V(word) exactly; terms whose weight vanishes (a syllable with
    exponent 1 sent to 0) are dropped. A weight is the product of the
    syllables' ``s_basis`` entries over s^k, as D = s^3 + s. Raises
    CapExceeded, before any term, above ``CORNER_CAP`` syllables.

    >>> [t.weight.text() for t in expand(BraidWord(2, (Syllable(1, 2),)))]
    ['s^6 + s^4', 's^5 - s']
    """
    syls = word.syllables
    if len(syls) > CORNER_CAP:
        raise CapExceeded(f"2^{len(syls)} expansion terms exceed the cap of 2^{CORNER_CAP}")
    pairs = [s_basis(SKEIN_SPEC, s.exp) for s in syls]
    terms: list[ExpansionTerm] = []
    for bits in itertools.product((0, 1), repeat=len(syls)):
        factors = [pair[j] for pair, j in zip(pairs, bits)]
        if not all(factors):
            continue
        weight = LaurentPoly.monomial(-len(syls))
        for w in factors:
            weight = weight * w
        base = BraidWord(
            word.strands,
            tuple(Syllable(s.gen, 1) for s, j in zip(syls, bits) if j),
        )
        terms.append(ExpansionTerm(bits, weight, base))
    return terms


def expansion_value(word: BraidWord) -> LaurentPoly:
    """Evaluate a word through its {0,1} corner expansion.

    Admits the word as :func:`jones` does, then makes 2^k :func:`jones`
    calls, one per corner, instead of the 2^(sum |a_i|) smoothing states of
    the naive bracket, and contracts them in one :func:`general_term`, exact
    at negative exponents too; equals :func:`jones` on every input.
    """
    syls = word.syllables
    if not syls:
        return jones(word)
    _factors(word)
    seeds = _corner_seeds(word.strands, [s.gen for s in syls])
    return general_term(SKEIN_SPEC, seeds, [s.exp for s in syls])


def _corner_seeds(strands: int, gens: Sequence[int]) -> dict[tuple[int, ...], LaurentPoly]:
    """:func:`jones` of the word on ``gens`` at every {0,1} exponent vector.

    Raises CapExceeded above ``CORNER_CAP`` syllables, before the first call.
    """
    if len(gens) > CORNER_CAP:
        raise CapExceeded(f"2^{len(gens)} corner seeds exceed the cap of 2^{CORNER_CAP}")
    return {
        bits: jones(BraidWord(strands, tuple(map(Syllable, gens, bits))))
        for bits in itertools.product((0, 1), repeat=len(gens))
    }


def jones(word: BraidWord) -> LaurentPoly:
    """Jones polynomial of the closure of a braid word.

    Exact over the integers in the variable s. One digit width serves the
    whole call: each cut part and twist is evaluated packed at that width,
    the packed values are multiplied as integers, and the product's digits
    are read once; nothing is cached. Raises CapExceeded above
    ``STRAND_CAP`` strands or when a packed state of a part or twist could
    exceed ``PACKED_BITS_CAP`` bits, both before any transfer runs, and
    when a transfer would hold more than ``TRANSFER_CAP`` matchings at once
    or its live states more than ``LIVE_BITS_CAP`` bits together.
    """
    width, factors = _factors(word)
    packed, low, sign = 1, 0, 1
    for strands, part, count, span in factors:
        quot, part_low, part_sign = _transfer(strands, part, width, span)
        packed *= quot**count
        low += part_low * count
        sign *= part_sign**count
    return _unpack(packed, width, low, sign)


def _factors(word: BraidWord) -> tuple[int, list[tuple[int, Syllables, int, int]]]:
    """Digit width and (strands, part, count, span) factors of ``word``'s value.

    The evaluator's one admission: CapExceeded above ``STRAND_CAP``
    strands, or where ``span``, the bits one packed state may reach,
    exceeds ``PACKED_BITS_CAP``, before any transfer runs.
    """
    # before the coefficient bound builds its 2^(n-1)
    if word.strands > STRAND_CAP:
        raise CapExceeded(f"{word.strands} strands exceed the cap of {STRAND_CAP}")
    # one digit width for every part and twist: only the product is read
    # back, and its digits are the coefficients of this word's value
    syls = reduce_cyclic((s.gen, s.exp) for s in word.syllables)
    width = _width(word.strands, [a for _, a in syls])
    twists: dict[int, int] = {}  # exponent of a lone generator -> count
    factors = [(n, part, 1) for n, part in _split_lone(word.strands, syls, twists)]
    # the torus links T(2, exp); the unknot's value is 1
    factors += [(2, [(1, exp)], count) for exp, count in twists.items() if exp not in (1, -1)]
    spanned = []
    for strands, part, count in factors:
        # a syllable raises a state's degree in u by at most |a| + 1, the
        # closure by at most n
        span = width * (strands + sum(abs(a) + 1 for _, a in part))
        if span > PACKED_BITS_CAP:
            raise CapExceeded(
                f"a packed transfer state of up to {span} bits exceeds "
                f"the cap of {PACKED_BITS_CAP} bits"
            )
        spanned.append((strands, part, count, span))
    return width, spanned


def _split_lone(
    strands: int, syls: Syllables, twists: dict[int, int]
) -> list[tuple[int, Syllables]]:
    """Parts of the closure of ``syls`` in which each generator occurs twice or more.

    A generator x_g in at most one syllable x_g^a cuts the closure: the
    syllables on generators below g commute with those above g, and the
    skein reduction of x_g^a against the split union (a = 0) and the
    connected sum (a = 1) of the two sides gives
    V(word) = V(below) V(T(2, a)) V(above). Each cut adds its exponent
    (0 if x_g is absent) to ``twists``; the pieces are cut again, since
    syllables that the cut separated may merge.
    """
    parts: list[tuple[int, Syllables]] = []
    todo = [(strands, syls)]
    while todo:
        strands, syls = todo.pop()
        syls = reduce_cyclic(syls)
        count = [0] * strands
        last = [0] * strands
        for gen, exp in syls:
            count[gen] += 1
            last[gen] = exp
        cuts = [g for g in range(1, strands) if count[g] < 2]
        if not cuts:
            parts.append((strands, syls))
            continue
        for g in cuts:
            twists[last[g]] = twists.get(last[g], 0) + 1
        # piece i holds strands bounds[i] + 1 .. bounds[i + 1]
        bounds = [0, *cuts, strands]
        piece = [0] * strands
        for i in range(len(cuts) + 1):
            for g in range(bounds[i] + 1, bounds[i + 1]):
                piece[g] = i
        groups: list[Syllables] = [[] for _ in bounds[1:]]
        for gen, exp in syls:
            if count[gen] > 1:
                i = piece[gen]
                groups[i].append((gen - bounds[i], exp))
        for i, group in enumerate(groups):
            if group:
                todo.append((bounds[i + 1] - bounds[i], group))
    return parts


class _Matchings:
    """Planar matchings on one strand count and the action of each e_i.

    The 2n boundary points of a matching are read around the disc: top
    points of strands 1..n, then bottom points of strands n..1, so the top
    of strand t is point t - 1 and its bottom is point 2n - t. A matching
    is a Dyck word, an int whose bit p is set when point p opens a pair.
    ``act[g][m]`` is e_g applied to m, equal to m when e_g closes a loop;
    ``odd[m]`` is (loops(m) + strands) mod 2, the parity of the power of s
    in m's state. Entries are filled the first time a transfer meets them.
    """

    def __init__(self, strands: int):
        self.strands = strands
        self.identity = (1 << strands) - 1  # strand t's top paired to its bottom
        self.act: list[dict[int, int]] = [{} for _ in range(strands)]
        self.loop_count: dict[int, int] = {}
        self.odd: dict[int, int] = {}
        self.size = strands  # entries held, counting each empty act table as one
        self.loops(self.identity)

    def apply(self, gen: int, m: int) -> int:
        """e_gen on m: cap the bottoms of strands gen and gen + 1, then cup."""
        j = 2 * self.strands - 1 - gen  # bottom of strand gen + 1; j + 1 is strand gen's
        low, high = m >> j & 1, m >> (j + 1) & 1
        if low and not high:
            out = m  # j and j + 1 are partners: a closed loop
        elif high and not low:
            out = m ^ (3 << j)  # their partners pair up across them
        elif low:
            # both open: j + 1's partner p closes, and now opens to j's partner
            p, depth = j + 2, 1
            while True:
                depth += 1 if m >> p & 1 else -1
                if not depth:
                    break
                p += 1
            out = m ^ (1 << (j + 1)) ^ (1 << p)
        else:
            # both close: j's partner p opened to j, and now closes j + 1's partner
            p, depth = j - 1, 1
            while True:
                depth += -1 if m >> p & 1 else 1
                if not depth:
                    break
                p -= 1
            out = m ^ (1 << p) ^ (1 << j)
        self.act[gen][m] = out
        self.size += 1
        self.loops(out)  # fills odd[out]
        return out

    def loops(self, m: int) -> int:
        """Loop count of the closure of m, which joins point p to 2n-1-p."""
        count = self.loop_count.get(m)
        if count is None:
            size = 2 * self.strands
            partner = [0] * size
            opened: list[int] = []
            for p in range(size):
                if m >> p & 1:
                    opened.append(p)
                else:
                    q = opened.pop()
                    partner[p], partner[q] = q, p
            seen = [False] * size
            count = 0
            for start in range(size):
                if seen[start]:
                    continue
                count += 1
                p = start
                while not seen[p]:
                    q = partner[p]
                    seen[p] = seen[q] = True
                    p = size - 1 - q
            self.loop_count[m] = count
            self.odd[m] = (count + self.strands) & 1
            self.size += 2
        return count


# The tables by strand count: a cache, filled as transfers meet matchings
# and dropped whole once it holds more than TRANSFER_CAP entries.
_TABLES: dict[int, _Matchings] = {}


def _matchings(strands: int) -> _Matchings:
    if sum(table.size for table in _TABLES.values()) > TRANSFER_CAP:
        _TABLES.clear()
    table = _TABLES.get(strands)
    if table is None:
        table = _TABLES[strands] = _Matchings(strands)
    return table


def _width(strands: int, exps: Iterable[int]) -> int:
    """Digit width of a packed value: 8, 16, 32, 40, 48, 56, 64 or a multiple of 64.

    The smallest such width whose signed digits exceed
    :func:`_coefficient_bound` of a closure on ``strands`` strands with
    syllable exponents ``exps``; these are the widths :func:`_unpack` reads.
    Every shift, sum and product of a packed value costs in proportion to
    its width, so above 32 bits the width steps by whole bytes; at or below
    32 a narrower odd width saves less than its widening costs.
    """
    bits = _coefficient_bound(strands, exps).bit_length() + 1
    if bits > 64:
        return -(-bits // 64) * 64
    if bits > 32:
        return -(-bits // 8) * 8
    return max(8, 1 << (bits - 1).bit_length())


def _coefficient_bound(strands: int, exps: Iterable[int]) -> int:
    """A bound 2^(n-1) F on every |coefficient| of a closure's value.

    Here F = 1 + sum_i prod_{j>i} (1 + a_(j)) over the exponents sorted by
    size, |a_(1)| >= ... >= |a_(k)|. Proof, on the transfer of
    :func:`_transfer` divided by (u + 1)^k, with u = s^2: a syllable x_g^a
    maps a matching m to itself times a signed monomial (the identity, and
    e_g when it closes a loop), and, when e_g opens no loop, to e_g m times
    a signed monomial times the geometric sum G_a = sum_{i<|a|} (-u)^i. So
    the value is a sum over the sets T of syllables whose e_g branch a path
    takes, one path per T, each a signed monomial times prod_{t in T} G_t
    (G_t a monomial where e_g closes a loop) times the closure weight
    delta^(L-1), whose coefficients in u have absolute sum 2^(L-1) <=
    2^(n-1). A product of unit geometric sums has coefficients at most the
    product of the lengths of all but the longest, so grouping each T by
    its longest member i leaves sum over subsets of the later members,
    prod_{j>i} (1 + a_(j)), and T empty adds 1. As prod (1 + a_j) =
    1 + sum_i a_(i) prod_{j>i} (1 + a_(j)), F never exceeds prod (1 + |a|).
    """
    total = grow = 1
    for a in sorted(map(abs, exps)):  # from the shortest sum up
        total += grow
        grow *= 1 + a
    return total << (strands - 1)


def _transfer(strands: int, syls: Syllables, width: int, span: int) -> tuple[int, int, int]:
    """Jones value of a closure by the syllable-level transfer, packed.

    Returns (quotient, low, sign): the value is sign times the polynomial
    whose coefficient at s^(low + 2i) is digit i of quotient in base
    2^width, the form that :func:`_unpack` reads; ``width`` and ``span``,
    the bits one packed state may reach, come from :func:`_factors`. States
    map matchings to polynomials in s. An e_g move that opens no loop is a
    saddle on the closure, so it changes the closure's loop count by
    exactly one; the state of matching m is
    therefore s^odd(m) C(u) in u = s^2, with odd(m) = (loops(m) + n) mod 2,
    and C is packed into one int as its value at u = 2^width. Every state
    carries the common power s^shift and the factor (u + 1)^j after j long
    syllables, so that syllable x_g^a acts by

                            short           long
        identity:           1               u + 1
        e_g:                s G_a           s (1 - (-1)^a u^a)
        e_g closing a loop: (-1)^a u^a      (-1)^a u^a (u + 1)

    all times u^-h, h = min(0, a), which keeps the exponents nonnegative.
    Here G_a = (1 - (-u)^a) / (1 + u) has |a| terms, and a syllable is
    short when packed G_a spans at most ``SHORT_BITS`` bits. The factor s of
    an e_g move goes into odd(to) from an even state and becomes one more
    factor u from an odd one. These are the bracket's weights in s = A^2
    once A^-a is taken out of each syllable; with the writhe normalization
    (-A)^(3w) the A^-w taken out becomes (-1)^w s^w. The closure weighs
    each matching by delta^(loops - 1) with delta = -s - s^-1, and one
    exact division removes (u + 1)^kept, kept the number of long
    syllables. Raises CapExceeded after a syllable when its live states
    are more than ``TRANSFER_CAP``, or at ``span`` bits each could exceed
    ``LIVE_BITS_CAP`` bits together.
    """
    table = _matchings(strands)
    odd = table.odd
    states = {table.identity: 1}
    step = (1 << width) + 1  # u + 1
    shift = kept = 0
    for gen, a in syls:
        h = a if a < 0 else 0
        shift += 2 * h
        id0 = -h * width
        e1 = a * width  # the shift of (-1)^a u^a
        loop = id0 + e1
        even = a % 2 == 0
        act = table.act[gen]
        nxt: dict[int, int] = {}
        get = nxt.get
        # e_g's targets all close a loop, so where e_g closes none on m,
        # nothing but m writes nxt[m]
        if (abs(a) - 1) * width <= SHORT_BITS:
            g = ((1 << id0) - ((1 << loop) if even else -(1 << loop))) // step
            opens = (g, g << width)  # s G_a out of an even state, an odd state
            for m, c in states.items():
                to = act.get(m)
                if to is None:
                    to = table.apply(gen, m)
                if to == m:
                    v = c << loop
                    nxt[m] = get(m, 0) + (v if even else -v)
                else:
                    nxt[m] = c << id0
                    nxt[to] = get(to, 0) + c * opens[odd[m]]
        else:
            kept += 1
            id1 = id0 + width
            e0 = (id0, id1)  # the e_g shift out of an even state, an odd state
            loop1 = loop + width
            for m, c in states.items():
                to = act.get(m)
                if to is None:
                    to = table.apply(gen, m)
                if to == m:
                    v = (c << loop) + (c << loop1)
                    nxt[m] = get(m, 0) + (v if even else -v)
                else:
                    nxt[m] = (c << id0) + (c << id1)
                    x = e0[odd[m]]
                    v = c << (x + e1)
                    nxt[to] = get(to, 0) + (c << x) + (-v if even else v)
        if len(nxt) > TRANSFER_CAP:
            raise CapExceeded(
                f"{len(nxt)} transfer states on {strands} strands exceed "
                f"the cap of {TRANSFER_CAP}"
            )
        if len(nxt) * span > LIVE_BITS_CAP:
            raise CapExceeded(
                f"{len(nxt)} live transfer states of up to {span} bits each "
                f"exceed the cap of {LIVE_BITS_CAP} bits"
            )
        states = nxt
    by_loops: dict[int, int] = {}
    loop_count = table.loop_count  # filled for every matching a transfer meets
    for m, c in states.items():
        loops = loop_count[m]
        by_loops[loops] = by_loops.get(loops, 0) + c
    total = 0
    for loops, c in by_loops.items():
        # s^odd s^(n-1) delta^(loops-1)
        #   = (-1)^(loops-1) s^(n-loops+odd) (u+1)^(loops-1), n-loops+odd even
        up = (strands - loops + ((strands + loops) & 1)) // 2
        v = (c << up * width) * step ** (loops - 1)
        total += v if loops % 2 else -v
    quot, rem = divmod(total, step**kept)
    if rem:
        raise NotDivisible(f"transfer total is not divisible by (s^2+1)^{kept}")
    writhe = sum(a for _, a in syls)
    return quot, shift - (strands - 1) + writhe, -1 if writhe % 2 else 1


def _unpack(packed: int, width: int, low: int, sign: int) -> LaurentPoly:
    """The polynomial whose coefficient at s^(low + 2i) is sign times digit i.

    ``packed`` is the value at 2^width of a polynomial whose coefficients
    (its signed digits) lie strictly between -2^(width-1) and 2^(width-1);
    ``width`` is 8, 16, 32, 40, 48, 56 or a multiple of 64. Adding half the
    base to every digit leaves no borrows, and flipping that bit back leaves
    each digit in two's complement, so the digits are read in C: as one
    signed limb up to 64 bits, else as 64-bit limbs, the top one signed,
    joined by map. A 5-, 6- or 7-byte digit is first widened to an 8-byte
    slot: its bytes by strided copies, and above them its top byte's sign,
    spread by one ``bytes.translate``. Zero digits at the low end are shifted
    off first; the digits and a range of their exponents then go to the
    ring's trusted constructor as they are, with no dict.
    """
    # most values start with a zero digit or two, which would cost a compress
    zeros = ((packed & -packed).bit_length() - 1) // width if packed else 0
    packed, low = packed >> zeros * width, low + 2 * zeros
    count = packed.bit_length() // width + 1
    size = width // 8
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    twos = (sign * packed + bias) ^ bias
    little = sys.byteorder == "little"
    raw = twos.to_bytes(count * size, sys.byteorder)
    if size in (5, 6, 7):
        # a slot holds the digit's bytes at its low end, the sign at its high end
        pad = 8 - size
        wide = bytearray(8 * count)
        for k in range(size):
            wide[k if little else pad + k :: 8] = raw[k::size]
        fill = raw[size - 1 if little else 0 :: size].translate(_SIGN_BYTES)
        for k in range(size, 8) if little else range(pad):
            wide[k::8] = fill
        raw, size = wide, 8
    limb = min(size, 8)
    per = size // limb  # limbs to a digit
    view = memoryview(raw)
    fmt = "bhiq"[limb.bit_length() - 1]
    order = 1 if little else -1  # least significant limb first
    # a list, which the value keeps; the constructor reads it up to three times
    digits = view.cast(fmt)[::order][per - 1 :: per].tolist()
    lows = view.cast(fmt.upper())[::order]
    for j in range(per - 2, -1, -1):
        high = map(int.__lshift__, digits, itertools.repeat(64))
        digits = list(map(int.__add__, high, lows[j::per]))
    return LaurentPoly._make(range(low, low + 2 * count, 2), digits)


class GeneratingFunction(NamedTuple):
    """Rational generating function of Jones values over a syllable grid.

    For a generator index sequence (i1 .. ik) on a fixed strand count,
    the series sum over a1..ak >= 0 of V(x_i1^a1 ... x_ik^ak) t1^a1...tk^ak
    equals

        prod_j q(t_j)^-1  *  sum over J in {0,1}^k of
            Q_J1(t_1) ... Q_Jk(t_k) V(x_i1^J1 ... x_ik^Jk)

    with q(t) = (1 + s t)(1 - s^3 t) = 1 - (s^3 - s) t - s^4 t^2,
    Q_0(t) = 1 - (s^3 - s) t and Q_1(t) = t. The 2^k corner seeds are the
    only braid evaluations needed. The coefficient of t^n in Q_j(t)/q(t) is
    S_j[n]/D of the closed-form basis :func:`s_basis`, so a coefficient is
    one :func:`general_term` over the corner seeds, at any exponents.
    :meth:`build` evaluates the seeds, one :func:`jones` call each.
    """

    strands: int
    indices: tuple[int, ...]
    seeds: Mapping[tuple[int, ...], LaurentPoly]

    @classmethod
    def build(cls, strands: int, indices: Iterable[int]) -> GeneratingFunction:
        indices = tuple(indices)
        if not indices:
            raise ValueError("need at least one syllable index")
        return cls(strands, indices, _corner_seeds(strands, indices))

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
        _factors(BraidWord(self.strands, tuple(map(Syllable, self.indices, exps))))
        return general_term(SKEIN_SPEC, self.seeds, exps)
