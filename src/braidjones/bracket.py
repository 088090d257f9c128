"""Kauffman bracket evaluation of braid closures, as an independent oracle.

Two evaluators share one convention block: a naive sum over all ``2^c``
crossing smoothings, and a transfer-matrix pass through the planar diagram
algebra whose cost is polynomial in word length for fixed strand count.
``jones_via_bracket`` applies the writhe correction and rewrites the
bracket variable ``A`` into the skein variable ``s``. Nothing here touches
the recurrence engine, so agreement between the two pipelines is a real
cross-check.

Convention (pinned by the unknot, Hopf link and trefoil values in the
tests): for a letter ``x_i`` the pass-through smoothing carries weight
A^-1 and the cap-cup smoothing carries A, with the two weights swapped
for ``x_i^-1``; closed loops count ``delta = -A^2 - A^-2`` per loop beyond
the first; the closure value is normalized by ``(-A)^(3 writhe)`` and the
final substitution is ``s = A^2``. Flipping either the smoothing weights
or the sign of the writhe exponent mirrors every chiral value and breaks
those fixtures.
"""

from __future__ import annotations

from functools import cache

from .braid import BraidWord, CapExceeded
from .laurent import LaurentPoly

# Laurent polynomials in the smoothing variable A
BracketPoly = LaurentPoly

A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
DELTA = LaurentPoly({2: -1, -2: -1})

DEFAULT_MAX_CROSSINGS = 24
DEFAULT_MAX_STRANDS = 12
# Strands plus crossings that jones_via_bracket takes: its transfer pass, about
# c^2, took 0.9 s at 1,000 crossings on 3 strands and 14 s at 4,000 (2 vCPUs)
SIZE_CAP = 1 << 12


class ParityError(ArithmeticError):
    """A bracket value had odd powers of A left after normalization."""


@cache
def _delta_power(n: int) -> BracketPoly:
    return DELTA**n


def _closure_loops(match: tuple[int, ...], n: int) -> int:
    """Loops of the closure of a matching, which joins top point i to n + i."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if not seen[start]:
            loops += 1
            p = start
            while not seen[p]:  # a matching arc, then a closure arc
                q = match[p]
                seen[p] = seen[q] = True
                p = q + n if q < n else q - n
    return loops


def bracket_naive(word: BraidWord, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> BracketPoly:
    """Bracket of the closure by brute force over all smoothing states.

    One depth-first walk over the smoothing choices, letter by letter, so
    that states share the work of their common prefix. The wire segments
    live in an undoable union-find (union by size, no path compression,
    undone in LIFO order from a log) with a running count of its classes.
    A cap-cup smoothing joins the two incoming wires and opens the cup
    wire; the pass-through smoothing changes nothing. Once the last letter
    on a strand position is smoothed, the wire there is final, so the
    closure joins it to the top of that position at that depth rather than
    at every state below it. The walk stops one letter early: the last
    letter is the last on both of its positions and every other position is
    closed, so its incoming wires x, y and its positions' tops ri, rj end two
    arcs, paired (x, ri)(y, rj) or (x, y)(ri, rj), never crosswise (the
    diagram is planar). The smoothing that closes each arc on itself keeps
    the class count and the other joins the two arcs into one loop, so of
    the ``2^c`` states, the pass-through leaves have ``loops - (x != ri)``
    loops and the cap-cup leaves ``loops - (x == ri)``. The walk keeps its
    own stack rather than recursing, so the crossing cap is the only limit
    on its depth. It shares no code with ``bracket_tl`` or the evaluator.

    Exponential in the crossing count; guarded by ``max_crossings``.
    """
    c = word.crossing_count()
    if c > max_crossings:
        raise CapExceeded(
            f"{c} crossings exceed the naive cap of {max_crossings} (2^{c} states)"
        )
    letters = list(word.letters())
    n = word.strands
    if not c:
        return _delta_power(n - 1)
    last: dict[int, int] = {}  # position -> its last letter
    for d, (gen, _) in enumerate(letters):
        last[gen - 1] = last[gen] = d
    # tally[(A-exponent + c) * stride + loops]; a leaf has under n + c loops
    stride = n + c
    tally = [0] * ((2 * c + 1) * stride)
    # per depth: the left position, the tally step of the cap-cup weight
    # A^direction (pass-through is A^-direction), the positions it closes
    plan = [
        (gen - 1, direction * stride, tuple(p for p in (gen - 1, gen) if last[p] == d))
        for d, (gen, direction) in enumerate(letters)
    ]
    top = c - 1
    li, ls, _ = plan[top]
    # wires 0..n-1 leave the top of the braid; wire n+d is the cup of letter d
    parent = list(range(n + c))
    size = [1] * (n + c)
    current = list(range(n))  # the wire at each position, at depth d
    log: list[int] = []  # the root each join attached, oldest first
    # per depth: the next choice (0 pass, 1 cap, 2 done), the log length
    # before its joins and the two wires a cap replaced
    step = [0] * c
    mark = [0] * c
    replaced = [(0, 0)] * c
    loops = n  # classes of the wires opened so far
    a = c * stride  # the tally row of the A-exponent so far
    d = 0
    while d >= 0:
        if d == top:
            x = current[li]
            while parent[x] != x:
                x = parent[x]
            r = li
            while parent[r] != r:
                r = parent[r]
            tally[a - ls + loops - (x != r)] += 1
            tally[a + ls + loops - (x == r)] += 1
            d -= 1
            continue
        i, s, closed = plan[d]
        choice = step[d]
        step[d] = choice + 1
        if choice == 0:
            mark[d] = len(log)
            a -= s
        else:
            # undo the joins of the previous choice at this depth
            while len(log) > mark[d]:
                y = log.pop()
                x = parent[y]
                size[x] -= size[y]
                parent[y] = y
                loops += 1
            if choice == 2:
                a -= s
                current[i], current[i + 1] = replaced[d]
                loops -= 1
                d -= 1
                continue
            a += 2 * s
            x, y = replaced[d] = current[i], current[i + 1]
            current[i] = current[i + 1] = n + d
            loops += 1
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                size[x] += size[y]
                log.append(y)
                loops -= 1
        for y in closed:
            x = current[y]
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                size[x] += size[y]
                log.append(y)
                loops -= 1
        d += 1
        step[d] = 0
    result = LaurentPoly()
    for key, count in enumerate(tally):
        if count:
            row, loops = divmod(key, stride)
            result = result + LaurentPoly.monomial(row - c, count) * _delta_power(loops - 1)
    return result


def _identity_matching(n: int) -> tuple[int, ...]:
    # points 0..n-1 are the fixed top boundary, n..2n-1 the working bottom
    return tuple(range(n, 2 * n)) + tuple(range(n))


def bracket_tl(word: BraidWord, max_strands: int = DEFAULT_MAX_STRANDS) -> BracketPoly:
    """Bracket of the closure via the planar matching transfer pass.

    Maintains a weighted sum of noncrossing matchings of the boundary
    (at most Catalan(strands) of them) and applies one crossing at a
    time, so the cost is linear in the crossing count for fixed strand
    count. Guarded by ``max_strands``.
    """
    n = word.strands
    if n > max_strands:
        raise CapExceeded(f"{n} strands exceed the transfer cap of {max_strands}")
    states: dict[tuple[int, ...], BracketPoly] = {_identity_matching(n): LaurentPoly.monomial(0)}
    for gen, direction in word.letters():
        pass_w = A_INV if direction > 0 else A
        cap_w = A if direction > 0 else A_INV
        loop_w = cap_w * DELTA
        p = n + gen - 1
        q = p + 1
        nxt: dict[tuple[int, ...], BracketPoly] = {}

        def bump(key: tuple[int, ...], val: BracketPoly) -> None:
            prev = nxt.get(key)
            nxt[key] = val if prev is None else prev + val

        for match, coeff in states.items():
            bump(match, coeff * pass_w)
            a, b = match[p], match[q]
            if a == q:
                # p and q were already partners: the cap closes a loop and
                # the cup restores the same matching
                bump(match, coeff * loop_w)
            else:
                rewired = list(match)
                rewired[a], rewired[b] = b, a
                rewired[p], rewired[q] = q, p
                bump(tuple(rewired), coeff * cap_w)
        states = nxt
    result = LaurentPoly({0: 0})
    for match, coeff in states.items():
        result = result + coeff * _delta_power(_closure_loops(match, n) - 1)
    return result


def jones_via_bracket(
    word: BraidWord,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    max_strands: int = DEFAULT_MAX_STRANDS,
) -> LaurentPoly:
    """Jones polynomial of the closure from the bracket alone.

    Uses the transfer pass when the strand count allows it and falls back
    to the naive sum otherwise. Applies the ``(-A)^(3 writhe)``
    normalization and substitutes ``s = A^2``; a surviving odd power of A
    would indicate a convention bug and raises ParityError. Raises
    CapExceeded above ``SIZE_CAP`` strands and crossings together.
    """
    size = word.strands + word.crossing_count()
    if size > SIZE_CAP:
        raise CapExceeded(f"{size} strands and crossings exceed the oracle's cap of {SIZE_CAP}")
    if word.strands <= max_strands:
        value = bracket_tl(word, max_strands)
    else:
        value = bracket_naive(word, max_crossings)
    w = word.writhe()
    value = value * LaurentPoly.monomial(3 * w, -1 if w % 2 else 1)
    out: dict[int, int] = {}
    for exp, coeff in value.terms():
        if exp % 2:
            raise ParityError(f"odd A power {exp} after writhe normalization")
        out[exp // 2] = coeff
    return LaurentPoly(out)
