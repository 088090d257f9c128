"""Kauffman bracket evaluation of braid closures, as an independent oracle.

Two evaluators share one convention block: a naive sum over all ``2^c``
crossing smoothings, and a transfer-matrix pass through the planar diagram
algebra whose cost is polynomial in word length for fixed strand count.
``jones_via_bracket`` runs the transfer pass up to ``TL_CAP`` strands and
the naive sum above them; ``jones_from_bracket`` applies the writhe
correction and rewrites the bracket variable ``A`` into the skein variable
``s``. Nothing here touches the recurrence engine, so agreement between the
two pipelines is a real cross-check.

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

from .braid import BraidWord, CapExceeded
from .laurent import ZERO, LaurentPoly

# Laurent polynomials in the smoothing variable A
BracketPoly = LaurentPoly

A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
DELTA = LaurentPoly({2: -1, -2: -1})

# Crossings of the naive sum: 2^24 states, about 0.9 us each on a 2-vCPU host
NAIVE_CAP = 24
# Strands of the transfer pass, whose states are at most Catalan(12) matchings
TL_CAP = 12
# Strands plus crossings the oracle takes: its transfer pass, about c^2, took
# 0.9 s at 1,000 crossings on 3 strands and 14 s at 4,000 (2 vCPUs).
# Keep it at 1,203 or more: the benchmark cross-checks the quartic
# x1^300 x2^300 x1^300 x2^300 (1,200 crossings on 3 strands) through the oracle
SIZE_CAP = 1 << 12


class ParityError(ArithmeticError):
    """A bracket value had odd powers of A left after normalization."""


def _delta_power(n: int) -> BracketPoly:
    """DELTA^n = (-1)^n sum_k C(n, k) A^(4k - 2n), by the binomial theorem."""
    cs = [-1 if n % 2 else 1]
    for k in range(n):
        cs.append(cs[-1] * (n - k) // (k + 1))
    return LaurentPoly._make(range(-2 * n, 2 * n + 1, 4), cs)


def _check_size(word: BraidWord) -> None:
    size = word.strands + word.crossing_count()
    if size > SIZE_CAP:
        raise CapExceeded(f"{size} strands and crossings exceed the oracle's cap of {SIZE_CAP}")


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


def bracket_naive(word: BraidWord) -> BracketPoly:
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

    Exponential in the crossing count; refuses more than ``NAIVE_CAP``
    crossings, then more than ``SIZE_CAP`` strands and crossings together.
    """
    c = word.crossing_count()
    if c > NAIVE_CAP:
        raise CapExceeded(f"{c} crossings exceed the naive cap of {NAIVE_CAP} (2^{c} states)")
    _check_size(word)
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
    # one delta power per loop count, over that count's column of the tally
    result = ZERO
    for loops in range(1, stride):
        column = tally[loops::stride]
        if any(column):
            by_a = LaurentPoly._make(range(-c, c + 1), column)
            result = result + by_a * _delta_power(loops - 1)
    return result


def _identity_matching(n: int) -> tuple[int, ...]:
    # points 0..n-1 are the fixed top boundary, n..2n-1 the working bottom
    return tuple(range(n, 2 * n)) + tuple(range(n))


def bracket_tl(word: BraidWord) -> BracketPoly:
    """Bracket of the closure via the planar matching transfer pass.

    Maintains a weighted sum of noncrossing matchings of the boundary
    (at most Catalan(strands) of them) and applies one crossing at a
    time, so the cost is linear in the crossing count for fixed strand
    count. Refuses more than ``TL_CAP`` strands.
    """
    n = word.strands
    if n > TL_CAP:
        raise CapExceeded(f"{n} strands exceed the transfer cap of {TL_CAP}")
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
    by_loops: dict[int, BracketPoly] = {}
    for match, coeff in states.items():
        loops = _closure_loops(match, n)
        by_loops[loops] = by_loops.get(loops, ZERO) + coeff
    return sum((c * _delta_power(loops - 1) for loops, c in by_loops.items()), ZERO)


def jones_via_bracket(word: BraidWord) -> LaurentPoly:
    """Jones polynomial of the closure from the bracket alone.

    Uses the transfer pass up to ``TL_CAP`` strands and the naive sum above
    them. Raises CapExceeded above ``SIZE_CAP`` strands and crossings
    together, before either route starts.
    """
    _check_size(word)
    route = bracket_tl if word.strands <= TL_CAP else bracket_naive
    return jones_from_bracket(word, route(word))


def jones_from_bracket(word: BraidWord, value: BracketPoly) -> LaurentPoly:
    """Jones polynomial of the closure of ``word`` from its bracket ``value``.

    Applies the ``(-A)^(3 writhe)`` normalization and substitutes
    ``s = A^2``; a surviving odd power of A would indicate a convention bug
    and raises ParityError.
    """
    w = word.writhe()
    value = value * LaurentPoly.monomial(3 * w, -1 if w % 2 else 1)
    out: dict[int, int] = {}
    for exp, coeff in value.terms():
        if exp % 2:
            raise ParityError(f"odd A power {exp} after writhe normalization")
        out[exp // 2] = coeff
    return LaurentPoly(out)
