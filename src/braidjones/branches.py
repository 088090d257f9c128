"""The packed transfer of a part through its long syllables' root branches.

Times u + 1, u = s^2, a long syllable x_g^a acts as a sum over the skein
recurrence's two roots -s and s^3: a column of weights free of a, plus
(-u)^a times a second such column (:func:`engine._transfer`). The loop of
``engine._transfer`` adds the two in every state, the second shifted by a
digits, so each long syllable costs passes over states as long as the
part's exponents. :func:`transfer` keeps each choice of column as a branch
of exponent-free states, with the power deferred, and places each branch
at its exponent once. ``engine._transfer`` imports this module only for a
part that takes it, so a process whose words have no such part never
compiles it.
"""

from __future__ import annotations

from . import engine
from .engine import Syllables, _close, _live_cap, _Matchings


def transfer(
    strands: int, table: _Matchings, syls: Syllables, width: int, span: int, longs: list[int]
) -> tuple[int, int]:
    """The closure's packed total before its division by (u + 1)^k, k the
    count of long syllables, and its power of s: those of the loop of
    :func:`engine._transfer`, with each long syllable's roots kept as branches.

    ``longs`` holds the |a| of each long syllable. ``branches[key][m]`` is
    the state of matching number m in the branch whose long syllables took
    the root (-u)^a at exponents summing to about key: each such power is
    deferred, so no state is shifted by a digits. A long syllable sends each
    state to both branches with the exponent-free weights of
    :func:`engine._transfer`, and then a branch whose key lies at most
    ``near`` above a lower one joins it, shifted by the difference and
    signed by its parity; a short syllable acts on each branch with that
    loop's weights. Each branch is closed, signed by the parity of its key
    and placed at u^(key + base), base = -sum h over the long syllables,
    all in one sum. A branch state reaches at most ``span``
    bits less (|a| - 1) digits for each long syllable, whose weights raise
    its degree by at most 1 as x_g^+-1 would, plus ``near`` digits for each
    join; CapExceeded is raised after a syllable whose (branch, matching)
    states, at that bound each, could exceed ``LIVE_BITS_CAP`` bits
    together. ``near``, a sixteenth of the mean long |a|, joins the keys
    that jittered exponents leave close together without widening the bound
    past about ``span`` / 16.
    """
    odd = table.odd
    step = (1 << width) + 1  # u + 1
    low = min(longs)  # every short |a| is below it
    near = (sum(longs) >> 4) // len(longs)
    bound = span - (sum(longs) - len(longs) * (1 + near)) * width
    shift = base = 0
    branches: dict[int, dict[int, int]] = {0: {0: 1}}  # the identity's state
    for gen, a in syls:
        h = a if a < 0 else 0
        shift += 2 * h
        act = table.act[gen]
        nbranches: dict[int, dict[int, int]] = {}
        if abs(a) >= low:
            base -= h
            for key, states in branches.items():
                zero = nbranches.setdefault(key, {})
                one = nbranches.setdefault(key + a, {})
                for m, c in states.items():
                    to = act[m]
                    if to < 0:
                        to = table.apply(gen, m)
                    w = c + (c << width)
                    if to == m:
                        old = one.get(m)
                        one[m] = w if old is None else old + w
                    else:
                        # nothing else writes m: e_g's targets close a loop
                        zero[m] = w
                        v = c << width if odd[m] else c
                        old = zero.get(to)
                        zero[to] = v if old is None else old + v
                        old = one.get(to)
                        one[to] = -v if old is None else old - v
            # sorted keys: one within near above a run's first key joins it
            runs: dict[int, dict[int, int]] = {}
            first = 0
            for key in sorted(nbranches):
                states = nbranches[key]
                if not runs or key - first > near:
                    first = key
                    runs[key] = states
                    continue
                run, d = runs[first], (key - first) * width
                for m, c in states.items():
                    v = -(c << d) if (key - first) & 1 else c << d
                    old = run.get(m)
                    run[m] = v if old is None else old + v
            nbranches = runs
        else:
            id0 = -h * width
            loop = id0 + a * width
            even = a % 2 == 0
            g = ((1 << id0) - ((1 << loop) if even else -(1 << loop))) // step
            opens = (g, g << width)
            for key, states in branches.items():
                nstates = nbranches[key] = {}
                for m, c in states.items():
                    to = act[m]
                    if to < 0:
                        to = table.apply(gen, m)
                    if to == m:
                        v = c << loop if even else -(c << loop)
                    else:
                        nstates[m] = c << id0 if id0 else c
                        v = c * opens[odd[m]]
                    old = nstates.get(to)
                    nstates[to] = v if old is None else old + v
        count = sum(map(len, nbranches.values()))
        if count * bound > engine.LIVE_BITS_CAP:
            raise _live_cap(count, bound)
        branches = nbranches
    quot = 0
    for key, states in branches.items():
        c = _close(strands, table, states, states, width)
        quot += (-c if key & 1 else c) << (key + base) * width
    return quot, shift
