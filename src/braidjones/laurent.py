"""Exact integer Laurent polynomials in one variable.

This ring underlies every polynomial in the package. Jones values live in
the skein variable ``s`` and bracket values in the smoothing variable ``A``;
both share this representation, and text always names the variable ``s``.
All arithmetic is exact over arbitrary precision integers, and values are
immutable and hashable.

A value is two parallel lists, its exponents strictly ascending and their
nonzero coefficients: degree and order are index reads, ``terms`` is a
reversed zip, and the engine hands over a packed value's digits with no
dict. A sum merges two lists; a product accumulates in a dict and sorts
its keys once, unless one factor is a monomial, which shifts and scales.
Lists, not tuples: CPython keeps freed small tuples on free lists, and a
tuple-backed version raised peak memory by 15% on the oracle's many
short-lived small values.

The zero polynomial reports degree ``-inf`` and order ``+inf`` so degree
comparisons stay total.

>>> p = LaurentPoly({8: -1, 6: 1, 2: 1})
>>> p.degree, p.order, p.leading
(8, 2, -1)
>>> (p * p).exact_div(p) == p
True
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from typing import Iterable, Iterator, Mapping

NEG_INFINITY = -math.inf
POS_INFINITY = math.inf


# Quotient terms a long division may be forced to produce. A quotient term
# c s^q leaves the remainder a nonzero term at q + order(den) unless the
# dividend has one there, so from a term at e with the dividend's next term
# (or the floor) at b the walk produces at least (e - b) / span(den) - 1
# more terms, whatever cancels later; exact_div raises before it starts on
# more than the cap. The package divides D^k V by D^k for a word's value V,
# so the quotient is V. A transfer part packed at width w has a state degree
# in s^2 of at most its packed span over w, at most engine.PACKED_BITS_CAP =
# 2^25 over w for a part that engine._factors admits, so its value spans at
# most 2^26 / w in s. A word on n strands is cut into parts (at most n / 2:
# each has two strands or more) and twists (one per cut, at most n - 1), and
# V is their product, so V spans less than (3n / 2) 2^26 / w; and w > n,
# since 2^(n-1) divides the coefficient bound that sets w. So V spans less
# than 3 * 2^25 in steps of 2: fewer than 3 * 2^24 + 1 terms, under the cap.
QUOTIENT_CAP = 1 << 26


class CapExceeded(RuntimeError):
    """Input is larger than the configured cost cap for this evaluator."""


class NotDivisible(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    Internally two parallel lists: ``_exps``, strictly ascending, and
    ``_cs``, the nonzero coefficients at those exponents. Instances are
    treated as immutable: no list is exposed or mutated once a value holds
    it, so values may share them.
    """

    __slots__ = ("_exps", "_cs")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be int")
            acc[exp] = acc.get(exp, 0) + c
        exps = sorted(acc)
        poly = LaurentPoly._make(exps, list(map(acc.__getitem__, exps)))
        self._exps, self._cs = poly._exps, poly._cs

    @classmethod
    def _make(cls, exps: Iterable[int], cs: list[int]) -> LaurentPoly:
        # trusted constructor: exps strictly ascend. compress drops zero
        # coefficients; with none, the usual case, the value keeps cs, and exps
        # if it is a list, since two copies cost more than the scan when small.
        # all() makes one C truth test per coefficient, cheaper than the rich
        # compare with 0 that `0 in cs` makes
        obj = object.__new__(cls)
        if not all(cs):
            obj._exps = list(compress(exps, cs))
            obj._cs = list(compress(cs, cs))
        else:
            obj._exps = exps if isinstance(exps, list) else list(exps)
            obj._cs = cs
        return obj

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> LaurentPoly:
        return LaurentPoly._make((exp,), [coeff])

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._exps

    def __bool__(self) -> bool:
        return bool(self._exps)

    @property
    def degree(self) -> int | float:
        """Largest exponent with nonzero coefficient, ``-inf`` for zero."""
        return self._exps[-1] if self._exps else NEG_INFINITY

    @property
    def order(self) -> int | float:
        """Smallest exponent with nonzero coefficient, ``+inf`` for zero."""
        return self._exps[0] if self._exps else POS_INFINITY

    @property
    def leading(self) -> int:
        """Coefficient at the degree, 0 for the zero polynomial."""
        return self._cs[-1] if self._cs else 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in descending exponent order."""
        return zip(reversed(self._exps), reversed(self._cs))

    def __len__(self) -> int:
        return len(self._exps)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other: LaurentPoly | int) -> LaurentPoly | None:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.monomial(0, other)
        return None

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # one merge of the two ascending lists; cancelled terms are dropped after
        eb, cb = other._exps, other._cs
        exps: list[int] = []
        cs: list[int] = []
        j, nb = 0, len(eb)
        for e, c in zip(self._exps, self._cs):
            while j < nb and eb[j] < e:
                exps.append(eb[j])
                cs.append(cb[j])
                j += 1
            if j < nb and eb[j] == e:
                c += cb[j]
                j += 1
            exps.append(e)
            cs.append(c)
        return LaurentPoly._make(exps + eb[j:], cs + cb[j:])

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make(self._exps, [-c for c in self._cs])

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, q = (self, other) if len(self._exps) >= len(other._exps) else (other, self)
        pe, pc = p._exps, p._cs
        if len(q._exps) == 1:
            # a monomial shifts the exponents and scales the coefficients
            (k,), (m,) = q._exps, q._cs
            return LaurentPoly._make([e + k for e in pe], pc if m == 1 else [c * m for c in pc])
        out: dict[int, int] = {}
        for e2, c2 in zip(q._exps, q._cs):
            for e1, c1 in zip(pe, pc):
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        exps = sorted(out)
        return LaurentPoly._make(exps, list(map(out.__getitem__, exps)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int):
            return NotImplemented
        if len(self._exps) == 1:
            # a monomial's power is one term; only unit coefficients invert
            (exp,), (c,) = self._exps, self._cs
            if n >= 0:
                return LaurentPoly._make((exp * n,), [c**n])
            if c not in (1, -1):
                raise ValueError("negative power of a non-unit coefficient")
            return LaurentPoly._make((exp * n,), [c if n % 2 else 1])
        if n < 0:
            raise ValueError("negative power of a non-monomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, den: LaurentPoly | int) -> LaurentPoly:
        """Divide exactly by ``den``, raising NotDivisible on any remainder.

        One descending pass of long division: the dividend's exponents are
        sorted once, and exponents first reached by a subtraction wait on a
        heap. An exact division costs O(t d log t) for t dividend and
        quotient terms and d divisor terms, however wide the gaps between
        exponents; nothing is allocated over the exponent span. That bound
        holds only when the division is exact: a failing one raises when the
        remainder drops below the dividend's order, so
        ``(s^N + 2).exact_div(s^2 + 1)`` walks all N/2 quotient terms down
        the gap before it raises. So a walk forced to produce more than
        ``QUOTIENT_CAP`` quotient terms raises CapExceeded before it starts,
        even where its first step would raise NotDivisible:
        ``(2s^N + 1).exact_div(2s^2 + 1)`` raises CapExceeded for a large N.

        >>> LaurentPoly({7: -1, 5: -1, 3: -1, 1: -1}).exact_div(
        ...     LaurentPoly({2: 1, 0: 1})).text()
        '-s^5 - s'
        """
        den = self._coerce(den)
        if den is None:
            raise TypeError("divisor must be an int or a LaurentPoly")
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        (ddeg, dlead), *dtail = den.terms()
        # a quotient term below this would leave terms under the dividend's
        # order that nothing later can cancel
        floor = self.order - den.order
        bottom = floor + ddeg  # the lowest exponent that gives a quotient term
        # how far down a walk with no dividend term may run under the cap
        reach = QUOTIENT_CAP * (ddeg - den.order) if dtail else math.inf
        rem = dict(zip(self._exps, self._cs))
        todo = self._exps[::-1]
        nxt = 0
        heap: list[int] = []  # negated exponents not in the dividend
        qexps: list[int] = []  # the quotient, in the descending order it is found
        qcs: list[int] = []
        while True:
            if heap and (nxt == len(todo) or -heap[0] > todo[nxt]):
                e = -heapq.heappop(heap)
            elif nxt < len(todo):
                e = todo[nxt]
                nxt += 1
                # a walk from here runs down to the next dividend term or the floor
                below = max(todo[nxt], bottom) if nxt < len(todo) else bottom
            else:
                break
            c = rem.pop(e)
            if not c:
                continue
            qe = e - ddeg
            if qe < floor:
                raise NotDivisible(f"remainder of degree {e}")
            qc, r = divmod(c, dlead)
            if r:
                raise NotDivisible(f"coefficient {c} not divisible by {dlead}")
            if e - below > reach:
                raise CapExceeded(
                    f"dividing by a divisor of span {ddeg - den.order} from s^{e} "
                    f"down to s^{below} exceeds the cap of {QUOTIENT_CAP} quotient terms"
                )
            qexps.append(qe)
            qcs.append(qc)
            for de, dc in dtail:
                ne = de + qe
                old = rem.get(ne)
                if old is None:
                    heapq.heappush(heap, -ne)
                    rem[ne] = -dc * qc
                else:
                    rem[ne] = old - dc * qc
        qexps.reverse()
        qcs.reverse()
        return LaurentPoly._make(qexps, qcs)

    def inverse_variable(self) -> LaurentPoly:
        """Substitute the variable by its inverse (negate all exponents)."""
        return LaurentPoly._make([-e for e in reversed(self._exps)], self._cs[::-1])

    # -- text form ----------------------------------------------------

    def text(self) -> str:
        """Canonical text: descending exponents, unit coefficients elided.

        >>> LaurentPoly({1: -1, -1: -1}).text()
        '-s - s^-1'
        >>> LaurentPoly({12: 2, 8: 1, 4: 1}).text()
        '2s^12 + s^8 + s^4'
        """
        if not self._exps:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = head + ("s" if e == 1 else f"s^{e}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def as_json_dict(self) -> dict[str, str]:
        """Exponent to coefficient map with decimal string keys and values."""
        return {str(e): str(c) for e, c in self.terms()}

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._exps == other._exps and self._cs == other._cs

    def __hash__(self) -> int:
        # the hash of the ascending (exponent, coefficient) pairs: the order
        # of a set of values, and so of what iterates it, rests on it
        return hash(tuple(zip(self._exps, self._cs)))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(0)
S = LaurentPoly.monomial(1)
