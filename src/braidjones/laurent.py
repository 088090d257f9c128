"""Exact integer Laurent polynomials in one variable.

This ring underlies every polynomial in the package. Jones values live in
the skein variable ``s`` and bracket values in the smoothing variable ``A``;
both share this representation and differ only in how they are printed.
All arithmetic is exact over arbitrary precision integers, and values are
immutable and hashable so they can key caches and group table rows.

The zero polynomial reports degree ``-inf`` and order ``+inf`` so degree
comparisons stay total.

>>> p = LaurentPoly.parse("-s^8 + s^6 + s^2")
>>> p.degree, p.order, p.leading, p.trailing
(8, 2, -1, 1)
>>> (p * p).exact_div(p) == p
True
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

NEG_INFINITY = -math.inf
POS_INFINITY = math.inf


class NotDivisible(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


class ParseError(ValueError):
    """Raised on malformed text input; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    Internally a map from exponent to nonzero coefficient. Instances are
    treated as immutable: every operation returns a fresh object and the
    coefficient map is never exposed mutably.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be int")
            c = acc.get(exp, 0) + c
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        self._coeffs = acc
        self._hash: int | None = None

    @classmethod
    def _make(cls, coeffs: dict[int, int]) -> LaurentPoly:
        # trusted constructor: caller guarantees no zero coefficients
        obj = object.__new__(cls)
        obj._coeffs = coeffs
        obj._hash = None
        return obj

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> LaurentPoly:
        if coeff == 0:
            return ZERO
        return LaurentPoly._make({exp: coeff})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def degree(self) -> int | float:
        """Largest exponent with nonzero coefficient, ``-inf`` for zero."""
        return max(self._coeffs) if self._coeffs else NEG_INFINITY

    @property
    def order(self) -> int | float:
        """Smallest exponent with nonzero coefficient, ``+inf`` for zero."""
        return min(self._coeffs) if self._coeffs else POS_INFINITY

    @property
    def leading(self) -> int:
        """Coefficient at the degree, 0 for the zero polynomial."""
        return self._coeffs[max(self._coeffs)] if self._coeffs else 0

    @property
    def trailing(self) -> int:
        """Coefficient at the order, 0 for the zero polynomial."""
        return self._coeffs[min(self._coeffs)] if self._coeffs else 0

    def extremes(self) -> tuple[int | float, int | float, int, int]:
        """(degree, order, leading, trailing) in one call."""
        return (self.degree, self.order, self.leading, self.trailing)

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in descending exponent order."""
        for exp in sorted(self._coeffs, reverse=True):
            yield exp, self._coeffs[exp]

    def __len__(self) -> int:
        return len(self._coeffs)

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
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            c = out.get(exp, 0) + c
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return LaurentPoly._make(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return ZERO
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return LaurentPoly._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # only monomials with unit coefficient are invertible here
            if len(self._coeffs) != 1:
                raise ValueError("negative power of a non-monomial")
            ((exp, c),) = self._coeffs.items()
            if c not in (1, -1):
                raise ValueError("negative power of a non-unit coefficient")
            return LaurentPoly._make({exp * n: c if n % 2 else 1})
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
        exponents; nothing is allocated over the exponent span.

        >>> LaurentPoly.parse("-s^7 - s^5 - s^3 - s").exact_div(
        ...     LaurentPoly.parse("s^2 + 1")).text()
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
        rem = dict(self._coeffs)
        todo = sorted(rem, reverse=True)
        nxt = 0
        heap: list[int] = []  # negated exponents not in the dividend
        quot: dict[int, int] = {}
        while True:
            if heap and (nxt == len(todo) or -heap[0] > todo[nxt]):
                e = -heapq.heappop(heap)
            elif nxt < len(todo):
                e = todo[nxt]
                nxt += 1
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
            quot[qe] = qc
            for de, dc in dtail:
                ne = de + qe
                old = rem.get(ne)
                if old is None:
                    heapq.heappush(heap, -ne)
                    rem[ne] = -dc * qc
                else:
                    rem[ne] = old - dc * qc
        return LaurentPoly._make(quot)

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at a nonzero rational point."""
        if x == 0:
            raise ValueError("cannot evaluate at 0: negative exponents")
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * x**e
        return total

    def inverse_variable(self) -> LaurentPoly:
        """Substitute the variable by its inverse (negate all exponents)."""
        return LaurentPoly._make({-e: c for e, c in self._coeffs.items()})

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by the k-th power of the variable."""
        return LaurentPoly._make({e + k: c for e, c in self._coeffs.items()})

    # -- text form ----------------------------------------------------

    def text(self, var: str = "s") -> str:
        """Canonical text: descending exponents, unit coefficients elided.

        >>> LaurentPoly({1: -1, -1: -1}).text()
        '-s - s^-1'
        >>> LaurentPoly({12: 2, 8: 1, 4: 1}).text()
        '2s^12 + s^8 + s^4'
        """
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = head + (var if e == 1 else f"{var}^{e}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    @classmethod
    def parse(cls, text: str, var: str = "s") -> LaurentPoly:
        """Parse polynomial text (the format produced by ``text``).

        Accepts any term order and repeated exponents; raises ParseError
        with the offending position otherwise.
        """
        s = text
        n = len(s)
        i = 0
        while i < n and s[i].isspace():
            i += 1
        if i == n:
            raise ParseError("empty polynomial text", 0)
        acc: dict[int, int] = {}
        first = True
        while i < n:
            sign = 1
            if s[i] in "+-":
                sign = -1 if s[i] == "-" else 1
                i += 1
                while i < n and s[i].isspace():
                    i += 1
            elif not first:
                raise ParseError("expected '+' or '-' between terms", i)
            start = i
            while i < n and s[i].isdigit():
                i += 1
            digits = s[start:i]
            exp = 0
            has_var = i < n and s[i : i + len(var)] == var
            if has_var:
                i += len(var)
                exp = 1
                if i < n and s[i] == "^":
                    i += 1
                    j = i
                    if i < n and s[i] == "-":
                        i += 1
                    while i < n and s[i].isdigit():
                        i += 1
                    if i == j or not s[j:i].lstrip("-"):
                        raise ParseError("expected integer exponent after '^'", j)
                    exp = int(s[j:i])
            if not digits and not has_var:
                raise ParseError("expected a coefficient or variable", start)
            coeff = sign * (int(digits) if digits else 1)
            acc[exp] = acc.get(exp, 0) + coeff
            first = False
            while i < n and s[i].isspace():
                i += 1
        return cls(acc)

    def as_json_dict(self) -> dict[str, str]:
        """Exponent to coefficient map with decimal string keys and values."""
        return {str(e): str(c) for e, c in self.terms()}

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._coeffs.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


ZERO = LaurentPoly._make({})
ONE = LaurentPoly._make({0: 1})
S = LaurentPoly._make({1: 1})
