"""Two-root linear recurrences, jointly in several indices.

A sequence with ``x_{n+2} = beta x_{n+1} + gamma x_n`` and distinct
characteristic roots r1, r2 (so beta = r1 + r2, gamma = -r1 r2) is
determined by two seeds. An array indexed by several such indices, each
satisfying the recurrence coordinatewise, is determined by its values on
{0,1}^p, and every entry is an explicit combination of those corner seeds:

    x[n1..np] = D^-p * sum over J in {0,1}^p of S_{j1}[n1] ... S_{jp}[np] x[J]

with D = r2 - r1 and the basis pair

    S_0[n] = r1^n r2 - r1 r2^n        S_1[n] = r2^n - r1^n.

The same corner seeds drive the rational generating function
``sum x[n*] t1^n1 ... tp^np = prod q(t_i)^-1 * sum_J prod Q_{j_i}(t_i) x[J]``
with ``q(t) = (1 - r1 t)(1 - r2 t)``, ``Q_0 = 1 - beta t``, ``Q_1 = t``.

Everything here is ring-generic over the integers or LaurentPoly; the
division by D^p is exact whenever the seeds come from an actual sequence.
Negative indices are supported when both roots are invertible (for
integers that means 1 or -1, for Laurent polynomials unit monomials).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

from .laurent import LaurentPoly, NotDivisible

Ring = LaurentPoly | int


class NonInvertibleRoot(ArithmeticError):
    """A negative index needs an inverse the root does not have."""


def _power(x: Ring, n: int) -> Ring:
    if n >= 0:
        return x**n
    if isinstance(x, int):
        if x in (1, -1):
            return x ** (-n % 2) if x == -1 else 1
        raise NonInvertibleRoot(f"{x} has no integer inverse")
    try:
        return x**n
    except ValueError as exc:
        raise NonInvertibleRoot(str(exc)) from exc


def _exact_div(num: Ring, den: Ring) -> Ring:
    if isinstance(num, LaurentPoly):
        return num.exact_div(den)
    if isinstance(den, LaurentPoly):
        return LaurentPoly.monomial(0, num).exact_div(den)
    q, r = divmod(num, den)
    if r:
        raise NotDivisible(f"{num} is not a multiple of {den}")
    return q


@dataclasses.dataclass(frozen=True)
class FibSpec:
    """A two-term recurrence given by its distinct characteristic roots."""

    r1: Ring
    r2: Ring

    def __post_init__(self) -> None:
        if self.r1 == self.r2:
            raise ValueError("characteristic roots must be distinct")

    @property
    def beta(self) -> Ring:
        return self.r1 + self.r2

    @property
    def gamma(self) -> Ring:
        return -(self.r1 * self.r2)

    @property
    def diff(self) -> Ring:
        return self.r2 - self.r1

    def step(self, prev: Ring, cur: Ring) -> Ring:
        """One forward step: the entry after (prev, cur)."""
        return self.beta * cur + self.gamma * prev


def s_basis(spec: FibSpec, n: int) -> tuple[Ring, Ring]:
    """The expansion basis pair (S_0[n], S_1[n]) at index n.

    S_0 solves the recurrence with seeds (D, 0) and S_1 with seeds (0, D),
    so x_n = (S_0[n] x_0 + S_1[n] x_1) / D for any solution x.
    """
    p1 = _power(spec.r1, n)
    p2 = _power(spec.r2, n)
    return (p1 * spec.r2 - spec.r1 * p2, p2 - p1)


def general_term(
    spec: FibSpec,
    seeds: Mapping[tuple[int, ...], Ring],
    index: Sequence[int],
) -> Ring:
    """Entry of a multi-index solution from its {0,1}^p corner seeds.

    ``seeds`` must contain every bit vector of the same length as
    ``index``. Division by D^p is exact for consistent seeds and raises
    NotDivisible otherwise.
    """
    index = tuple(index)
    p = len(index)
    if not p:
        raise ValueError("index must have at least one coordinate")
    basis = [s_basis(spec, n) for n in index]
    total: Ring = 0
    for bits in itertools.product((0, 1), repeat=p):
        term = seeds[bits]
        for pair, j in zip(basis, bits):
            term = term * pair[j]
        total = total + term
    return _exact_div(total, spec.diff**p)


def series_denominator(spec: FibSpec, upto: int) -> list[Ring]:
    """Taylor coefficients of 1/q(t) with q(t) = (1 - r1 t)(1 - r2 t).

    Entry m is the coefficient of t^m; it satisfies the recurrence itself
    with seeds 1, beta.
    """
    if upto < 0:
        raise ValueError("series length must be >= 0")
    out: list[Ring] = [1 if isinstance(spec.r1, int) else LaurentPoly.monomial(0, 1)]
    if upto >= 1:
        out.append(spec.beta)
    while len(out) <= upto:
        out.append(spec.step(out[-2], out[-1]))
    return out


def series_weight(spec: FibSpec, j: int, n: int, den: Sequence[Ring]) -> Ring:
    """Coefficient of t^n in Q_j(t)/q(t), given the 1/q series ``den``.

    Q_0(t) = 1 - beta t and Q_1(t) = t, so the weights reduce to shifted
    denominator coefficients: gamma * den[n-2] and den[n-1].
    """
    if n < 0:
        raise ValueError("series weights are defined for n >= 0")
    zero: Ring = 0
    if j == 0:
        if n == 0:
            return den[0]
        if n == 1:
            return zero
        return spec.gamma * den[n - 2]
    if j == 1:
        return den[n - 1] if n >= 1 else zero
    raise ValueError("j must be 0 or 1")


def coefficient_table(
    spec: FibSpec,
    seeds: Mapping[tuple[int, ...], Ring],
    upto: int,
) -> dict[tuple[int, ...], Ring]:
    """All generating function coefficients with indices in [0, upto]^p.

    Extracting the coefficient of t1^n1 ... tp^np factors through the
    per-variable series weights; the result agrees with
    :func:`general_term` entry by entry.
    """
    some_key = next(iter(seeds))
    p = len(some_key)
    den = series_denominator(spec, upto)
    weights = [
        (series_weight(spec, 0, n, den), series_weight(spec, 1, n, den))
        for n in range(upto + 1)
    ]
    table: dict[tuple[int, ...], Ring] = {}
    for index in itertools.product(range(upto + 1), repeat=p):
        total: Ring = 0
        for bits, seed in seeds.items():
            term = seed
            for coord, j in enumerate(bits):
                term = term * weights[index[coord]][j]
            total = total + term
        table[index] = total
    return table
