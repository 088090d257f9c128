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
The Taylor coefficient of ``Q_j(t) / q(t)`` at t^n is exactly S_j[n] / D,
so a series coefficient is the closed-form entry above: :func:`general_term`
serves both, at any index, with no table of earlier entries.

Everything here is exact in LaurentPoly, an integer root taken as a
constant; the division by D^p is always exact, since every basis entry is a
multiple of D. Negative indices need both roots invertible: unit monomials
(for an integer root, 1 or -1). Any other root raises the ValueError of
``LaurentPoly.__pow__``.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Sequence

from .laurent import LaurentPoly

Ring = LaurentPoly | int


class _FibSpecFields(NamedTuple):
    r1: Ring
    r2: Ring


class FibSpec(_FibSpecFields):
    """A two-term recurrence given by its distinct characteristic roots."""

    __slots__ = ()

    def __new__(cls, r1: Ring, r2: Ring) -> FibSpec:
        if r1 == r2:
            raise ValueError("characteristic roots must be distinct")
        return tuple.__new__(cls, (r1, r2))

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


def s_basis(spec: FibSpec, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The expansion basis pair (S_0[n], S_1[n]) at index n.

    S_0 solves the recurrence with seeds (D, 0) and S_1 with seeds (0, D),
    so x_n = (S_0[n] x_0 + S_1[n] x_1) / D for any solution x.
    """
    p1 = LaurentPoly._coerce(spec.r1) ** n  # an integer root as a constant
    p2 = LaurentPoly._coerce(spec.r2) ** n
    return (p1 * spec.r2 - spec.r1 * p2, p2 - p1)


def general_term(
    spec: FibSpec,
    seeds: Mapping[tuple[int, ...], Ring],
    index: Sequence[int],
) -> LaurentPoly:
    """Entry of a multi-index solution from its {0,1}^p corner seeds.

    ``seeds`` must contain every bit vector of the same length as
    ``index``. The sum is contracted one coordinate at a time, last first,
    so it takes 2^(p+1) - 2 products rather than p 2^p. Every basis entry
    is a ring multiple of D, so the division by D^p is always exact.
    """
    index = tuple(index)
    if not index:
        raise ValueError("index must have at least one coordinate")
    layer = seeds
    for depth in range(len(index) - 1, -1, -1):
        s0, s1 = s_basis(spec, index[depth])
        layer = {
            bits: layer[bits + (0,)] * s0 + layer[bits + (1,)] * s1
            for bits in itertools.product((0, 1), repeat=depth)
        }
    return layer[()].exact_div(spec.diff ** len(index))
