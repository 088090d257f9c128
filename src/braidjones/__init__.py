"""Exact Jones polynomials of braid closures.

The evaluator cuts a closure at generators that occur in at most one
syllable and runs what is left through a Temperley-Lieb transfer in which
each syllable acts at once, by the quadratic relation of the two-term skein
recurrence. The Kauffman bracket oracle is a separate route that the
evaluator never calls. Everything is exact integer Laurent arithmetic in
the variable s.

The package root exports the ring, the braid words, the evaluator and the
paper's 2^k corner expansion: ``expand`` lists its terms, and
``GeneratingFunction`` evaluates the corner words once and contracts them
into the value at any integer exponents. The oracle, the recurrence basis,
the analysis tools and the self-test are imported by module:
``braidjones.bracket``, ``braidjones.fibonacci``, ``braidjones.analysis``
and ``braidjones.selftest``.
"""

from __future__ import annotations

from .braid import (
    BoundsError,
    BraidWord,
    CapExceeded,
    ExponentFamily,
    InvariantViolation,
    ParseError,
    Syllable,
    parse_braid,
    parse_family,
)
from .engine import (
    GeneratingFunction,
    expand,
    jones,
    unlink_value,
)
from .laurent import LaurentPoly, NotDivisible

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "BraidWord",
    "CapExceeded",
    "ExponentFamily",
    "GeneratingFunction",
    "InvariantViolation",
    "LaurentPoly",
    "NotDivisible",
    "ParseError",
    "Syllable",
    "expand",
    "jones",
    "parse_braid",
    "parse_family",
    "unlink_value",
    "__version__",
]
