"""Exact Jones polynomials of braid closures.

The evaluator cuts a closure at generators that occur in at most one
syllable and runs what is left through a Temperley-Lieb transfer in which
each syllable acts at once, by the quadratic relation of the two-term skein
recurrence. The Kauffman bracket oracle is a separate route that the
evaluator never calls. Everything is exact integer Laurent arithmetic in
the variable s.
"""

from __future__ import annotations

import importlib

from .braid import (
    BoundsError,
    BraidWord,
    CapExceeded,
    ExponentFamily,
    InvariantViolation,
    Syllable,
    parse_braid,
    parse_family,
)
from .engine import (
    FamilySweep,
    GeneratingFunction,
    expand,
    expansion_value,
    family_values,
    jones,
    skein_weights,
    square_free_value,
    step_up,
    unlink_value,
)
from .laurent import LaurentPoly, NotDivisible, ParseError

# Names outside the evaluator bind on first use (PEP 562), so importing the
# package does not load the oracle, the analysis layer or the self-test.
_LAZY = {
    "bracket": ("bracket_naive", "bracket_tl", "jones_via_bracket"),
    "fibonacci": ("FibSpec", "general_term", "s_basis"),
    "analysis": (
        "Classification",
        "RECLASSIFY",
        "Stability",
        "UnitSearchResult",
        "UnitWindow",
        "alternating_closed_form",
        "alternating_recurrences_check",
        "alternating_word",
        "classify_pair",
        "degree_audit",
        "leading_term_scan",
        "leading_term_table",
        "order_bound_check",
        "predict_degrees",
        "two_strand_closed_form",
        "unit_search",
        "unit_window",
    ),
    "selftest": ("CheckResult", "run_selftest"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "BraidWord",
    "CapExceeded",
    "CheckResult",
    "Classification",
    "ExponentFamily",
    "FamilySweep",
    "FibSpec",
    "GeneratingFunction",
    "InvariantViolation",
    "LaurentPoly",
    "NotDivisible",
    "ParseError",
    "RECLASSIFY",
    "Stability",
    "Syllable",
    "UnitSearchResult",
    "UnitWindow",
    "alternating_closed_form",
    "alternating_recurrences_check",
    "alternating_word",
    "bracket_naive",
    "bracket_tl",
    "classify_pair",
    "degree_audit",
    "expand",
    "expansion_value",
    "family_values",
    "general_term",
    "jones",
    "jones_via_bracket",
    "leading_term_scan",
    "leading_term_table",
    "order_bound_check",
    "parse_braid",
    "parse_family",
    "predict_degrees",
    "run_selftest",
    "s_basis",
    "skein_weights",
    "square_free_value",
    "step_up",
    "two_strand_closed_form",
    "unit_search",
    "unit_window",
    "unlink_value",
    "__version__",
]
