"""Command-line interface.

Subcommands cover single evaluations (``jones``), family sweeps
(``family``), generating-function coefficients (``genfun``), stability
classification and degree prediction (``classify``), degree-bound audits
(``audit``), the leading-term census (``tables``), unit exponent search
(``units``), the timing and cost-count benchmark (``bench``), and the
built-in consistency checks (``selftest``).

Exit codes: 0 on success, 1 on usage or parse errors (including cost
caps), 2 when a verified structural property fails on actual data.

The analysis, bracket and selftest modules are imported by the handlers
that use them, so a command pays only for the code it runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
import time
from typing import Iterable, Sequence

from .braid import (
    CapExceeded,
    InvariantViolation,
    parse_braid,
    parse_family,
    reduce_cyclic,
)
from .engine import CORNER_CAP, GeneratingFunction, jones
from .laurent import LaurentPoly


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # values like -1..1 or -3,1 are data, not flags
        self._negative_number_matcher = re.compile(r"^-\d")

    # usage problems exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _record(source: str, value: LaurentPoly) -> dict:
    return {
        "input": source,
        "polynomial": value.as_json_dict(),
        "degree": None if value.is_zero() else int(value.degree),
        "order": None if value.is_zero() else int(value.order),
        "leading": value.leading,
    }


def _emit(args: argparse.Namespace, source: str, value: LaurentPoly) -> None:
    if args.json:
        print(json.dumps(_record(source, value)))
    else:
        print(value.text())


_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_range(text: str) -> tuple[int, int]:
    match = _RANGE.match(text)
    if not match:
        raise ValueError(f"range must look like -2..5, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"need a comma-separated integer list, got {text!r}")


# -- subcommand bodies ---------------------------------------------------


def _cmd_jones(args: argparse.Namespace) -> int:
    word = parse_braid(args.braid)
    if args.engine == "oracle":
        from .bracket import jones_via_bracket

        value = jones_via_bracket(word)
    else:
        value = jones(word)
    _emit(args, word.text(), value)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    family = parse_family(args.family)
    lo, hi = _parse_range(args.range)
    # a value costs about its exponent's size; jones refuses one exponent
    if hi > lo and (hi - lo + 1) * (max(-lo, hi) + 1) > RANGE_CAP:
        raise CapExceeded(f"range {args.range} exceeds the cap of {RANGE_CAP}")
    # each value is printed and dropped: a wide range holds one at a time
    for e in range(lo, hi + 1):
        _emit(args, f"{family.text()} @ {e}", jones(family.instantiate(e)))
    return 0


def _cmd_genfun(args: argparse.Namespace) -> int:
    indices = _parse_ints(args.indices)
    k, upto = len(indices), args.upto
    if upto is not None and upto < 0:
        raise ValueError(f"--upto must be >= 0, got {upto}")
    # (M+1)^(k+1) 2^k; build() refuses more than CORNER_CAP indices itself
    if upto is not None and k <= CORNER_CAP and (upto + 1) ** (k + 1) << k > GRID_CAP:
        raise CapExceeded(f"--upto {upto} on {k} indices exceeds the cap of {GRID_CAP}")
    gf = GeneratingFunction.build(args.strands, indices)
    if args.coeff is not None:
        exps = _parse_ints(args.coeff)
        value = gf.coefficient(exps)
        _emit(args, f"t^{exps}", value)
        return 0
    for exps in itertools.product(range(args.upto + 1), repeat=len(indices)):
        value = gf.coefficient(exps)
        if args.json:
            print(json.dumps(_record(f"t^{exps}", value)))
        else:
            print(f"{','.join(map(str, exps))}: {value.text()}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from . import analysis

    # refused before any line is printed, as predict_degrees would refuse it
    if args.predict is not None and args.predict < 1:
        raise ValueError(f"--predict must be >= 1, got {args.predict}")
    family = parse_family(args.family)
    e = args.at
    v_e, v_e1 = jones(family.instantiate(e)), jones(family.instantiate(e + 1))
    cls = analysis.classify_pair(v_e, v_e1)
    out: dict = {
        "input": f"{family.text()} @ {e}",
        "kind": cls.kind.value,
        "coeff_sum": cls.coeff_sum,
    }
    if not args.json:
        print(f"kind: {cls.kind.value}")
        print(f"coeff-sum: {cls.coeff_sum}")
    if args.predict is not None:
        m = args.predict
        v_e2 = jones(family.instantiate(e + 2)) if (
            cls.kind is analysis.Stability.CRITICAL and cls.coeff_sum == 0
        ) else None
        prediction = analysis.predict_degrees(cls, v_e, v_e1, m, v_e2)
        if prediction is analysis.RECLASSIFY:
            out["prediction"] = "reclassify"
            if not args.json:
                print(f"prediction: critical again at {e + 1}; classify there")
        else:
            actual = jones(family.instantiate(e + m))
            agree = (int(actual.degree), actual.leading) == prediction
            out["prediction"] = {"degree": prediction.degree, "leading": prediction.coeff}
            out["actual"] = {"degree": int(actual.degree), "leading": actual.leading}
            out["agree"] = agree
            if not args.json:
                print(f"predicted V({e}+{m}): degree {prediction.degree}, "
                      f"leading {prediction.coeff}")
                print(f"actual: degree {int(actual.degree)}, leading {actual.leading}")
                print(f"agree: {str(agree).lower()}")
            if not agree:
                raise InvariantViolation(
                    f"degree prediction failed for {family.text()} at e={e}, m={m}"
                )
    if args.json:
        print(json.dumps(out))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from . import analysis

    if args.exps is not None:
        # one vector: a sweep option would be dropped without a word
        sweep = (args.pairs, args.samples, args.max_exp, args.seed)
        names = ("--pairs", "--samples", "--max-exp", "--seed")
        given = [name for name, value in zip(names, sweep) if value is not None]
        if given:
            raise ValueError(f"--exps cannot be combined with {', '.join(given)}")
        report = analysis.degree_audit(_parse_ints(args.exps))
        if args.json:
            print(json.dumps({**report._asdict(), "bound_met": report.bound_met}))
        else:
            print(
                f"exponents {report.exponents}: degree {report.degree} "
                f"{'<=' if report.bound_met else '>'} bound {report.bound} "
                f"(total {report.total}, pairs {report.pairs}, "
                f"zeros {report.zeros})"
            )
        return 0 if report.bound_met else 2
    if args.pairs is None:
        raise ValueError("audit needs --exps or --pairs")
    # refused before any word is drawn: below these an audit checks nothing
    if args.pairs < 1:
        raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    max_exp = 4 if args.max_exp is None else args.max_exp
    if max_exp < 0:
        raise ValueError(f"--max-exp must be >= 0, got {max_exp}")
    width = 2 * args.pairs
    if args.samples is None:
        # a base of 2 or more passes the cap at this width, so no huge power is built
        words = (max_exp + 1) ** min(width, AUDIT_CAP.bit_length())
    else:
        words = args.samples
    if words * width > AUDIT_CAP:
        raise CapExceeded(f"{words} words of {width} exponents exceed the cap of {AUDIT_CAP}")
    rng = random.Random(0 if args.seed is None else args.seed)
    vectors: Iterable[tuple[int, ...]] = (
        itertools.product(range(max_exp + 1), repeat=width)
        if args.samples is None
        else (tuple(rng.randint(0, max_exp) for _ in range(width)) for _ in range(words))
    )
    checked = 0
    violations = []
    for exps in vectors:
        checked += 1
        report = analysis.degree_audit(exps)
        if not report.bound_met:
            violations.append(report)
    if args.json:
        print(json.dumps({"checked": checked, "violations": [v.exponents for v in violations]}))
    else:
        print(f"checked {checked} words: {len(violations)} violations")
        for v in violations:
            print(f"  {v.exponents}: degree {v.degree} > bound {v.bound}")
    return 0 if not violations else 2


def _cmd_tables(args: argparse.Namespace) -> int:
    from . import analysis

    rows = analysis.leading_term_table(args.pairs)
    if args.json:
        for row in rows:
            # the fields in order, the bits as one string
            print(json.dumps({**row._asdict(), "bits": "".join(map(str, row.bits))}))
        return 0
    width = max(4, 2 * args.pairs)
    print(
        f"{'delta':>5}  {'bits':<{width}}  {'count':>5}  {'degree':>6}  "
        f"{'leading':<10} word"
    )
    for row in rows:
        bits = "".join(map(str, row.bits))
        print(
            f"{row.delta:>5}  {bits:<{width}}  {row.count:>5}  {row.degree:>6}  "
            f"{row.leading:<10} {row.word}"
        )
    return 0


def _cmd_units(args: argparse.Namespace) -> int:
    from . import analysis

    family = parse_family(args.family)
    result = analysis.unit_search(family)
    window = result.window
    if args.json:
        lo, hi, order_anchor, degree_anchor = window
        record = {"input": family.text(), "window": [lo, hi]}
        record.update(order_anchor=order_anchor, degree_anchor=degree_anchor, hits=result.hits)
        print(json.dumps(record))
        return 0
    print(f"window: [{window.lo}, {window.hi}]")
    e, o1, o2 = window.order_anchor
    print(f"order anchor: orders {o1}, {o2} at exponents {e}, {e + 1}")
    e, d1, d2 = window.degree_anchor
    print(f"degree anchor: degrees {d1}, {d2} at exponents {e}, {e - 1}")
    print("units at: " + (", ".join(map(str, result.hits)) or "none"))
    return 0


def _power_of_two(exp: int) -> tuple[str, int | str]:
    """Text and JSON forms of the count 2^exp.

    Python (3.10.7 and 3.11 on) converts an int of at most 4,300 decimal
    digits to text by default, and 2^14284 is the last such power of two,
    so above it both forms state the count as "2^exp" alone, on any
    interpreter and without building the power.
    """
    if exp > 14_284:
        return f"2^{exp}", f"2^{exp}"
    return f"2^{exp} = {2**exp}", 2**exp


def _cmd_bench(args: argparse.Namespace) -> int:
    word = parse_braid(args.braid)
    syllables = len(reduce_cyclic(word.syllables))
    crossings = word.crossing_count()
    start = time.perf_counter()
    value = jones(word)
    elapsed = time.perf_counter() - start
    terms_text, terms = _power_of_two(syllables)
    states_text, states = _power_of_two(crossings)
    lines = [
        f"value: {value.text()}",
        f"engine time: {elapsed:.3f} s",
        f"expansion terms: {terms_text}",
        f"naive states: {states_text}",
    ]
    record: dict = {
        "input": word.text(),
        "polynomial": value.as_json_dict(),
        "engine_seconds": elapsed,
        "expansion_terms": terms,
        "naive_states": states,
    }
    if args.compare == "naive":
        from .bracket import NAIVE_CAP, bracket_naive, jones_from_bracket

        try:
            start = time.perf_counter()
            oracle = jones_from_bracket(word, bracket_naive(word))
            oracle_elapsed = time.perf_counter() - start
        except CapExceeded:
            lines.append(f"naive: cap exceeded at c = {crossings} (limit {NAIVE_CAP})")
            record["naive"] = "cap exceeded"
        else:
            agree = oracle == value
            lines.append(
                f"naive time: {oracle_elapsed:.3f} s, "
                f"{'agrees' if agree else 'DISAGREES'}"
            )
            record["naive"] = "agrees" if agree else "disagrees"
            if not agree:
                raise InvariantViolation(
                    f"state sum disagrees with the engine on {word.text()}"
                )
    if args.json:
        print(json.dumps(record))
    else:
        print("\n".join(lines))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    results = run_selftest()
    failed = [r for r in results if not r.ok]
    if args.json:
        for r in results:
            print(json.dumps({"name": r.name, "ok": r.ok, "detail": r.detail}))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            print(f"{mark} {r.name}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 2


# -- parser --------------------------------------------------------------

# Exponents one audit reads over all its words: about 10 us each on a 2-vCPU
# host (60 us a word of 3 pairs to 4), so 2^17 of them take about 1.3 s
AUDIT_CAP = 1 << 17
# Work of genfun --upto M on k indices, (M+1)^(k+1) 2^k: (M+1)^k coefficients
# over 2^k corners, their terms growing with M. The largest grid admitted for
# each k took at most 1 s on a 2-vCPU host; 12 indices up to 1 (2^25) took 220 s
GRID_CAP = 1 << 18
# Work of a family --range, (hi-lo+1)(max|e|+1): on a 2-vCPU host 0..2047
# (2^22) of B4: x1^@ x2^3 x3^-2 x2 x1 took 2.0 s, and 0..1447 (2^21) 1.0 s
RANGE_CAP = 1 << 21
# restates bracket.NAIVE_CAP (0.9 us a state on a 2-vCPU host): bracket loads lazily
_NAIVE_COST = "the naive state sum, at most 24 crossings, 2^24 states, about 15 s"


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="braidjones",
        description="Jones polynomials of braid closures, exactly.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit JSON records instead of text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jones", parents=[common], help="evaluate one braid word")
    p.add_argument("braid", help='braid word, e.g. "B3: x1 x2^-1 x1"')
    p.add_argument(
        "--engine",
        choices=("recurrence", "oracle"),
        default="recurrence",
        # restates bracket.TL_BUDGET, as _NAIVE_COST restates NAIVE_CAP
        help="evaluation route (default recurrence); the oracle runs the bracket "
        "transfer pass, at most 2^24 units of work (states visited times "
        "strands plus crossings), at most about 3 s",
    )
    p.set_defaults(func=_cmd_jones)

    p = sub.add_parser(
        "family", parents=[common], help="sweep one exponent slot of a family"
    )
    p.add_argument("family", help='family word, e.g. "B2: x1^@"')
    p.add_argument(
        "--range",
        required=True,
        help=f"inclusive sweep, e.g. -1..1; at most (hi-lo+1)(max|e|+1) = {RANGE_CAP}",
    )
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser(
        "genfun",
        parents=[common],
        help="generating-function coefficients over a syllable grid",
    )
    p.add_argument("--strands", type=int, required=True)
    p.add_argument(
        "--indices",
        required=True,
        help=f"generator index sequence, e.g. 1,2,1,2; at most {CORNER_CAP} "
        f"indices (2^{CORNER_CAP} corner seeds)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--coeff", help="one exponent tuple, of any signs, e.g. 2,1,2,1 or -3,2,-1,4"
    )
    group.add_argument(
        "--upto",
        type=int,
        help="print every coefficient with entries in [0, M]; at most "
        f"(M+1)^(k+1) 2^k = {GRID_CAP} for k indices",
    )
    p.set_defaults(func=_cmd_genfun)

    p = sub.add_parser(
        "classify",
        parents=[common],
        help="stability class of a family pair, with degree prediction",
    )
    p.add_argument("family")
    p.add_argument("--at", type=int, required=True, help="base exponent e")
    p.add_argument(
        "--predict", type=int, help="also predict and check V(e+m) for this m"
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "audit", parents=[common], help="syllable-count degree bound checks"
    )
    p.add_argument("--exps", help="one exponent vector, e.g. 3,1,3,1")
    p.add_argument(
        "--pairs",
        type=int,
        help="sweep words with this many pairs: (max-exp + 1)^(2 pairs) words, "
        f"or --samples of them; at most {AUDIT_CAP} exponents in all",
    )
    p.add_argument("--max-exp", type=int, help="largest exponent of a sweep (default 4)")
    p.add_argument("--samples", type=int, help="sample instead of exhausting")
    p.add_argument("--seed", type=int, help="seed of the samples (default 0)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "tables", parents=[common], help="leading-term census of {0,1} words"
    )
    # analysis.CENSUS_PAIRS_CAP; analysis loads only when a census runs
    p.add_argument(
        "--pairs", type=int, required=True, help="syllable pairs, at most 8 (4^8 bit vectors)"
    )
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser(
        "units", parents=[common], help="all exponents where a family value is 1"
    )
    p.add_argument("family")
    p.set_defaults(func=_cmd_units)

    p = sub.add_parser(
        "bench",
        parents=[common],
        help="time jones and count expansion terms and naive states",
    )
    p.add_argument("--braid", required=True)
    p.add_argument("--compare", choices=("naive",), help=f"also run {_NAIVE_COST}")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "selftest", parents=[common], help="run the built-in consistency checks"
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        # only the oracle has an engine to switch to
        hint = ""
        if getattr(args, "engine", None) == "oracle":
            hint = " (use --engine recurrence)"
        print(f"braidjones: {exc}{hint}", file=sys.stderr)
        return 1
    # an inexact division (NotDivisible) or odd powers of A left in a bracket
    # (ParityError) are arithmetic invariants failing, not bad input
    except (InvariantViolation, ArithmeticError) as exc:
        print(f"braidjones: invariant violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"braidjones: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
