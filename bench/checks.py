"""Output checks for every benchmark operation.

Each output gets a digest, compared against the references recorded for the
default seed, and two live checks:

* V(1) = (-2)^(components - 1), on every polynomial an operation returns;
* a cross-check by a second route, when no reference covers the output:
  the bracket oracle for ``words`` and for the pinned quartic
  x1^a x2^a x1^a x2^a with a <= 300, the 2^k expansion with
  oracle-evaluated base words for every other quartic (the oracle takes
  seconds on a few hundred crossings, the expansion milliseconds),
  and the oracle value of a rotated word for ``oracle``. Every shell output
  is checked against the oracle through the library, whatever the seed.

Only the public braidjones API is used. A check returns an error message,
or None when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import re

from braidjones.braid import BraidWord, Syllable, parse_braid, parse_family
from braidjones.bracket import jones_via_bracket
from braidjones.engine import expand
from braidjones.laurent import LaurentPoly

# a pinned quartic x1^a x2^a x1^a x2^a up to this a is checked by the oracle
ORACLE_QUARTIC_MAX = 300
S2P1 = LaurentPoly({2: 1, 0: 1})
# fields of CLI records that hold timings, not results
TIMING_FIELDS = ("engine_seconds",)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def poly_digest(value: LaurentPoly) -> str:
    return text_digest(",".join(f"{e}:{c}" for e, c in value.terms()))


def unit_check(word: BraidWord, value: LaurentPoly) -> str | None:
    at_one = sum(c for _, c in value.terms())
    expected = (-2) ** (word.components() - 1)
    if at_one != expected:
        return f"V(1) = {at_one}, expected {expected} for {word.text()}"
    return None


def _same(word: BraidWord, value: LaurentPoly, other: LaurentPoly, route: str) -> str | None:
    if value != other:
        return f"{word.text()}: value differs from the {route}"
    return None


def expansion_check(word: BraidWord, value: LaurentPoly) -> str | None:
    """(s^2+1)^k V(word) must equal the sum of weight * oracle(base)."""
    total = LaurentPoly()
    for term in expand(word):
        total = total + term.weight * jones_via_bracket(term.base)
    if total != value * S2P1 ** len(word.syllables):
        return f"{word.text()}: value differs from the 2^k expansion"
    return None


def cross_check(workload: str, word: BraidWord, value: LaurentPoly) -> str | None:
    if workload == "oracle":
        turned = word.rotated(len(word.syllables) // 2)
        return _same(word, value, jones_via_bracket(turned), "oracle on a rotation")
    if workload == "quartic":
        exps = {s.exp for s in word.syllables}
        if len(exps) > 1 or max(exps) > ORACLE_QUARTIC_MAX:
            return expansion_check(word, value)
    return _same(word, value, jones_via_bracket(word), "oracle")


def check_library(
    workload: str, word: BraidWord, value: LaurentPoly, live: bool
) -> tuple[str, str | None]:
    """Digest of one library output and the first failed check, if any."""
    error = unit_check(word, value)
    if error is None and live:
        error = cross_check(workload, word, value)
    return poly_digest(value), error


# -- shell outputs -----------------------------------------------------------


def normalize_output(stdout: str) -> tuple[list[dict], str]:
    """JSON records of a CLI run, and their digest without timing fields."""
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    for rec in records:
        for key in TIMING_FIELDS:
            rec.pop(key, None)
    canon = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    return records, text_digest(canon)


def _poly(record: dict) -> LaurentPoly:
    return LaurentPoly({int(e): int(c) for e, c in record["polynomial"].items()})


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _oracle_polys(words: list[BraidWord], records: list[dict]) -> str | None:
    if len(records) != len(words):
        return f"{len(records)} records for {len(words)} values"
    for word, rec in zip(words, records):
        value = _poly(rec)
        error = unit_check(word, value) or _same(
            word, value, jones_via_bracket(word), "oracle"
        )
        if error:
            return error
    return None


def _check_jones(argv, records):
    return _oracle_polys([parse_braid(argv[2])], records)


def _check_family(argv, records):
    family = parse_family(argv[2])
    lo, hi = (int(x) for x in re.match(r"(-?\d+)\.\.(-?\d+)$", _option(argv, "--range")).groups())
    return _oracle_polys([family.instantiate(e) for e in range(lo, hi + 1)], records)


def _check_genfun(argv, records):
    strands = int(_option(argv, "--strands"))
    indices = [int(x) for x in _option(argv, "--indices").split(",")]
    words = []
    for rec in records:
        exps = [int(x) for x in re.findall(r"-?\d+", rec["input"])]
        words.append(BraidWord(strands, tuple(Syllable(g, a) for g, a in zip(indices, exps))))
    upto = int(_option(argv, "--upto"))
    if len(records) != (upto + 1) ** len(indices):
        return f"{len(records)} coefficients, expected {(upto + 1) ** len(indices)}"
    return _oracle_polys(words, records)


def _check_tables(argv, records):
    pairs = int(_option(argv, "--pairs"))
    if sum(r["count"] for r in records) != 4**pairs:
        return "census counts do not cover every word"
    for r in records:
        word = parse_braid("B3:" + ("" if r["word"] == "1" else " " + r["word"]))
        value = jones_via_bracket(word)
        lead = LaurentPoly.monomial(int(value.degree), value.leading)
        if lead.text() != r["leading"] or r["degree"] != r["delta"] + int(value.degree):
            return f"census row {r['word']} differs from the oracle"
    return None


def _check_audit(argv, records):
    (rec,) = records
    if rec["checked"] != int(_option(argv, "--samples")) or rec["violations"]:
        return f"audit reported {rec}"
    return None


def _check_units(argv, records):
    (rec,) = records
    family = parse_family(argv[2])
    lo, hi = rec["window"]
    hits = [e for e in range(lo, hi + 1) if jones_via_bracket(family.instantiate(e)) == 1]
    if hits != rec["hits"]:
        return f"units {rec['hits']}, oracle finds {hits}"
    return None


def _check_classify(argv, records):
    (rec,) = records
    if rec.get("prediction") == "reclassify":
        return None
    at, m = int(_option(argv, "--at")), int(_option(argv, "--predict"))
    value = jones_via_bracket(parse_family(argv[2]).instantiate(at + m))
    actual = {"degree": int(value.degree), "leading": value.leading}
    if not rec.get("agree") or rec.get("actual") != actual:
        return f"classify reported {rec}, oracle gives {actual}"
    return None


def _check_bench(argv, records):
    (rec,) = records
    if rec.get("naive") != "agrees":
        return f"bench reported naive: {rec.get('naive')}"
    return _oracle_polys([parse_braid(_option(argv, "--braid"))], records)


def _check_selftest(argv, records):
    failed = [r["name"] for r in records if not r["ok"]]
    if not records or failed:
        return f"selftest failures: {failed}"
    return None


SHELL_CHECKS = {
    "jones": _check_jones,
    "family": _check_family,
    "genfun": _check_genfun,
    "tables": _check_tables,
    "audit": _check_audit,
    "units": _check_units,
    "classify": _check_classify,
    "bench": _check_bench,
    "selftest": _check_selftest,
}


def check_shell(argv: list[str], code: int, stdout: str) -> tuple[str, str | None]:
    """Digest of one CLI run and the first failed check, if any.

    Every CLI output is cross-checked, whatever the seed: the words involved
    are small, so the oracle answers in milliseconds.
    """
    if code != 0:
        return "", f"exit code {code}"
    try:
        records, digest = normalize_output(stdout)
    except json.JSONDecodeError as exc:
        return "", f"unreadable output: {exc}"
    return digest, SHELL_CHECKS[argv[0]](argv, records)
