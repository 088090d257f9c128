"""Degree propagation, closed forms, census tables, unit search."""
from __future__ import annotations

import itertools

import pytest

from braidjones import analysis
from braidjones.analysis import (
    RECLASSIFY,
    Classification,
    InvariantViolation,
    Stability,
    ZeroPolynomial,
    alternating_closed_form,
    alternating_recurrences_check,
    alternating_word,
    classify_pair,
    degree_audit,
    leading_term_scan,
    leading_term_table,
    order_bound_check,
    predict_degrees,
    two_strand_closed_form,
    unit_search,
    unit_window,
)
from braidjones.braid import parse_family
from braidjones.engine import jones, step_up
from braidjones.laurent import LaurentPoly

V = LaurentPoly.parse


def synthetic_chain(v_e: LaurentPoly, v_e1: LaurentPoly, length: int):
    """Forward recurrence orbit; the propagation rules apply to any orbit."""
    out = [v_e, v_e1]
    while len(out) < length:
        out.append(step_up(out[-2], out[-1]))
    return out


class TestClassify:
    def test_trichotomy(self):
        stable = classify_pair(V("s^2"), V("s^5"))
        assert stable.kind is Stability.STABLE
        semi = classify_pair(V("s^3 + 1"), V("s^3"))
        assert semi.kind is Stability.SEMISTABLE
        crit = classify_pair(V("-s^2"), V("s^3"))
        assert crit.kind is Stability.CRITICAL
        assert crit.coeff_sum == 0
        assert classify_pair(V("s^2"), V("2s^3")).coeff_sum == 3

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            classify_pair(LaurentPoly(), V("1"))


class TestPredict:
    def test_m_bounds(self):
        c = classify_pair(V("1"), V("s^2"))
        with pytest.raises(ValueError):
            predict_degrees(c, V("1"), V("s^2"), 0)

    def test_m_one_returns_actual(self):
        c = classify_pair(V("1"), V("-2s^2"))
        p = predict_degrees(c, V("1"), V("-2s^2"), 1)
        assert (p.degree, p.coeff) == (2, -2)

    def test_stable_spot_value(self):
        # one odd length-step of the alternating words follows the plain
        # recurrence, so the stable rule lands on the documented value
        v3, v4 = alternating_closed_form(3), alternating_closed_form(4)
        c = classify_pair(v3, v4)
        assert c.kind is Stability.STABLE
        p = predict_degrees(c, v3, v4, 2)
        assert (p.degree, p.coeff) == (11, -1)
        assert alternating_closed_form(5) == V("-s^11 + s^9 - s^7 - s^3")

    def test_stable_on_two_strand_family(self):
        v2, v3 = two_strand_closed_form(2), two_strand_closed_form(3)
        c = classify_pair(v2, v3)
        assert c.kind is Stability.STABLE
        for m in range(2, 9):
            p = predict_degrees(c, v2, v3, m)
            actual = two_strand_closed_form(2 + m)
            assert (p.degree, p.coeff) == (actual.degree, actual.leading), m

    def test_semistable_on_two_strand_family(self):
        v0, v1 = two_strand_closed_form(0), two_strand_closed_form(1)
        c = classify_pair(v0, v1)
        assert c.kind is Stability.SEMISTABLE
        for m in range(2, 9):
            p = predict_degrees(c, v0, v1, m)
            actual = two_strand_closed_form(m)
            assert (p.degree, p.coeff) == (actual.degree, actual.leading), m

    def test_critical_nonzero_sum(self):
        fam = parse_family("B3: x1^@ x2 x1^2 x2")
        sweep = [jones(fam.instantiate(e)) for e in range(8)]
        v1, v2 = sweep[1], sweep[2]
        c = classify_pair(v1, v2)
        assert c.kind is Stability.CRITICAL
        assert c.coeff_sum == 1
        for m in range(2, 7):
            p = predict_degrees(c, v1, v2, m)
            actual = sweep[1 + m]
            assert (p.degree, p.coeff) == (actual.degree, actual.leading), m

    def test_critical_zero_sum_needs_third_value(self):
        fam = parse_family("B3: x1^@ x2 x1^3 x2")
        sweep = [jones(fam.instantiate(e)) for e in range(3)]
        c = classify_pair(sweep[1], sweep[2])
        assert c.kind is Stability.CRITICAL and c.coeff_sum == 0
        with pytest.raises(ValueError):
            predict_degrees(c, sweep[1], sweep[2], 2)

    def test_critical_zero_sum_reclassify(self):
        # next pair critical again: the rule defers one step
        fam = parse_family("B3: x1^@ x2 x1^3 x2")
        sweep = [jones(fam.instantiate(e)) for e in range(4)]
        c = classify_pair(sweep[1], sweep[2])
        assert predict_degrees(c, sweep[1], sweep[2], 3, sweep[3]) is RECLASSIFY

    def test_critical_zero_sum_degree_drop(self):
        # V(e+2) drops in degree; from m = 3 on the degree climbs again
        fam = parse_family("B3: x1^@ x2 x1^3 x2")
        sweep = [jones(fam.instantiate(e)) for e in range(10)]
        c = classify_pair(sweep[2], sweep[3])
        assert c.kind is Stability.CRITICAL and c.coeff_sum == 0
        assert int(sweep[4].degree) < int(sweep[3].degree)
        for m in range(2, 8):
            p = predict_degrees(c, sweep[2], sweep[3], m, sweep[4])
            actual = sweep[2 + m]
            assert (p.degree, p.coeff) == (actual.degree, actual.leading), m

    def test_critical_zero_sum_two_step_gap(self):
        # not realized by the sampled families; exercised on a synthetic
        # orbit of the recurrence, which the propagation rules cover too
        v_e, v_e1 = V("-s^3 + s^2"), V("s^4 + s^3")
        chain = synthetic_chain(v_e, v_e1, 9)
        c = classify_pair(v_e, v_e1)
        assert c.kind is Stability.CRITICAL and c.coeff_sum == 0
        assert int(chain[2].degree) - int(chain[1].degree) == 2
        for m in range(2, 9):
            p = predict_degrees(c, v_e, v_e1, m, chain[2])
            assert (p.degree, p.coeff) == (chain[m].degree, chain[m].leading), m

    def test_inconsistent_third_value_rejected(self):
        c = Classification(Stability.CRITICAL, 0)
        with pytest.raises(ValueError):
            predict_degrees(c, V("-s^3"), V("s^4"), 2, V("s^9"))


class TestOrderBounds:
    @pytest.mark.parametrize(
        "text", ["B2: x1^@", "B3: x1^@ x2 x1^3 x2", "B3: x2^@ x1^2 x2^2 x1"]
    )
    def test_two_sided_bounds(self, text):
        fam = parse_family(text)
        for e in (-2, 0, 3):
            for m in (2, 3, 5):
                assert order_bound_check(fam, e, m)

    def test_m_lower_bound(self):
        with pytest.raises(ValueError):
            order_bound_check(parse_family("B2: x1^@"), 0, 1)


class TestClosedForms:
    def test_two_strand_matches_engine(self):
        fam = parse_family("B2: x1^@")
        for a in range(-8, 9):
            assert two_strand_closed_form(a) == jones(fam.instantiate(a)), a

    def test_two_strand_mirror_symmetry(self):
        for a in range(0, 9):
            assert (
                two_strand_closed_form(-a)
                == two_strand_closed_form(a).inverse_variable()
            )

    def test_alternating_word_shape(self):
        w = alternating_word(5)
        assert w.text() == "B3: x1 x2 x1 x2 x1"
        assert alternating_word(0).syllables == ()
        with pytest.raises(ValueError):
            alternating_word(-1)

    def test_alternating_matches_engine(self):
        for n in range(0, 30):
            assert alternating_closed_form(n) == jones(alternating_word(n)), n

    def test_alternating_fallback_past_pinned_range(self):
        assert alternating_closed_form(31) == jones(alternating_word(31))

    def test_recurrence_audit(self):
        report = alternating_recurrences_check(3)
        assert report.ok
        assert bool(report)
        assert report.checked == 21
        assert report.failures == ()


class TestDegreeAudit:
    def test_generic_word(self):
        r = degree_audit((2, 2, 2, 2))
        assert (r.total, r.pairs, r.zeros) == (8, 2, 0)
        assert r.bound == 20
        assert (r.degree, r.leading) == (20, 1)
        assert r.bound_met

    def test_bound_strict_when_ones_present(self):
        r = degree_audit((3, 1, 3, 1))
        assert r.bound == 20
        assert (r.degree, r.leading) == (16, -1)
        assert r.bound_met

    def test_zero_exponents_shift_bound(self):
        r = degree_audit((2, 0, 3, 1))
        assert r.zeros == 1
        assert r.bound == 3 * 6 - 4 + 2
        assert r.bound_met

    def test_input_validation(self):
        with pytest.raises(ValueError):
            degree_audit(())
        with pytest.raises(ValueError):
            degree_audit((1, 2, 3))
        with pytest.raises(ValueError):
            degree_audit((1, -1, 2, 2))


class TestCensus:
    def test_single_pair_table(self):
        rows = leading_term_table(1)
        flat = [(r.delta, r.bits, r.word, r.count, r.leading, r.degree) for r in rows]
        assert flat == [
            (2, (0, 0), "1", 1, "s^2", 4),
            (1, (1, 0), "x1", 2, "-s", 2),
            (0, (1, 1), "x1 x2", 1, "1", 0),
        ]
        assert sum(r.count for r in rows) == 4

    def test_two_pair_table(self):
        rows = leading_term_table(2)
        flat = [(r.delta, r.word, r.count, r.leading, r.degree) for r in rows]
        assert flat == [
            (4, "1", 1, "s^2", 6),
            (3, "x1", 4, "-s", 4),
            (2, "x1 x2", 4, "1", 2),
            (2, "x1^2", 2, "s^6", 8),
            (1, "x1^2 x2", 4, "-s^5", 6),
            (0, "x1^3 x2", 1, "-s^8", 8),
        ]
        assert sum(r.count for r in rows) == 16

    @pytest.mark.parametrize("pairs", range(1, 7))
    def test_one_closure_per_class(self, pairs):
        # the census as first built: one conjugate closure per bit vector
        groups = {}
        for bits in itertools.product((0, 1), repeat=2 * pairs):
            letters = tuple(1 if i % 2 == 0 else 2 for i, b in enumerate(bits) if b)
            canon = min(analysis._conjugate_closure(letters)) if letters else ()
            groups.setdefault((2 * pairs - sum(bits), canon), []).append(bits)
        expected = []
        for (delta, canon), members in groups.items():
            value = jones(analysis._letters_to_word(canon))
            expected.append(
                analysis.TableRow(
                    delta=delta,
                    bits=max(members),
                    word=analysis._letters_text(canon),
                    count=len(members),
                    leading=LaurentPoly.monomial(value.degree, value.leading).text(),
                    degree=delta + value.degree,
                )
            )
        expected.sort(key=lambda r: (-r.delta, tuple(-b for b in r.bits)))
        assert leading_term_table(pairs) == expected

    def test_pairs_lower_bound(self):
        with pytest.raises(ValueError):
            leading_term_table(0)

    def test_scan_clean(self):
        report = leading_term_scan(2, samples=25, exp_max=4, seed=0)
        assert report.ok
        assert report.checked == 25
        assert report.mismatches == ()

    def test_scan_rejects_small_entries(self):
        with pytest.raises(ValueError):
            leading_term_scan(2, samples=5, exp_max=1)


class TestUnits:
    def test_two_strand_units(self):
        result = unit_search(parse_family("B2: x1^@"))
        assert result.hits == (-1, 1)

    def test_shifted_alternating_family(self):
        # units at -3 and -1; both instances destabilize to unknots
        result = unit_search(parse_family("B3: x1^@ x2 x1 x2"))
        assert result.hits == (-3, -1)
        assert result.hits[1] - result.hits[0] == 2

    def test_window_certificates(self):
        fam = parse_family("B2: x1^@")
        window = unit_window(fam)
        sweep = {e: jones(fam.instantiate(e)) for e in range(-10, 11)}
        e, o0, o1 = window.order_anchor
        assert (int(sweep[e].order), int(sweep[e + 1].order)) == (o0, o1)
        assert o0 >= 1 and o1 >= 1
        assert window.hi == e - 1
        e, d0, d1 = window.degree_anchor
        assert (int(sweep[e].degree), int(sweep[e - 1].degree)) == (d0, d1)
        assert d0 <= -1 and d1 <= -1
        assert window.lo == e + 1
        assert window.lo <= -1 <= 1 <= window.hi

    def test_violation_guards(self, monkeypatch):
        # synthetic family values with three units must trip the guard
        def stub(e):
            if e in (0, 2, 4):
                return V("1")
            return LaurentPoly.monomial(e)

        monkeypatch.setattr(analysis, "_values", lambda family: stub)
        with pytest.raises(InvariantViolation):
            unit_search(parse_family("B2: x1^@"))

    def test_spacing_guard(self, monkeypatch):
        def stub(e):
            if e in (0, 3):
                return V("1")
            if e in (1, 2):
                return V("2")  # keeps the window open across the gap
            return LaurentPoly.monomial(e)

        monkeypatch.setattr(analysis, "_values", lambda family: stub)
        with pytest.raises(InvariantViolation):
            unit_search(parse_family("B2: x1^@"))
