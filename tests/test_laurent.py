"""Exact Laurent polynomial arithmetic over the integers."""
from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import braidjones
from braidjones import braid, laurent
from braidjones.laurent import CapExceeded, LaurentPoly, NotDivisible

S = LaurentPoly.monomial(1)
ONE = LaurentPoly.monomial(0)
ZERO = LaurentPoly()


def polys(min_exp: int = -6, max_exp: int = 6, max_terms: int = 5):
    pairs = st.tuples(
        st.integers(min_value=min_exp, max_value=max_exp),
        st.integers(min_value=-9, max_value=9),
    )
    return st.lists(pairs, max_size=max_terms).map(LaurentPoly)


def divisors():
    """Nonzero divisors, half of them built to lead with +-1, +-2 or +-3."""
    lead = st.tuples(st.integers(7, 9), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    built = st.tuples(polys(), lead).map(lambda t: t[0] + LaurentPoly.monomial(*t[1]))
    return st.one_of(polys().filter(bool), built)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({2: 0, 1: 3}) == LaurentPoly({1: 3})

    def test_duplicate_exponents_merge(self):
        assert LaurentPoly([(1, 2), (1, 3)]) == LaurentPoly({1: 5})

    def test_monomial(self):
        assert LaurentPoly.monomial(-2, 7) == LaurentPoly({-2: 7})

    def test_zero_is_falsy(self):
        assert not ZERO
        assert ZERO.is_zero()
        assert ONE

    def test_extremes_of_zero(self):
        assert ZERO.degree == float("-inf")
        assert ZERO.order == float("inf")
        assert ZERO.leading == 0

    def test_degree_order_leading_trailing(self):
        p = LaurentPoly({3: -2, -1: 5})
        assert (p.degree, p.order, p.leading) == (3, -1, -2)
        assert list(p.terms())[-1] == (-1, 5)  # the trailing term


class TestArithmetic:
    def test_add_sub(self):
        p = LaurentPoly({2: 1, 0: -1})
        q = LaurentPoly({2: -1, 1: 4})
        assert p + q == LaurentPoly({1: 4, 0: -1})
        assert p - p == ZERO
        assert p + 1 == LaurentPoly({2: 1})
        assert 1 - p == LaurentPoly({2: -1, 0: 2})

    def test_mul(self):
        # (s + 1)(s - 1) = s^2 - 1
        assert LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1}) == LaurentPoly(
            {2: 1, 0: -1}
        )
        assert (S + 1) * 0 == ZERO
        assert (S + 1) * 3 == LaurentPoly({1: 3, 0: 3})

    def test_pow(self):
        assert (S + 1) ** 0 == ONE
        assert (S + 1) ** 2 == LaurentPoly({2: 1, 1: 2, 0: 1})
        assert S**-3 == LaurentPoly.monomial(-3)
        with pytest.raises(ValueError):
            (S + 1) ** -1
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, 2) ** -1

    def test_shift_and_inverse_variable(self):
        p = LaurentPoly({2: 1, -1: -3})
        assert p * LaurentPoly.monomial(2) == LaurentPoly({4: 1, 1: -3})
        assert p.inverse_variable() == LaurentPoly({-2: 1, 1: -3})
        assert p.inverse_variable().inverse_variable() == p


class TestExactDivision:
    def test_divides(self):
        num = LaurentPoly({2: 1, 0: -1})     # s^2 - 1
        den = LaurentPoly({1: 1, 0: 1})      # s + 1
        assert num.exact_div(den) == LaurentPoly({1: 1, 0: -1})

    def test_laurent_units_divide(self):
        p = LaurentPoly({1: 3, -2: 5})
        assert p.exact_div(LaurentPoly.monomial(-1)) == p * LaurentPoly.monomial(1)

    def test_non_divisible_raises(self):
        with pytest.raises(NotDivisible):
            LaurentPoly({2: 1, 0: 1}).exact_div(LaurentPoly({1: 1, 0: 1}))
        with pytest.raises(NotDivisible):
            ONE.exact_div(LaurentPoly({1: 2}))  # 1/2 not an integer

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_zero_numerator(self):
        assert ZERO.exact_div(S + 1) == ZERO

    def test_int_divisor(self):
        assert LaurentPoly({1: 4, 0: -6}).exact_div(2) == LaurentPoly({1: 2, 0: -3})
        with pytest.raises(NotDivisible):
            LaurentPoly({1: 4, 0: -6}).exact_div(4)

    @pytest.mark.parametrize("den", [2.0, Fraction(2)])
    def test_non_integer_divisor_rejected(self, den):
        with pytest.raises(TypeError):
            LaurentPoly.monomial(1, 4).exact_div(den)

    @pytest.mark.parametrize("gap", [10**6, 10**18])
    def test_sparse_gap(self, gap):
        # the work follows the term count, not the exponent span
        den = LaurentPoly({2: 1, 0: 1})
        p = LaurentPoly({gap: 1, 0: 1})
        start = time.perf_counter()
        assert (p * den).exact_div(den) == p
        assert time.perf_counter() - start < 1.0

    def test_gap_walk_cap(self):
        # uncapped, this failing division walks N/2 quotient terms down the gap
        assert braidjones.CapExceeded is braid.CapExceeded is CapExceeded
        den = LaurentPoly({2: 1, 0: 1})
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"cap of {laurent.QUOTIENT_CAP} quotient"):
            LaurentPoly({10**12: 1, 0: 2}).exact_div(den)
        assert time.perf_counter() - start < 0.1
        # the cap is checked before the walk's first subtraction, so it wins
        # over a coefficient the walk would fail to divide one step later
        with pytest.raises(CapExceeded):
            LaurentPoly({10**12: 2, 0: 1}).exact_div(LaurentPoly({2: 2, 0: 1}))
        with pytest.raises(NotDivisible):
            LaurentPoly({10: 2, 0: 1}).exact_div(LaurentPoly({2: 2, 0: 1}))
        # the cap is on the terms a walk must produce, not on the span: one
        # dense quotient from a two-term dividend is still exact
        n = 10**5
        ones = LaurentPoly({n: 1, 0: -1}).exact_div(LaurentPoly({1: 1, 0: -1}))
        assert ones == LaurentPoly({e: 1 for e in range(n)})


class TestText:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (LaurentPoly({1: -1, -1: -1}), "-s - s^-1"),
            (LaurentPoly({8: -1, 6: 1, 2: 1}), "-s^8 + s^6 + s^2"),
            (LaurentPoly({12: 2, 8: 1, 4: 1}), "2s^12 + s^8 + s^4"),
            (LaurentPoly({0: -3}), "-3"),
        ],
    )
    def test_render(self, poly, text):
        assert poly.text() == text

    def test_json_dict(self):
        d = LaurentPoly({2: 1, 0: 2, -2: 1}).as_json_dict()
        assert d == {"2": "1", "0": "2", "-2": "1"}


class TestProperties:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(), divisors())
    def test_mul_then_exact_div_recovers(self, p, q):
        assert (p * q).exact_div(q) == p

    @given(polys(), divisors())
    def test_non_unit_divisor_leaves_remainder(self, p, q):
        # only the units +-s^k divide 1
        assume(len(q) > 1 or abs(q.leading) > 1)
        with pytest.raises(NotDivisible):
            (p * q + 1).exact_div(q)

    @given(polys())
    def test_degree_order_consistency(self, p):
        if p.is_zero():
            return
        assert p.order <= p.degree
        terms = list(p.terms())
        assert (p.degree, p.leading) == terms[0]
        assert p.order == terms[-1][0]


def gapped_polys():
    """Zero, monomials, and small polynomials with exponents 10^12 apart."""
    exps = st.one_of(st.integers(-4, 4), st.sampled_from([-(10**12), 10**12, 2 * 10**12]))
    coeffs = st.integers(-9, 9)
    return st.one_of(
        st.just(ZERO),
        st.builds(LaurentPoly.monomial, exps, coeffs),
        st.lists(st.tuples(exps, coeffs), max_size=6).map(LaurentPoly),
    )


def assert_canonical(r: LaurentPoly) -> None:
    """Exponents strictly ascend, no coefficient is zero, and the hash is that
    of the sorted (exponent, coefficient) items, which set orders rest on."""
    terms = list(r.terms())
    exps = [e for e, _ in terms]
    assert exps == sorted(set(exps), reverse=True)
    assert all(c for _, c in terms) and len(r) == len(terms)
    assert r == LaurentPoly(dict(terms))
    assert hash(r) == hash(tuple(sorted(terms)))
    if terms:
        assert (r.degree, r.leading, r.order) == (*terms[0], terms[-1][0])


class TestLayout:
    @given(gapped_polys(), gapped_polys(), st.integers(0, 3))
    def test_every_result_is_canonical(self, p, q, n):
        results = [p + q, p - q, p - p, -p, p * q, p**n, p.inverse_variable()]
        if q:
            results.append((p * q).exact_div(q))
        if len(q) == 1 and abs(q.leading) == 1:
            results.append(q**-n)
        for r in results:
            assert_canonical(r)
