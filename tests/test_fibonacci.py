"""Two-root recurrences: basis pairs, corner-seed expansion, series."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidjones.engine import SKEIN_SPEC
from braidjones.fibonacci import FibSpec, general_term, s_basis
from braidjones.laurent import LaurentPoly

INT_SPEC = FibSpec(1, 2)  # x_{n+2} = 3x_{n+1} - 2x_n

int_pairs = st.tuples(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)
).filter(lambda p: p[0] != p[1])


def iterate(spec: FibSpec, x0, x1, n: int):
    seq = [x0, x1]
    while len(seq) <= n:
        seq.append(spec.step(seq[-2], seq[-1]))
    return seq[n]


class TestSpec:
    def test_equal_roots_rejected(self):
        with pytest.raises(ValueError):
            FibSpec(2, 2)

    def test_derived_quantities(self):
        assert (INT_SPEC.beta, INT_SPEC.gamma, INT_SPEC.diff) == (3, -2, 1)

    def test_mersenne_instance(self):
        # seeds 0, 1 give x_n = 2^n - 1
        for n in range(21):
            assert iterate(INT_SPEC, 0, 1, n) == 2**n - 1


class TestBasis:
    def test_seed_rows(self):
        d = INT_SPEC.diff
        assert s_basis(INT_SPEC, 0) == (d, 0)
        assert s_basis(INT_SPEC, 1) == (0, d)

    @given(int_pairs, st.integers(min_value=0, max_value=12))
    def test_basis_columns_satisfy_recurrence(self, roots, n):
        spec = FibSpec(*roots)
        s0_prev, s1_prev = s_basis(spec, n)
        s0_cur, s1_cur = s_basis(spec, n + 1)
        s0_next, s1_next = s_basis(spec, n + 2)
        assert s0_next == spec.step(s0_prev, s0_cur)
        assert s1_next == spec.step(s1_prev, s1_cur)

    @given(
        int_pairs,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=10),
    )
    def test_expansion_reproduces_sequence(self, roots, x0, x1, n):
        spec = FibSpec(*roots)
        s0, s1 = s_basis(spec, n)
        assert s0 * x0 + s1 * x1 == iterate(spec, x0, x1, n) * spec.diff

    def test_negative_index_needs_invertible_roots(self):
        with pytest.raises(ValueError):
            s_basis(INT_SPEC, -1)
        with pytest.raises(ValueError):
            s_basis(FibSpec(LaurentPoly({1: 1, 0: 1}), LaurentPoly({1: 1})), -2)

    def test_negative_index_unit_roots(self):
        spec = FibSpec(-1, 1)
        assert s_basis(spec, -1) == s_basis(spec, 1)  # both roots are involutions
        mono = FibSpec(LaurentPoly.monomial(1, -1), LaurentPoly.monomial(3))
        s0, s1 = s_basis(mono, -1)
        assert s0 == LaurentPoly.monomial(-1, -1) * LaurentPoly.monomial(3) - (
            LaurentPoly.monomial(1, -1) * LaurentPoly.monomial(-3)
        )
        assert s1 == LaurentPoly.monomial(-3) - LaurentPoly.monomial(-1, -1)


class TestGeneralTerm:
    def test_single_index_matches_iteration(self):
        seeds = {(0,): 5, (1,): -2}
        for n in range(13):
            assert general_term(INT_SPEC, seeds, (n,)) == iterate(INT_SPEC, 5, -2, n)

    def test_two_indices_product_sequence(self):
        # x[m, n] = (2^m + 1)(3 * 2^n - 1) solves the recurrence in each index
        def closed(m, n):
            return (2**m + 1) * (3 * 2**n - 1)

        seeds = {
            bits: closed(*bits) for bits in itertools.product((0, 1), repeat=2)
        }
        for m in range(7):
            for n in range(7):
                assert general_term(INT_SPEC, seeds, (m, n)) == closed(m, n)

    @given(
        int_pairs,
        st.tuples(*[st.integers(min_value=-5, max_value=5)] * 4),
        st.tuples(
            st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
        ),
    )
    def test_division_always_exact(self, roots, corner_values, index):
        # each basis entry is a ring multiple of diff, so diff^p divides out
        seeds = dict(zip(itertools.product((0, 1), repeat=2), corner_values))
        general_term(FibSpec(*roots), seeds, index)  # must not raise

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            general_term(INT_SPEC, {(): 1}, ())


class TestSeries:
    @given(
        st.one_of(int_pairs.map(lambda roots: FibSpec(*roots)), st.just(SKEIN_SPEC)),
        st.sampled_from((0, 1)),
    )
    def test_rational_generating_function(self, spec, j):
        # q(t) * sum_n (S_j[n] / D) t^n = Q_j(t) mod t^12, where
        # q(t) = 1 - beta t - gamma t^2, Q_0(t) = 1 - beta t and Q_1(t) = t
        seeds = {(0,): 1 - j, (1,): j}  # general_term then reads S_j[n] / D
        coeffs = [general_term(spec, seeds, (n,)) for n in range(12)]
        assert [c * spec.diff for c in coeffs] == [s_basis(spec, n)[j] for n in range(12)]
        product = [
            coeffs[n]
            - (spec.beta * coeffs[n - 1] if n >= 1 else 0)
            - (spec.gamma * coeffs[n - 2] if n >= 2 else 0)
            for n in range(12)
        ]
        numerator = [1, -spec.beta] if j == 0 else [0, 1]
        assert product == numerator + [0] * 10
