"""Exact arithmetic layer: Laurent polynomials, q-polynomials, cyclotomics."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from smirnov.exact import (
    ONE,
    T,
    ZERO,
    LaurentPoly,
    QtPoly,
    cyclotomic,
    eulerian,
    eval_at_root_of_unity,
    qt_divmod,
    t_quantum,
)
from smirnov.verify.qexp import q_binomial, sums_equal_at_point
from smirnov.verify.series import euler_series_check
from smirnov.verify.unimodal import palindrome_unimodal

coeffs = st.integers(-9, 9)
laurents = st.dictionaries(st.integers(-4, 6), coeffs, max_size=5).map(LaurentPoly)


def brute_descent_polynomial(n):
    counts = {}
    for sigma in permutations(range(1, n + 1)):
        d = sum(1 for i in range(n - 1) if sigma[i] > sigma[i + 1])
        counts[d] = counts.get(d, 0) + 1
    return LaurentPoly(counts)


def brute_excedance_polynomial(n):
    counts = {}
    for sigma in permutations(range(1, n + 1)):
        e = sum(1 for i, v in enumerate(sigma, start=1) if v > i)
        counts[e] = counts.get(e, 0) + 1
    return LaurentPoly(counts)


class TestLaurentPoly:
    def test_canonical_no_zero_terms(self):
        assert LaurentPoly({2: 0, 1: 3}).terms == {1: 3}

    def test_coefficients_are_ints(self):
        for c in (Fraction(1, 2), Fraction(2, 2), 0.5, "1", True, False):
            with pytest.raises(TypeError):
                LaurentPoly({0: c})

    def test_a_bool_compares_unequal(self):
        # an int compares as a constant, a bool as no value at all; it is
        # still no coefficient
        for value in (ONE, ZERO, QtPoly.one(), QtPoly({0: ZERO})):
            for flag in (True, False):
                assert not value == flag and value != flag
                assert not flag == value and flag != value
        assert ONE == 1 and QtPoly.one() == 1 and ZERO == 0
        with pytest.raises(TypeError):
            LaurentPoly.const(True)
        with pytest.raises(TypeError):
            QtPoly({0: True})

    def test_values_are_unhashable(self):
        # __eq__ compares the terms mapping, so Python leaves __hash__ unset
        for value in (ONE, QtPoly({1: T})):
            with pytest.raises(TypeError):
                hash(value)

    def test_exponents_are_ints(self):
        # int(e) would truncate 1.5 to t and 2.7 to q^2, and store True as 1
        for e in (1.5, 2.7, True, False, Fraction(1, 1), "1"):
            with pytest.raises(TypeError):
                LaurentPoly({e: 1})
            with pytest.raises(TypeError):
                QtPoly({e: 1})

    def test_pretty(self):
        assert (ONE + 4 * T + T * T).pretty() == "1 + 4*t + t^2"
        assert LaurentPoly({-1: 1}).pretty() == "t^-1"
        assert ZERO.pretty() == "0"

    def test_arithmetic(self):
        p = ONE + T
        assert p * p == LaurentPoly({0: 1, 1: 2, 2: 1})
        assert p - p == ZERO
        assert (p**3).coeff(1) == 3
        assert 2 * p == LaurentPoly({0: 2, 1: 2})

    def test_exact_division(self):
        assert (LaurentPoly({0: 6, 1: -4}) / 2).terms == {0: 3, 1: -2}
        assert (LaurentPoly({-3: 9}) / -3).terms == {-3: -3}
        with pytest.raises(ValueError):
            LaurentPoly({0: 3}) / 2
        with pytest.raises(ValueError):
            LaurentPoly({0: 6, 1: 4}) / 4
        with pytest.raises(ZeroDivisionError):
            ONE / 0
        with pytest.raises(TypeError):
            t_quantum(4) / t_quantum(2)

    def test_reverse_and_derivative(self):
        p = LaurentPoly({0: 1, 1: 2, 3: 5})
        assert p.reverse(3) == LaurentPoly({3: 1, 2: 2, 0: 5})
        assert p.derivative() == LaurentPoly({0: 2, 2: 15})

    def test_json_round_trip(self):
        p = LaurentPoly({-1: 2, 3: -7})
        assert p.to_json_obj() == {"-1": 2, "3": -7}

    @given(laurents, laurents, laurents)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a

    @given(laurents, coeffs.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_division_inverts_multiplication(self, a, c):
        assert (a * c) / c == a

    @given(laurents, laurents, coeffs)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_stores_canonical_terms(self, a, b, c):
        # results of arithmetic skip the constructor; each must hold int
        # exponents and nonzero int coefficients, and equal its rebuilding
        # through the constructor
        results = [a + b, a - b, a * b, -a, a * c, c * a, a + c, c - a]
        results += [a.derivative(), a.reverse(3), a.truncated(2), a**2]
        if c:
            results.append((a * c) / c)
        for p in results:
            for e, v in p.terms.items():
                assert type(e) is int and type(v) is int and v
            assert LaurentPoly(p.terms).terms == p.terms


class TestTQuantum:
    def test_reference_values(self):
        assert t_quantum(3) == ONE + T + T * T
        assert t_quantum(0) == ZERO
        assert t_quantum(-2) == LaurentPoly({-2: -1, -1: -1})

    def test_negative_reflection(self):
        for n in range(1, 11):
            assert t_quantum(-n) == -(t_quantum(n) * LaurentPoly.t_power(-n))

    def test_telescoping(self):
        for n in range(-5, 6):
            assert t_quantum(n) * (T - ONE) == LaurentPoly({n: 1}) - ONE


class TestEulerian:
    def test_degenerate_and_small(self):
        assert eulerian(0) == LaurentPoly({-1: 1})
        assert eulerian(1) == ONE
        assert eulerian(3) == LaurentPoly({0: 1, 1: 4, 2: 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eulerian(-1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equidistribution_with_brute_force(self, n):
        assert eulerian(n) == brute_descent_polynomial(n)
        assert eulerian(n) == brute_excedance_polynomial(n)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_geometric_series_identity(self, m):
        assert euler_series_check(m)


class TestQBinomial:
    def test_values(self):
        assert q_binomial(2, 1) == QtPoly({0: 1, 1: 1})
        assert q_binomial(5, 0) == QtPoly.one()
        assert q_binomial(4, 2) == QtPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert q_binomial(3, 5) == QtPoly.zero()

    def test_specializes_to_binomial(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k).at_q_one() == LaurentPoly.const(math.comb(n, k))

    def test_symmetry(self):
        for n in range(9):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == QtPoly({1: 1, 0: -1})
        assert cyclotomic(2) == QtPoly({1: 1, 0: 1})
        assert cyclotomic(4) == QtPoly({2: 1, 0: 1})

    def test_degrees_sum_to_n(self):
        for n in range(1, 13):
            total = sum(cyclotomic(d).q_degree() for d in range(1, n + 1) if n % d == 0)
            assert total == n

    def test_product_recovers_q_power_minus_one(self):
        for n in (1, 2, 3, 4, 6, 12):
            prod = QtPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == QtPoly({n: 1, 0: -1})


qtpolys = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly),
    max_size=4,
).map(QtPoly)


class TestRootOfUnity:
    def test_reference_values(self):
        assert eval_at_root_of_unity(QtPoly({0: 1, 1: 1, 2: 1}), 3) == ZERO
        assert eval_at_root_of_unity(QtPoly.from_t(T), 5) == T
        assert eval_at_root_of_unity(QtPoly({2: 1}), 2) == ONE

    def test_non_constant_residue_detected(self):
        with pytest.raises(ValueError):
            eval_at_root_of_unity(QtPoly({1: 1}), 4)

    def test_divmod_reconstructs(self):
        f = QtPoly({5: T, 3: ONE + T, 0: 2})
        g = cyclotomic(6)
        quo, rem = qt_divmod(f, g)
        assert quo * g + rem == f
        assert rem.q_degree() is None or rem.q_degree() < g.q_degree()

    @given(qtpolys, qtpolys, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_ring_morphism(self, f, g, k):
        def reduce(h):
            return qt_divmod(h, cyclotomic(k))[1]

        assert reduce(f + g) == reduce(f) + reduce(g)
        assert reduce(f * g) == reduce(reduce(f) * reduce(g))


    @given(
        st.dictionaries(st.integers(0, 40), laurents, max_size=6).map(QtPoly),
        st.dictionaries(st.integers(0, 28), laurents, max_size=4).map(QtPoly),
        laurents,
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_folded_value_is_the_direct_remainder(self, f, h, p, k):
        # f is mostly not free of the root; h * cyclotomic(k) + p always is
        for g in (f, h * cyclotomic(k) + QtPoly.from_t(p)):
            rem = qt_divmod(g, cyclotomic(k))[1]
            if rem.q_degree():
                with pytest.raises(ValueError):
                    eval_at_root_of_unity(g, k)
            else:
                assert eval_at_root_of_unity(g, k) == rem.coeff(0)


# integer coefficients wide enough to need several bits per digit, and
# negative t-exponents
int_qtpolys = st.dictionaries(
    st.integers(0, 9),
    st.dictionaries(st.integers(-3, 5), st.integers(-300, 300), max_size=4).map(LaurentPoly),
    max_size=4,
).map(QtPoly)


def moved_q_weight(f: QtPoly, a: int, b: int) -> QtPoly:
    """f with one unit of the monomial q^a t^b moved to q^(a + 1) t^b: the
    same value at q = 1."""
    unit = LaurentPoly.t_power(b)
    return f + QtPoly.q_power(a + 1, unit) - QtPoly.q_power(a, unit)


class TestSumsEqualAtPoint:
    """The comparison at one integer point against QtPoly equality."""

    @given(int_qtpolys, int_qtpolys, int_qtpolys)
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_equality(self, f, g, h):
        assert sums_equal_at_point([([(f, g), (h,)], f * g + h)])
        assert sums_equal_at_point([([(f,)], g)]) == (f == g)
        assert sums_equal_at_point([([(f, g)], h)]) == (f * g == h)
        assert sums_equal_at_point([([(f, g)], f * g), ([(h,)], f)]) == (h == f)

    @given(int_qtpolys, int_qtpolys, st.sampled_from([-1, 1]))
    @settings(max_examples=80, deadline=None)
    def test_one_unit_at_the_highest_coefficient_is_seen(self, f, g, unit):
        rhs = f * g
        a = rhs.q_degree() or 0
        b = rhs.coeff(a).degree() or 0
        bumped = rhs + QtPoly.q_power(a, LaurentPoly.t_power(b, unit))
        assert sums_equal_at_point([([(f, g)], rhs)])
        assert not sums_equal_at_point([([(f, g)], bumped)])

    @given(int_qtpolys, int_qtpolys, st.data())
    @settings(max_examples=80, deadline=None)
    def test_pairs_that_agree_at_q_one_are_told_apart(self, f, g, data):
        rhs = f * g
        a = data.draw(st.integers(0, 9))
        b = data.draw(st.integers(-3, 5))
        moved = moved_q_weight(rhs, a, b)
        assert moved.at_q_one() == rhs.at_q_one() and moved != rhs
        assert not sums_equal_at_point([([(f, g)], moved)])

    def test_zero_sides_and_products(self):
        f = QtPoly({0: ONE + T, 3: -T})
        assert sums_equal_at_point([])
        assert sums_equal_at_point([([], QtPoly.zero())])
        assert sums_equal_at_point([([(QtPoly.zero(), f)], QtPoly.zero())])
        assert not sums_equal_at_point([([], f)])

    def test_a_t_power_is_not_the_next_q_power(self):
        # with too few digits per power of q, t^b and q t^(b - span) would meet
        for b in range(1, 6):
            for low in (0, -1, -3):
                lhs = QtPoly.from_t(LaurentPoly.t_power(b))
                rhs = QtPoly.q_power(1, LaurentPoly.t_power(low))
                assert not sums_equal_at_point([([(lhs,)], rhs)])
                assert not sums_equal_at_point([([(lhs, QtPoly.one())], rhs)])

    def test_a_carry_between_digits_is_not_a_match(self):
        # with too few bits per digit, c * t^0 and t^1 would meet at the point
        for c in (1, 2, 3, 255, 256, 2**40):
            lhs = QtPoly.from_t(LaurentPoly.const(c))
            assert not sums_equal_at_point([([(lhs,)], QtPoly.from_t(T))])
            assert not sums_equal_at_point([([(lhs,)], QtPoly.q_power(1))])


class TestPalindromeUnimodal:
    def test_examples(self):
        p = (ONE + T) * (ONE + T + T * T)
        assert palindrome_unimodal(p, Fraction(3, 2)) == (True, True)
        m = 4
        gap = LaurentPoly({m - 1: 1, m + 1: 1})
        assert palindrome_unimodal(gap, m) == (True, False)
        assert palindrome_unimodal(ZERO, Fraction(7, 2)) == (True, True)

    def test_half_integer_centers_only(self):
        with pytest.raises(ValueError):
            palindrome_unimodal(ONE, Fraction(1, 3))

    def test_off_center_fails(self):
        assert palindrome_unimodal(ONE + T, 1) == (False, True)

    def test_negative_coefficient_not_unimodal(self):
        assert palindrome_unimodal(ONE - T + T**2, 1) == (True, False)
        assert palindrome_unimodal(ONE - T, Fraction(1, 2)) == (False, False)

    @given(laurents, laurents)
    @settings(max_examples=30, deadline=None)
    def test_product_preserves_both(self, a, b):
        # restrict to nonnegative-coefficient inputs
        a = LaurentPoly({e: abs(c) for e, c in a.terms.items()})
        b = LaurentPoly({e: abs(c) for e, c in b.terms.items()})
        if not a or not b:
            return
        ca = Fraction(a.valuation() + a.degree(), 2)
        cb = Fraction(b.valuation() + b.degree(), 2)
        if palindrome_unimodal(a, ca) == (True, True) and palindrome_unimodal(b, cb) == (
            True,
            True,
        ):
            assert palindrome_unimodal(a * b, ca + cb) == (True, True)
