"""Closed forms against oracles, q-Eulerian identities, determinant check."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from smirnov.exact import ONE, T, ZERO, LaurentPoly, QtPoly, eulerian, t_quantum
from smirnov import combinat
from smirnov import enumerators as en
from smirnov.symfun import SymFun, monomial_to_e, partitions_of
from smirnov.verify.counting import suite_counting
from smirnov.verify.f import fundamental_F
from smirnov.verify.powersum import TOP_VARIANTS, _powersum_extraction
from smirnov.verify.qexp import (
    QEXP_IDENTITIES, inverse_perm, perm_stats, permutations_of, q_exp_identity_check, q_statistic_diagnostic,
)
from smirnov.verify.series import CLEARED_VARIANTS, cleared_form_check, quotient_form_check, suite_series
from smirnov.verify.transfer import distinguished_element_check, transfer_matrix_check
from smirnov.verify.unimodal import suite_unimodal
from monomial_reference import MonomialTable, expand_in_variables, times_factorial_in_plain_p


class TestAbc:
    def test_base_cases(self):
        assert en.abc(2) == (ONE, T, ZERO)
        assert en.abc(3) == (ONE + 2 * T, 2 * T + T * T, 3 * T)

    def test_identities_through_ten(self):
        for i in range(2, 11):
            a, b, c = en.abc(i)
            assert a + b - c == t_quantum(i)
            assert T * a + b == i * T * t_quantum(i - 1)
            assert b == a.reverse(i - 1)

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            en.abc(1)


class TestClosedForm:
    def test_degree_five_cyclic_display(self):
        expected = SymFun(
            "e",
            5,
            {
                (4, 1): T + T**2 + T**3,
                (2, 2, 1): T**2,
                (3, 2): 2 * T**2 + 5 * T**3,
                (5,): LaurentPoly.t_power(4, 5),
            },
        )
        assert en.closed_form("Wtilde", 5) == expected

    def test_degree_five_cyclic_from_brute_force(self):
        # same display recovered by converting the raw word table in 5 variables
        table = combinat.brute_enumerator("Wtilde", 5, 5)
        assert monomial_to_e(table) == en.closed_form("Wtilde", 5)

    def test_first_less_degree_three_positive(self):
        from smirnov.verify.unimodal import e_positive

        f = en.closed_form("Wless", 3)
        assert f == SymFun("e", 3, {(3,): ONE + 2 * T})
        assert e_positive(f)

    def test_equal_class_degree_three(self):
        assert en.closed_form("Wequal", 3) == SymFun("e", 3, {(2, 1): T, (3,): -3 * T})
        # in two variables the degree-3 elementary vanishes; brute check
        lhs = expand_in_variables(en.closed_form("Wequal", 3), 2)
        assert lhs == combinat.brute_enumerator("Wequal", 3, 2)

    def test_first_less_degree_two(self):
        assert en.closed_form("Wless", 2) == SymFun.generator("e", 2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            en.closed_form("W", 0)
        with pytest.raises(ValueError):
            en.closed_form("Wneq", 1)
        with pytest.raises(ValueError):
            en.closed_form("XC", 1)
        with pytest.raises(ValueError):
            en.closed_form("Wfoo", 3)

    @pytest.mark.parametrize("variant", en.VARIANTS)
    def test_oracle_equivalence_small(self, variant):
        start = 2 if variant in ("Wneq", "XC") else 1
        for n in range(start, 6):
            lhs = expand_in_variables(en.closed_form(variant, n), 5)
            if variant == "XC":
                rhs = combinat.ring_colorings(n, 5)["cycle", n]
            else:
                rhs = combinat.brute_enumerator(variant, n, 5)
            assert lhs == rhs, (variant, n)

    @pytest.mark.parametrize("variant", CLEARED_VARIANTS)
    def test_cleared_forms(self, variant):
        assert cleared_form_check(variant, 6)
        assert cleared_form_check(variant, 1)

    def test_quotient_forms(self):
        for variant in en.VARIANTS:
            assert quotient_form_check(variant, 6)


class TestPowersum:
    def test_cyclic_degree_three(self):
        form = en.powersum_form("Wtilde", 3)
        assert form.coeff((3,)) == LaurentPoly.t_power(2, 3)
        assert form.coeff((2, 1)) == T + 3 * T**2
        assert form.coeff((1, 1, 1)) == 3 * T + 3 * T**2

    def test_plain_degree_two(self):
        form = en.powersum_form("W", 2)
        assert form.coeff((2,)) == ONE + T
        assert form.coeff((1, 1)) == ONE + T

    def test_cyclic_distinct_single_part(self):
        for n in range(2, 7):
            form = en.powersum_form("Wtildeneq", n)
            assert form.coeff((n,)) == n * T * t_quantum(n - 1)

    def test_endpoint_single_part_coefficients(self):
        for n in range(2, 7):
            less = en.powersum_form("Wless", n).coeff((n,))
            greater = en.powersum_form("Wgreater", n).coeff((n,))
            assert less == LaurentPoly({i: i + 1 for i in range(n - 1)})
            assert greater == LaurentPoly({i: n - i for i in range(1, n)})

    @pytest.mark.parametrize("variant", en.POWERSUM_VARIANTS)
    def test_against_brute_force(self, variant):
        for n in range(1, 6):
            # n! times each side, where the form is integral in plain p
            lhs = expand_in_variables(times_factorial_in_plain_p(en.powersum_form(variant, n).omega()), n)
            rhs = combinat.brute_enumerator(variant, n, n).scale(math.factorial(n))
            assert lhs == rhs, (variant, n)

    def test_top_coefficient_examples(self):
        less, greater = (en.powersum_form(v, 3).coeff((3,)) for v in ("Wless", "Wgreater"))
        assert less + greater == ONE + 4 * T + T**2  # Wneq
        assert less + T * greater == (ONE + T) * (ONE + T + T**2)  # XC

    def test_top_coefficient_matches_e_expansion(self):
        # D(z) has no degree-1 term and w_0 = 0, so the e_n coefficient of
        # N(z) / D(z) is the numerator weight w_n
        for variant in TOP_VARIANTS:
            for n in range(2, 9):
                assert en.closed_form(variant, n).coeff((n,)) == en.numerator_weight(variant, n)

    def test_all_coefficients_nonnegative_valuation(self):
        for variant in en.POWERSUM_VARIANTS:
            for n in range(1, 7):
                form = en.powersum_form(variant, n)
                for c in form.terms.values():
                    assert c.valuation() >= 0


class TestFExpansion:
    def test_cyclic_degree_three(self):
        fe = en.f_expansion("Wtilde", 3)
        assert fe.terms == ((1, (), 1), (1, (1,), 1), (1, (2,), 1), (2, (), 3))

    def test_first_less_degree_two(self):
        fe = en.f_expansion("Wless", 2)
        assert fe.terms == ((0, (), 1),)

    def test_plain_degree_one(self):
        fe = en.f_expansion("W", 1)
        assert fe.terms == ((0, (), 1),)

    @pytest.mark.parametrize("variant", en.F_VARIANTS)
    def test_against_omega_closed_form(self, variant):
        for n in range(1, 6):
            fe = en.f_expansion(variant, n)
            lhs = fe.to_table(n)
            rhs = expand_in_variables(en.closed_form(variant, n).omega(), n)
            assert lhs == rhs, (variant, n)

    @pytest.mark.parametrize("variant", en.F_VARIANTS)
    def test_m_alpha_rule_matches_fundamental_sum(self, variant):
        # with the single-term test below, the only check of the cut
        # orientation: cuts read from alpha's first part pass the f suite
        for n in range(1, 7):
            fe = en.f_expansion(variant, n)
            by_set = {}
            for e, S, mult in fe.terms:
                by_set[S] = by_set.get(S, ZERO) + LaurentPoly.t_power(e, mult)
            for k in range(1, n + 2):
                expected = MonomialTable.zero(k)
                for S, poly in by_set.items():
                    f_table = MonomialTable(k, fundamental_F(n, S, k))
                    expected = expected + f_table.scale(poly)
                assert fe.to_table(k) == expected, (variant, n, k)

    def test_m_alpha_rule_on_single_terms(self):
        # one F_{n,S} at a time, so no other term can mask a wrong coefficient
        for n in range(1, 6):
            for bits in range(1 << (n - 1)):
                S = tuple(i + 1 for i in range(n - 1) if bits >> i & 1)
                for k in range(1, n + 2):
                    fe = en.FExpansion(n, ((0, S, 1),))
                    f_table = MonomialTable(k, fundamental_F(n, S, k))
                    assert fe.to_table(k) == f_table, (S, k)

    def test_principal_numerators_are_q_eulerian(self):
        for variant, kind in (("W", "Ades"), ("Wless", "Aless"), ("Wtilde", "Atilde")):
            for n in range(1, 6):
                assert en.f_expansion(variant, n).principal_numerator() == en.q_eulerian(
                    kind, n
                )


class TestQEulerian:
    def test_hand_values(self):
        assert en.q_eulerian("Ades", 3) == QtPoly(
            {0: ONE + 2 * T + T**2, 1: T, 2: T}
        )
        assert en.q_eulerian("Atilde", 3) == QtPoly({0: T + 3 * T**2, 1: T, 2: T})
        assert en.q_eulerian("Aless", 3) == QtPoly({0: ONE + 2 * T})

    @pytest.mark.parametrize("n", range(0, 8))
    def test_interpretations_agree(self, n):
        assert en.q_eulerian("Amajexc", n) == en.q_eulerian("Ades", n)

    def test_specializes_to_eulerian(self):
        for n in range(1, 8):
            assert en.q_eulerian("Ades", n).at_q_one() == eulerian(n)

    def test_at_one_corollaries(self):
        for n in range(2, 9):
            assert en.q_eulerian("Atilde", n).at_q_one() == n * T * eulerian(n - 1)
            assert en.q_eulerian("Aless", n).at_q_one() == (T * eulerian(n - 1)).derivative()

    def test_statistic_diagnostic(self):
        diag = q_statistic_diagnostic(3)
        assert diag["des_weighted_agree"]
        assert not diag["cdes_weighted_agree"]
        diag4 = q_statistic_diagnostic(4)
        assert diag4["des_weighted_agree"]

    @pytest.mark.parametrize("kind", QEXP_IDENTITIES)
    def test_q_exponential_identities(self, kind):
        assert q_exp_identity_check(kind, 6)

    def test_base_case(self):
        # one permutation of length 1, no cyclic descent
        assert en.q_eulerian("Atilde", 1) == QtPoly.one()
        assert q_exp_identity_check("Atilde", 1)


@lru_cache(maxsize=None)
def swept_permutations(n):
    """Every permutation of 1..n with its own and its inverse's statistics."""
    return [
        (sigma, perm_stats(sigma), perm_stats(inverse_perm(sigma)))
        for sigma in permutations_of(n)
    ]


def swept_f_expansion(variant, n):
    counts = {}
    for sigma, stats, inv_stats in swept_permutations(n):
        if variant == "Wless" and not sigma[0] < sigma[-1]:
            continue
        if variant == "Wgreater" and not sigma[0] > sigma[-1]:
            continue
        e = stats.cdes if variant == "Wtilde" else stats.des
        S = inv_stats.asc2_set if variant == "Wgreater" else inv_stats.des2_set
        key = (e, tuple(sorted(S)))
        counts[key] = counts.get(key, 0) + 1
    return en.FExpansion.from_counts(n, counts)


def swept_q_eulerian(kind, n):
    counts = {}
    for sigma, stats, inv_stats in swept_permutations(n):
        if kind == "Aless" and not sigma[0] < sigma[-1]:
            continue
        if kind == "Amajexc":
            qe, te = stats.maj - stats.exc, stats.exc
        else:
            qe, te = inv_stats.maj2des, stats.cdes if kind == "Atilde" else stats.des
        counts.setdefault(qe, {})
        counts[qe][te] = counts[qe].get(te, 0) + 1
    return QtPoly({qe: LaurentPoly(poly) for qe, poly in counts.items()})


class TestPermutationWalks:
    """The walks behind f_expansion and q_eulerian against a sweep over every
    permutation, with the statistics read off perm_stats of sigma and of its
    inverse."""

    @pytest.mark.parametrize("variant", en.F_VARIANTS)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_f_walk_matches_permutation_sweep(self, variant, n):
        assert en.f_expansion(variant, n) == swept_f_expansion(variant, n)

    @pytest.mark.parametrize("kind", en.Q_EULERIAN_KINDS)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_q_walk_matches_permutation_sweep(self, kind, n):
        assert en.q_eulerian(kind, n) == swept_q_eulerian(kind, n)

    def test_degree_one_edges(self):
        # the one permutation has first == last: no endpoint class, no wrap
        assert en.f_expansion("Wless", 1).terms == ()
        assert en.f_expansion("Wgreater", 1).terms == ()
        assert en.f_expansion("Wtilde", 1).terms == ((0, (), 1),)
        assert en.q_eulerian("Aless", 1) == QtPoly.zero()
        assert en.q_eulerian("Atilde", 1) == QtPoly.one()

    @pytest.mark.parametrize("kind", en.Q_EULERIAN_KINDS)
    def test_degree_zero_convention(self, kind):
        expected = QtPoly.zero() if kind == "Aless" else QtPoly.one()
        assert en.q_eulerian(kind, 0) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda: en.f_expansion("Wequal", 3),
            lambda: en.f_expansion("W", 0),
            lambda: en.f_expansion("W", 9),
            lambda: en.q_eulerian("Abogus", 3),
            lambda: en.q_eulerian("Ades", -1),
            lambda: en.q_eulerian("Ades", 9),
        ],
    )
    def test_rejects_bad_arguments(self, call):
        with pytest.raises(ValueError):
            call()


class TestRootsOfUnity:
    def test_examples(self):
        assert en.root_of_unity("Atilde", 3, 3) == LaurentPoly.t_power(2, 3)
        assert en.root_of_unity("Ades", 4, 2) == (ONE + T) ** 3
        assert en.root_of_unity("Aless", 3, 1) == ONE + 2 * T

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            en.root_of_unity("Ades", 4, 3)
        with pytest.raises(ValueError):
            en.root_of_unity("Atilde", 1, 1)

    def test_all_routes_agree_small(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                if n % k:
                    continue
                for kind in en.ROOT_FAMILIES:
                    parts, agree = en.root_of_unity_parts(kind, n, k)
                    vals = list(parts.values())
                    assert agree and all(v == vals[0] for v in vals), (kind, n, k)

    def test_values_land_in_nonnegative_integer_polynomials(self):
        for n in range(2, 7):
            for k in (1, n):
                for kind in en.ROOT_FAMILIES:
                    assert en.root_of_unity(kind, n, k).in_nat_t()


class TestTransferMatrix:
    def test_two_by_two(self):
        assert transfer_matrix_check(2)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_determinant_identity(self, k):
        assert transfer_matrix_check(k)

    @pytest.mark.parametrize("k", [0, 7])
    def test_out_of_range_is_rejected(self, k):
        with pytest.raises(ValueError, match="transfer_k"):
            transfer_matrix_check(k)

    def test_singleton_is_trivial(self):
        assert transfer_matrix_check(1)

    def test_distinguished_element(self):
        for k in range(1, 7):
            for j in range(0, 6):
                assert distinguished_element_check(j, k)


class TestSuites:
    def test_unimodality_records_all_pass(self):
        records = suite_unimodal()
        assert records and all(r["status"] == "pass" for r in records)

    def test_counting_records_all_pass(self):
        records = suite_counting()
        assert records and all(r["status"] == "pass" for r in records)

    def test_counting_hand_values(self):
        # two-letter words of length 2: 12 and 21
        lhs = combinat.brute_enumerator("W", 2, 2).sum_coeffs()
        assert lhs == ONE + T
        # three-letter alphabet of size 1 admits no valid words
        assert combinat.brute_enumerator("W", 3, 1).sum_coeffs() == ZERO
        # cdes over the two words of length 3 on two letters
        assert combinat.brute_enumerator("Wtilde", 3, 2).sum_coeffs() == 2 * T

    def test_series_suite_passes(self):
        records = suite_series(5)
        assert records and all(r["status"] == "pass" for r in records)

    def test_powersum_extraction_route(self):
        for n in range(1, 5):
            lhs = _powersum_extraction(n)
            rhs = en.powersum_form("W", n)
            assert lhs.basis == "p/z" and lhs == rhs


class TestUnimodalityDetails:
    def test_even_cycle_witness(self):
        for n in (4, 6, 8):
            m = n // 2
            xc = en.closed_form("XC", n)
            assert xc.coeff((2,) * m) == LaurentPoly.t_power(m - 1) + LaurentPoly.t_power(m + 1)

    def test_distinct_endpoint_center(self):
        from smirnov.verify.unimodal import e_unimodal_palindromic

        for n in range(2, 9):
            flags = e_unimodal_palindromic(en.closed_form("Wneq", n), Fraction(n - 1, 2))
            assert flags == (True, True)

    def test_degree_five_cyclic_fails_both(self):
        from smirnov.verify.unimodal import e_unimodal_direct, e_unimodal_palindromic

        w5 = en.closed_form("Wtilde", 5)
        assert not e_unimodal_direct(w5)
        for c2 in range(0, 11):
            pal, _ = e_unimodal_palindromic(w5, Fraction(c2, 2))
            assert not pal

    def test_equal_class_sign_structure(self):
        for n in range(2, 9):
            weq = en.closed_form("Wequal", n)
            assert weq.coeff((n,)) == -(n * T * t_quantum(n - 2))
            for lam in partitions_of(n):
                c = weq.coeff(lam)
                if 1 in lam:
                    assert c.in_nat_t(), (n, lam)
                else:
                    assert (-c).in_nat_t(), (n, lam)
