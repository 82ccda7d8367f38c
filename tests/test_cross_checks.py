"""Independent cross-module routes to the same values.

These checks never reuse the code path they validate: closed forms are
recomputed by direct composition enumeration instead of the geometric
expansion of 1/D over partitions, power sum coefficients are recombined
across variants, and root-of-unity evaluations are matched against
rectangular power sum coefficients.
"""

from functools import lru_cache

import pytest

from smirnov import combinat
from smirnov import enumerators as en
from smirnov.exact import ONE, T, ZERO, eval_at_root_of_unity, t_quantum
from smirnov.symfun import SymFun
from smirnov.verify.unimodal import e_unimodal_direct, e_unimodal_palindromic
from monomial_reference import expand_in_variables


@lru_cache(maxsize=None)
def compositions_min_two(total):
    """Ordered tuples of parts >= 2 with the given sum."""
    if total == 0:
        return ((),)
    out = []
    for first in range(2, total + 1):
        for rest in compositions_min_two(total - first):
            out.append((first,) + rest)
    return tuple(out)


def composition_form(variant, n):
    """Degree-n coefficient of numerator/denominator by direct enumeration
    of one numerator part followed by an ordered tuple of denominator parts."""
    acc = {}
    for first in range(1, n + 1):
        g = en.numerator_weight(variant, first)
        if not g:
            continue
        for comp in compositions_min_two(n - first):
            weight = g
            for part in comp:
                weight = weight * (T * t_quantum(part - 1))
            lam = tuple(sorted((first,) + comp, reverse=True))
            acc[lam] = acc.get(lam, ZERO) + weight
    return SymFun("e", n, acc)


class TestCompositionOracle:
    @pytest.mark.parametrize("variant", en.VARIANTS)
    def test_matches_series_division(self, variant):
        # the composition coefficients of N(z) / D(z), against the partition
        # form sum_i w_i e_i geometric_form(n - i) of closed_form
        lo = 2 if variant in ("Wneq", "XC") else 1
        for n in range(lo, 9):
            assert composition_form(variant, n) == en.closed_form(variant, n), (variant, n)


class TestPowersumCombinations:
    def test_cyclic_from_plain_and_endpoint(self):
        # cyclic = t * (first<last) + (plain - (first<last)), coefficientwise
        for n in range(1, 9):
            c_all = en.powersum_form("W", n)
            c_less = en.powersum_form("Wless", n)
            c_cyc = en.powersum_form("Wtilde", n)
            for lam in c_all.terms:
                expected = (T - ONE) * c_less.coeff(lam) + c_all.coeff(lam)
                assert c_cyc.coeff(lam) == expected, (n, lam)

    def test_cyclic_distinct_from_endpoint_pair(self):
        for n in range(1, 9):
            c_less = en.powersum_form("Wless", n)
            c_greater = en.powersum_form("Wgreater", n)
            c_both = en.powersum_form("Wtildeneq", n)
            for lam in c_both.terms:
                assert c_both.coeff(lam) == T * c_less.coeff(lam) + c_greater.coeff(lam)

    def test_top_coefficients_from_endpoint_pair(self):
        # the p_n / n coefficient of each omega image is its e_n coefficient
        for n in range(2, 9):
            c_less = en.powersum_form("Wless", n).coeff((n,))
            c_greater = en.powersum_form("Wgreater", n).coeff((n,))
            assert en.closed_form("Wneq", n).coeff((n,)) == c_less + c_greater
            assert en.closed_form("XC", n).coeff((n,)) == c_less + T * c_greater


class TestEvaluationEqualsRectangleCoefficient:
    """A q-variant evaluated at a primitive k-th root of unity equals the
    coefficient of the rectangular power sum p_(k^(n/k)) / z in the omega
    image of the matching enumerator."""

    @pytest.mark.parametrize(
        "kind,variant", [("Ades", "W"), ("Aless", "Wless"), ("Atilde", "Wtilde")]
    )
    def test_rectangle_extraction(self, kind, variant):
        for n in range(2, 9):
            for k in range(1, n + 1):
                if n % k:
                    continue
                value = eval_at_root_of_unity(en.q_eulerian(kind, n), k)
                rectangle = (k,) * (n // k)
                assert value == en.powersum_form(variant, n).coeff(rectangle), (kind, n, k)


class TestFundamentalCombinations:
    def test_distinct_endpoint_table(self):
        for n in range(2, 6):
            lhs = en.f_expansion("Wless", n).to_table(n) + en.f_expansion(
                "Wgreater", n
            ).to_table(n)
            rhs = expand_in_variables(en.closed_form("Wneq", n).omega(), n)
            assert lhs == rhs

    def test_cycle_table(self):
        for n in range(2, 6):
            lhs = en.f_expansion("Wless", n).to_table(n) + en.f_expansion(
                "Wgreater", n
            ).to_table(n).scale(T)
            rhs = expand_in_variables(en.closed_form("XC", n).omega(), n)
            assert lhs == rhs

    def test_cyclic_distinct_table(self):
        for n in range(2, 6):
            lhs = en.f_expansion("Wless", n).to_table(n).scale(T) + en.f_expansion(
                "Wgreater", n
            ).to_table(n)
            rhs = expand_in_variables(en.closed_form("Wtildeneq", n).omega(), n)
            assert lhs == rhs

    def test_ones_specialization_of_expansion(self):
        # specializing x = 1^m turns the expansion of the omega image into
        # binomials; omega complements the strictness set, so |S| enters
        # with a plus sign, and the result must equal the brute word count
        import math

        for variant in en.F_VARIANTS:
            for n in range(1, 6):
                fe = en.f_expansion(variant, n)
                for m in range(1, 5):
                    brute = combinat.brute_enumerator(variant, n, m).sum_coeffs()
                    total = ZERO
                    for e, S, mult in fe.terms:
                        total = total + math.comb(m + len(S), n) * mult * T**e
                    assert total == brute, (variant, n, m)


class TestUnimodalityRoutesAgree:
    def test_positive_families_pass_both_routes(self):
        from fractions import Fraction

        for n in range(2, 9):
            cases = [
                ("W", Fraction(n - 1, 2)),
                ("Wneq", Fraction(n - 1, 2)),
                ("Wtildeneq", Fraction(n, 2)),
            ]
            if n % 2:
                cases.append(("XC", Fraction(n, 2)))
            for variant, center in cases:
                f = en.closed_form(variant, n)
                assert e_unimodal_palindromic(f, center) == (True, True)
                assert e_unimodal_direct(f)
