"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s or in the captured output of a failing run).  Every comparison is
exact; the only tolerances are the stated runtime budgets.
"""

import math
import time
from fractions import Fraction

from smirnov import combinat
from smirnov import enumerators as en
from smirnov.exact import ONE, T, LaurentPoly, eulerian, t_quantum
from smirnov.symfun import SymFun, expand_at_compositions, partitions_of
from smirnov.verify.counting import suite_counting
from smirnov.verify.qexp import QEXP_IDENTITIES, q_exp_identity_check
from smirnov.verify.series import CLEARED_VARIANTS, cleared_form_check, quotient_form_check, suite_series
from smirnov.verify.transfer import distinguished_element_check, transfer_matrix_check
from smirnov.verify.unimodal import e_positive, e_unimodal_direct, e_unimodal_palindromic, suite_unimodal
from monomial_reference import expand_in_variables, times_factorial_in_plain_p


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_exact_degree_five_reproduction():
    start = time.perf_counter()
    got = en.closed_form("Wtilde", 5)
    elapsed = time.perf_counter() - start
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
    _report(1, "degree-five cyclic enumerator", got == expected and elapsed < 1.0)


def test_criterion_02_oracle_equivalence():
    def oracle(variant, n, k):
        if variant == "XC":
            return combinat.ring_colorings(n, k)["cycle", n]
        return combinat.brute_enumerator(variant, n, k)

    start = time.perf_counter()
    ok = True
    for variant in en.VARIANTS:
        lo = 2 if variant in ("Wneq", "XC") else 1
        # full 6-variable tables at n <= 7; at the caps n = k = 8, compositions
        for n in range(lo, 8):
            ok = ok and expand_in_variables(en.closed_form(variant, n), 6) == oracle(variant, n, 6)
        ok = ok and expand_at_compositions(en.closed_form(variant, 8), 8) == oracle(variant, 8, 8)
    elapsed = time.perf_counter() - start
    _report(2, "oracle equivalence n<=7 k=6 and n=k=8", ok and elapsed < 60.0)


def test_criterion_03_e_positivity():
    ok = True
    for variant in ("W", "Wless", "Wgreater", "Wneq", "Wtilde", "Wtildeneq", "XC"):
        lo = 2 if variant in ("Wneq", "XC") else 1
        for n in range(lo, 9):
            ok = ok and e_positive(en.closed_form(variant, n))
    for n in range(2, 9):
        weq = en.closed_form("Wequal", n)
        ok = ok and weq.coeff((n,)) == -(n * T * t_quantum(n - 2))
        for lam in partitions_of(n):
            c = weq.coeff(lam)
            ok = ok and (c.in_nat_t() if 1 in lam else (-c).in_nat_t())
    _report(3, "e-positivity and equal-class signs", ok)


def test_criterion_04_power_sum_expansions():
    ok = True
    for variant in en.POWERSUM_VARIANTS:
        for n in range(1, 7):
            # n! times each side, where the form is integral in plain p
            form = times_factorial_in_plain_p(en.powersum_form(variant, n).omega())
            brute = combinat.brute_enumerator(variant, n, n).scale(math.factorial(n))
            ok = ok and expand_in_variables(form, n) == brute
    for n in range(1, 9):
        for lam in partitions_of(n):
            ell = len(lam)
            prod = ONE
            for part in lam:
                prod = prod * t_quantum(part)
            s = T * eulerian(ell - 1) * prod
            c_less = s.derivative()
            c_greater = LaurentPoly({i: (n - i) * s.coeff(n - i) for i in range(1, n)})
            ok = ok and c_greater == c_less.reverse(n - 1)
            expected = n * T * eulerian(ell - 1) * prod if ell > 1 else n * T * t_quantum(n - 1)
            ok = ok and T * c_less + c_greater == expected
            if ell > 1:
                ok = ok and all(s.coeff(i) == s.coeff(n - i) for i in range(1, n))
    for n in range(2, 9):  # the p_n / n coefficients of omega(Wneq) and omega(XC)
        c_less, c_greater = (en.powersum_form(v, n).coeff((n,)) for v in ("Wless", "Wgreater"))
        expected = {
            "Wneq": t_quantum(n) + n * T * t_quantum(n - 2),
            "XC": t_quantum(2) * t_quantum(n) + n * T**2 * t_quantum(n - 3),
        }
        ok = ok and c_less + c_greater == expected["Wneq"]
        ok = ok and c_less + T * c_greater == expected["XC"]
        ok = ok and all(en.closed_form(v, n).coeff((n,)) == c for v, c in expected.items())
    for i in range(2, 11):
        a, b, c = en.abc(i)
        ok = ok and a + b - c == t_quantum(i)
        ok = ok and T * a + b == i * T * t_quantum(i - 1)
        ok = ok and b == a.reverse(i - 1)
    _report(4, "power sum expansions and weight identities", ok)


def test_criterion_05_fundamental_expansions_and_counting():
    ok = True
    for variant in en.F_VARIANTS:
        for n in range(1, 7):
            fe = en.f_expansion(variant, n)
            rhs = expand_in_variables(en.closed_form(variant, n).omega(), n)
            ok = ok and fe.to_table(n) == rhs
    records = suite_counting()  # words of length n <= 6 over m <= 5 letters
    ok = ok and bool(records) and all(r["status"] == "pass" for r in records)
    ok = ok and {(r["params"]["n"], r["params"]["m"]) for r in records} == {
        (n, m) for n in range(1, 7) for m in range(1, 6)
    }
    _report(5, "fundamental expansions and counting identities", ok)


def test_criterion_06_q_eulerian_identities():
    ok = True
    for n in range(0, 8):
        ok = ok and en.q_eulerian("Amajexc", n) == en.q_eulerian("Ades", n)
    for kind in QEXP_IDENTITIES:
        ok = ok and q_exp_identity_check(kind, 8)
    _report(6, "q-Eulerian interpretations and exponential identities", ok)


def test_criterion_07_roots_of_unity():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        for k in range(1, n + 1):
            if n % k:
                continue
            for kind in en.ROOT_FAMILIES:
                parts, agree = en.root_of_unity_parts(kind, n, k)
                vals = list(parts.values())
                ok = ok and agree and all(v == vals[0] for v in vals)
    ok = ok and en.root_of_unity("Atilde", 3, 3) == LaurentPoly.t_power(2, 3)
    ok = ok and en.root_of_unity("Ades", 4, 2) == (ONE + T) ** 3
    elapsed = time.perf_counter() - start
    _report(7, "root-of-unity evaluations", ok and elapsed < 10.0)


def test_criterion_08_transfer_matrix():
    ok = all(transfer_matrix_check(k) for k in range(2, 6))
    ok = ok and all(
        distinguished_element_check(j, k) for j in range(0, 6) for k in range(1, 7)
    )
    _report(8, "weighted-walk determinant identity", ok)


def test_criterion_09_unimodality_palindromicity():
    records = suite_unimodal()
    ok = bool(records) and all(r["status"] == "pass" for r in records)
    ok = ok and max(r["params"]["n"] for r in records) == 8
    for n in range(2, 9):
        flags = e_unimodal_palindromic(en.closed_form("Wneq", n), Fraction(n - 1, 2))
        ok = ok and flags == (True, True)
    for n in (4, 6, 8):
        m = n // 2
        xc = en.closed_form("XC", n)
        witness = xc.coeff((2,) * m)
        ok = ok and witness == LaurentPoly.t_power(m - 1) + LaurentPoly.t_power(m + 1)
        ok = ok and not e_unimodal_direct(xc)
    w5 = en.closed_form("Wtilde", 5)
    ok = ok and not e_unimodal_direct(w5)
    ok = ok and not any(
        e_unimodal_palindromic(w5, Fraction(c2, 2))[0] for c2 in range(0, 11)
    )
    _report(9, "unimodality and palindromicity", ok)


def test_criterion_10_series_identity_layer():
    records = suite_series(6)
    ok = bool(records) and all(r["status"] == "pass" for r in records)
    ok = ok and all(cleared_form_check(v, 6) for v in CLEARED_VARIANTS)
    ok = ok and all(quotient_form_check(v, 6) for v in en.VARIANTS)
    _report(10, "series identity layer", ok)
