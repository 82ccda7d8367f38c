"""Closed forms for the Smirnov word enumerators and their companions.

Each enumerator variant is the graded coefficient of a quotient N(z)/D(z) of
e-basis generating series sharing one denominator.  This module builds each
degree as N times the geometric expansion of 1/D, the power sum expansions,
the q-exponential identities of the q-Eulerian polynomials, and the
weighted-walk determinant identity.  The fundamental expansions, the
q-Eulerian polynomials, their root-of-unity evaluations and ``LIMITS`` live
in ``walks`` and are bound here too.

The denominator and closed series, ``geometric_form``, the degrees of the
closed forms, which ``closed_form`` and ``closed_series`` share, and
``powersum_form`` with the t-analog products it shares between variants are
cached, so each argument is computed once per process.
``quotient_form_check`` and ``cleared_form_check`` compare each product of
two series at one integer point (``symfun.product_equal_at_point``).
``q_exp_identity_check`` compares each degree of an identity at one integer
point (``exact.sums_equal_at_point``) instead of multiplying q-polynomials.
The transfer-matrix checks compare monomial coefficients as plain dicts, e_j
being the sum of its squarefree monomials.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

from .exact import ONE, T, ZERO, LaurentPoly, QtPoly, eulerian, q_binomial, sums_equal_at_point, t_quantum
from . import combinat, symfun
from .walks import VARIANTS, check_limit, q_eulerian
from .walks import (  # bound here too, for the callers of this module
    F_VARIANTS, LIMITS, Q_EULERIAN_KINDS, Q_RULES, ROOT_FAMILIES, FExpansion,
    check_root_order, f_expansion, root_of_unity, root_of_unity_parts,
)

POWERSUM_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde", "Wtildeneq")
CLEARED_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde")
TOP_VARIANTS = ("Wneq", "XC")
QEXP_IDENTITIES = ("A", "Aless", "Atilde")


def check_degree(variant: str, n: int) -> None:
    """Raise ValueError if n is below the smallest degree of the variant:
    2 for Wneq and XC, 1 for the others."""
    if variant in ("Wneq", "XC") and n < 2:
        raise ValueError(f"{variant} requires n >= 2")


def abc(i: int) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The three numerator weights splitting the t-analog by endpoint class.

    a_i = d/dt of the t-analog of i; b_i is its reversal t^(i-1) a_i(1/t);
    c_i = i*t*[i-2]_t.

    >>> tuple(p.pretty() for p in abc(3))
    ('1 + 2*t', '2*t + t^2', '3*t')
    """
    if i < 2:
        raise ValueError("defined for i >= 2")
    a = t_quantum(i).derivative()
    b = a.reverse(i - 1)
    c = T * i * t_quantum(i - 2)
    return a, b, c


def numerator_weight(variant: str, i: int) -> LaurentPoly:
    """Coefficient of the degree-i elementary generator in the numerator
    series of the given variant."""
    if variant == "W":
        return t_quantum(i) if i >= 1 else ZERO
    if variant == "Wless":
        return abc(i)[0] if i >= 2 else ZERO
    if variant == "Wgreater":
        return abc(i)[1] if i >= 2 else ZERO
    if variant == "Wequal":
        return ONE if i == 1 else -abc(i)[2] if i >= 2 else ZERO
    if variant == "Wneq":
        return t_quantum(i) + i * T * t_quantum(i - 2) if i >= 2 else ZERO
    if variant == "Wtilde":
        return LaurentPoly.t_power(i - 1, i) if i >= 1 else ZERO
    if variant == "Wtildeneq":
        return i * T * t_quantum(i - 1) if i >= 2 else ZERO
    if variant == "XC":
        if i >= 2:
            return t_quantum(2) * t_quantum(i) + i * LaurentPoly.t_power(2) * t_quantum(i - 3)
        return ZERO
    raise ValueError(f"unknown variant {variant!r}")


def denominator_weight(i: int) -> LaurentPoly:
    """The shared denominator: 1 minus t[i-1]_t e_i z^i summed over i >= 2."""
    if i == 0:
        return ONE
    if i >= 2:
        return -(T * t_quantum(i - 1))
    return ZERO


@lru_cache(maxsize=None)
def denominator_series(order: int) -> symfun.SymSeries:
    return symfun.SymSeries.from_weights(order, denominator_weight)


@lru_cache(maxsize=None)
def geometric_form(m: int) -> symfun.SymFun:
    """The degree-m coefficient of 1/D(z) = sum over k of (1 - D(z))^k: at
    e_mu, the orderings of mu's parts (``symfun.orbit_size``) times the
    product of -d_j over them (zero if a part is 1, as d_1 = 0)."""
    terms = {}
    for mu in symfun.partitions_of(m):
        weights = math.prod((-denominator_weight(j) for j in mu), start=ONE)
        terms[mu] = symfun.orbit_size(mu) * weights
    return symfun.SymFun("e", m, terms)


@lru_cache(maxsize=None)
def _closed_degree(variant: str, n: int) -> symfun.SymFun:
    """Degree n of N(z)/D(z): the sum of w_i e_i ``geometric_form(n - i)``.
    The one cache of the degrees, which ``closed_form`` and ``closed_series``
    read, so that no degree is built twice."""
    terms: dict[symfun.Partition, LaurentPoly] = {}
    for i in range(1, n + 1):
        w = numerator_weight(variant, i)
        if w:
            for mu, c in geometric_form(n - i).terms.items():
                lam = symfun.merge((i,), mu)
                terms[lam] = terms.get(lam, ZERO) + w * c
    out = symfun.SymFun("e", n, terms)
    val = out.valuation()
    if val is not None and val < 0:
        raise AssertionError("negative t-valuation leaked into a closed form")
    return out


@lru_cache(maxsize=None)
def closed_series(variant: str, order: int) -> symfun.SymSeries:
    return symfun.SymSeries([_closed_degree(variant, n) for n in range(order + 1)])


def closed_form(variant: str, n: int) -> symfun.SymFun:
    """The degree-n enumerator in the elementary basis.

    >>> closed_form("Wless", 2).coeff((2,)).pretty()
    '1'
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    check_limit("n", n)
    check_degree(variant, n)
    return _closed_degree(variant, n)


# clearing closed_form's cache clears the degrees that it reads
closed_form.cache_clear = _closed_degree.cache_clear


def cleared_form_check(variant: str, order: int) -> bool:
    """Cross-multiplied form of the identities obtained by clearing a 1 - t
    factor out of numerator and denominator.

    The cleared denominator is E(tz) - t E(z), whose constant term 1 - t is
    not a unit in the graded sense, so each identity is checked as a product
    rather than a quotient.
    """
    if variant not in CLEARED_VARIANTS:
        raise ValueError(f"no cleared form for {variant!r}")
    E = symfun.SymSeries.generating("e", order)
    denom = E.grade_scale_t() - E.scale(T)
    one_minus_t = ONE - T
    lhs = closed_series(variant, order)
    if variant == "W":
        lhs = symfun.SymSeries.one("e", order) + lhs
        rhs = E.scale(one_minus_t)
    elif variant == "Wtilde":
        rhs = E.grade_scale_t().dt().scale(one_minus_t)
    elif variant == "Wless":
        rhs = symfun.SymSeries.from_weights(
            order, lambda i: t_quantum(i).derivative() * one_minus_t if i >= 2 else None
        )
    else:  # Wgreater
        rhs = symfun.SymSeries.from_weights(
            order, lambda i: abc(i)[1] * one_minus_t if i >= 2 else None
        )
    return symfun.product_equal_at_point(lhs, denom, rhs)


def quotient_form_check(variant: str, order: int) -> bool:
    """Numerator = denominator * series, for every variant's quotient."""
    numerator = symfun.SymSeries.from_weights(order, lambda i: numerator_weight(variant, i))
    series, denom = closed_series(variant, order), denominator_series(order)
    return symfun.product_equal_at_point(series, denom, numerator)


@lru_cache(maxsize=None)
def _quantum_product(lam: symfun.Partition) -> LaurentPoly:
    """The product of the t-analogs [part]_t over the parts of lam, shared
    by the power sum forms of every variant."""
    return math.prod(map(t_quantum, lam), start=ONE)


@lru_cache(maxsize=None)
def powersum_form(variant: str, n: int) -> symfun.SymFun:
    """Coefficients of p_lam / z_lam in the omega image of the enumerator.

    Every coefficient is asserted to be an honest polynomial even though the
    degenerate t^-1 Eulerian value flows through the products.
    """
    if variant not in POWERSUM_VARIANTS:
        raise ValueError(f"no power sum form for {variant!r}")
    check_limit("n", n)
    terms: dict[symfun.Partition, LaurentPoly] = {}
    for lam in symfun.partitions_of(n):
        ell = len(lam)
        prod = _quantum_product(lam)
        if variant == "W":
            c = eulerian(ell) * prod
        elif variant == "Wless":
            c = (T * eulerian(ell - 1) * prod).derivative()
        elif variant == "Wgreater":
            s = T * eulerian(ell - 1) * prod
            c = LaurentPoly({i: (n - i) * s.coeff(n - i) for i in range(1, n)})
        elif variant == "Wtilde":
            acc = ZERO
            for i, part in enumerate(lam):
                rest = _quantum_product(lam[:i] + lam[i + 1 :])
                acc = acc + LaurentPoly.t_power(part, part) * rest
            c = eulerian(ell - 1) * acc
        else:  # Wtildeneq
            if ell > 1:
                c = n * T * eulerian(ell - 1) * prod
            else:
                c = n * T * t_quantum(n - 1)
        val = c.valuation()
        if val is not None and val < 0:
            raise AssertionError("power sum coefficient is not a polynomial")
        terms[lam] = c
    return symfun.SymFun("p/z", n, terms)


def q_statistic_diagnostic(n: int) -> dict:
    """Whether the drop-gap and rise-gap position sums of the inverse give
    the same q-refinement; they agree under the des weighting but not under
    the cdes weighting."""
    agree = {}
    for weight in ("des", "cdes"):
        lhs: dict[tuple[int, int], int] = {}
        rhs: dict[tuple[int, int], int] = {}
        for sigma in combinat.permutations_of(n):
            stats = combinat.perm_stats(sigma)
            inv_stats = combinat.perm_stats(combinat.inverse_perm(sigma))
            te = stats.des if weight == "des" else stats.cdes
            key1 = (inv_stats.maj2des, te)
            key2 = (inv_stats.maj2asc, te)
            lhs[key1] = lhs.get(key1, 0) + 1
            rhs[key2] = rhs.get(key2, 0) + 1
        agree[weight] = lhs == rhs
    return {"des_weighted_agree": agree["des"], "cdes_weighted_agree": agree["cdes"]}


def q_exp_identity_check(kind: str, order: int) -> bool:
    """Cleared-denominator forms of the q-exponential identities.

    Multiplying the generating function by exp_q(tz) - t exp_q(z) and
    comparing q-binomial convolutions coefficientwise avoids dividing by the
    non-unit constant term 1 - t.  Each degree's convolution is compared
    with its right-hand side at one integer point
    (``exact.sums_equal_at_point``), which is exact.
    """
    if kind not in QEXP_IDENTITIES:
        raise ValueError(f"unknown identity {kind!r}")
    check_limit("n", order, lo=0)
    lo = 0 if kind == "A" else 1
    terms = [
        q_eulerian("Ades" if kind == "A" else kind, j) if j else QtPoly.one()
        for j in range(lo, order + 1)
    ]
    identities = []
    for n in range(1, order + 1):
        products = [
            (q_binomial(n, j), terms[j - lo], QtPoly.from_t(LaurentPoly.t_power(n - j) - T))
            for j in range(lo, n + 1)
        ]
        if kind == "A":
            rhs = QtPoly.from_t(ONE - T)
        elif kind == "Aless":
            rhs = QtPoly.from_t((ONE - T) * t_quantum(n).derivative()) if n >= 2 else QtPoly.zero()
        else:
            rhs = QtPoly.from_t((ONE - T) * LaurentPoly.t_power(n - 1, n))
        identities.append((products, rhs))
    return sums_equal_at_point(identities)


def transfer_matrix_check(k: int) -> bool:
    """det(I - zA) = 1 - sum over j >= 2 of e_j(x_1..x_k) t[j-1]_t z^j.

    A is the walk matrix of the complete loopless digraph on 1..k: the edge
    i -> j carries x_j, times t when it descends (i > j).  Every off-diagonal
    entry of I - zA is the single monomial -x_j (times t) z, so each term of
    the Leibniz sum is one monomial whose z-power is its total x-degree, and
    the full determinant's equality implies that of every truncation in z.
    The sides are compared monomial by monomial, e_j as the sum of its
    squarefree monomials.
    """
    check_limit("transfer_k", k)
    det: dict[tuple[int, ...], LaurentPoly] = {}
    for sigma in permutations(range(k)):
        moved = [i for i in range(k) if sigma[i] != i]
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        vec = tuple(int(sigma[i] != i) for i in range(k))
        term = LaurentPoly.t_power(
            sum(i > sigma[i] for i in moved), (-1) ** (inversions + len(moved))
        )
        det[vec] = det.get(vec, ZERO) + term
    weights = {j: w for j in range(k + 1) if (w := denominator_weight(j))}
    expected = {vec: w for j, w in weights.items() for vec in _squarefree(k, j)}
    return {vec: c for vec, c in det.items() if c} == expected


def _squarefree(k: int, j: int) -> list[tuple[int, ...]]:
    """The monomials of e_j(x_1..x_k): the 0-1 exponent vectors with j ones."""
    return [tuple(int(i in ones) for i in range(k)) for ones in combinations(range(k), j)]


def distinguished_element_check(j: int, k: int) -> bool:
    """sum_i x_i e_j(x with x_i removed) = (j+1) e_{j+1}(x_1..x_k), monomial
    by monomial."""
    if j < 0 or k < 1:
        raise ValueError("need j >= 0 and k >= 1")
    lhs: dict[tuple[int, ...], int] = {}
    for i in range(k):
        for subset in combinations([v for v in range(k) if v != i], j):
            vec = tuple(int(v == i or v in subset) for v in range(k))
            lhs[vec] = lhs.get(vec, 0) + 1
    return lhs == dict.fromkeys(_squarefree(k, j + 1), j + 1)
