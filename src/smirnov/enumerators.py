"""Closed forms for the Smirnov word enumerators and their companions.

Each enumerator variant is the graded coefficient of a quotient N(z)/D(z) of
e-basis generating series sharing one denominator.  This module builds each
degree as N times the geometric expansion of 1/D, and the power sum
expansions; the identities that check them live in the verify suites.  The
fundamental expansions, the q-Eulerian polynomials, their root-of-unity
evaluations and ``LIMITS`` live in ``walks`` and are bound here too.

The denominator and closed series, ``geometric_form``, the degrees of the
closed forms, which ``closed_form`` and ``closed_series`` share, and
``powersum_form`` with the t-analog products it shares between variants are
cached, so each argument is computed once per process.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import ONE, T, ZERO, LaurentPoly, eulerian, t_quantum
from . import symfun
from .walks import VARIANTS, check_limit
from .walks import (  # bound here too, for the callers of this module
    F_VARIANTS, LIMITS, Q_EULERIAN_KINDS, Q_RULES, ROOT_FAMILIES, FExpansion,
    check_root_order, f_expansion, q_eulerian, root_of_unity, root_of_unity_parts,
)

POWERSUM_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde", "Wtildeneq")


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
