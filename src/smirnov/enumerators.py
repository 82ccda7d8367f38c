"""Closed forms for the Smirnov word enumerators and their companions.

Each enumerator variant is the graded coefficient of a quotient N(z)/D(z) of
e-basis generating series sharing one denominator.  This module builds each
degree as N times the geometric expansion of 1/D, the power sum and fundamental
quasisymmetric expansions, the q-Eulerian polynomials with their q-exponential
identities, root-of-unity evaluations, and the weighted-walk determinant identity.

The denominator and closed series, ``geometric_form``, ``closed_form``,
``powersum_form`` with the t-analog products it shares between variants,
``f_expansion``, ``q_eulerian`` and the q walks are cached, so each argument
is computed once per process.
``quotient_form_check`` and ``cleared_form_check`` compare each product of
two series at one integer point (``symfun.product_equal_at_point``).

``f_expansion`` and ``q_eulerian`` run the permutation prefix DP
``combinat.perm_walk`` with their own step rules (``F_RULES``, ``Q_RULES``)
and a word variant's endpoint rule (``combinat.ENDPOINT_RULES``): the first
over sigma^-1, the second over sigma, so ``verify``'s f-principal-numerator
check compares two independent walks.  The q walks are cached by step rule
and whether they keep the first value (``_q_walk``), so Aless and Atilde
share one walk per n.  The unit tests check each walk against a sweep over
every permutation, and ``FExpansion.to_table`` (the M_alpha rule) against
``combinat.fundamental_F``.  ``q_exp_identity_check`` compares each degree
of an identity at one integer point (``exact.sums_equal_at_point``) instead
of multiplying q-polynomials.  The transfer-matrix checks compare monomial
coefficients as plain dicts, e_j being the sum of its squarefree monomials.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from typing import Mapping, NamedTuple

from .exact import (
    ONE,
    T,
    ZERO,
    LaurentPoly,
    QtPoly,
    eulerian,
    eval_at_root_of_unity,
    q_binomial,
    sums_equal_at_point,
    t_quantum,
)
from . import combinat, symfun

VARIANTS = ("W", "Wless", "Wgreater", "Wequal", "Wneq", "Wtilde", "Wtildeneq", "XC")
POWERSUM_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde", "Wtildeneq")
CLEARED_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde")
TOP_VARIANTS = ("Wneq", "XC")
ROOT_FAMILIES = ("Ades", "Aless", "Atilde")
QEXP_IDENTITIES = ("A", "Aless", "Atilde")

# f_expansion walks tau = sigma^-1 under the endpoint rule of the variant
# (combinat.ENDPOINT_RULES): variant -> the gaps of tau whose positions form S
F_RULES = {"W": "drops", "Wless": "drops", "Wgreater": "rises", "Wtilde": "drops"}
F_VARIANTS = tuple(F_RULES)

# q_eulerian walks sigma: kind -> (variant whose endpoint rule it takes, step rule)
Q_RULES = {
    "Amajexc": ("W", "majexc"),
    "Ades": ("W", "des"),
    "Aless": ("Wless", "des"),
    "Atilde": ("Wtilde", "des"),
}
Q_EULERIAN_KINDS = tuple(Q_RULES)

# The largest sizes a library function computes; the CLI's ranges and
# verify's flags read them from here.  How far a suite sweeps is its own.
LIMITS = {
    "n": 8,  # degree of a closed form, expansion or q-Eulerian polynomial; series order
    "vars": 8,  # variables of a monomial table
    "transfer_k": 6,  # alphabet size of the transfer-matrix determinant
}


def check_limit(key: str, value: int, lo: int = 1) -> None:
    """Raise ValueError, naming the key, unless lo <= value <= LIMITS[key]."""
    if not lo <= value <= LIMITS[key]:
        raise ValueError(f"{value} is out of range: LIMITS[{key!r}] allows {lo} to {LIMITS[key]}")


def check_root_order(n: int, k: int) -> None:
    """Raise ValueError unless k, the order of a root of unity, is a
    positive divisor of n."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n % k:
        raise ValueError(f"k must divide n, got k = {k} and n = {n}")


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


def _closed_degree(variant: str, n: int) -> symfun.SymFun:
    """Degree n of N(z)/D(z): the sum of w_i e_i ``geometric_form(n - i)``."""
    terms: dict[symfun.Partition, LaurentPoly] = {}
    for i in range(1, n + 1):
        w = numerator_weight(variant, i)
        if w:
            for mu, c in geometric_form(n - i).terms.items():
                lam = symfun.merge((i,), mu)
                terms[lam] = terms.get(lam, ZERO) + w * c
    return symfun.SymFun("e", n, terms)


@lru_cache(maxsize=None)
def closed_series(variant: str, order: int) -> symfun.SymSeries:
    return symfun.SymSeries([_closed_degree(variant, n) for n in range(order + 1)])


@lru_cache(maxsize=None)
def closed_form(variant: str, n: int) -> symfun.SymFun:
    """The degree-n enumerator in the elementary basis.

    >>> closed_form("Wless", 2).coeff((2,)).pretty()
    '1'
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    check_limit("n", n)
    check_degree(variant, n)
    out = _closed_degree(variant, n)
    val = out.valuation()
    if val is not None and val < 0:
        raise AssertionError("negative t-valuation leaked into a closed form")
    return out


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


def _subset_sums(values: list[int]) -> list[int]:
    """Each entry replaced by the sum of the entries at its bit subsets, one
    pass per bit (the zeta transform of the subset lattice).

    >>> _subset_sums([1, 2, 4, 8])
    [1, 3, 5, 15]
    """
    out = list(values)
    for bit in range((len(out) - 1).bit_length()):
        for c in range(len(out)):
            if c >> bit & 1:
                out[c] += out[c ^ 1 << bit]
    return out


class FExpansion(NamedTuple):
    """A sum of t^e F_{n,S} terms with positive integer multiplicities."""

    degree: int
    terms: tuple[tuple[int, tuple[int, ...], int], ...]  # (t-exponent, S, multiplicity)

    @classmethod
    def from_counts(cls, n: int, counts: Mapping[tuple[int, tuple[int, ...]], int]) -> "FExpansion":
        items = tuple(
            (e, S, counts[(e, S)]) for e, S in sorted(counts) if counts[(e, S)]
        )
        return cls(n, items)

    def to_table(self, k: int) -> symfun.QsymTable:
        """The expansion over k variables, by the M_alpha rule (Gessel 1984;
        Stanley, EC2 7.19): in the weakly decreasing convention, F_{n,S} has
        coefficient [S within the cuts of alpha] at a composition alpha, the
        cuts being the partial sums of alpha read from its last part.  So the
        coefficient at alpha is a subset sum at its cut set."""
        n = self.degree
        width = sum(mult for _, _, mult in self.terms).bit_length()
        by_set = [0] * (1 << (n - 1))
        for e, S, mult in self.terms:
            by_set[sum(1 << (i - 1) for i in S)] += mult << e * width
        below = _subset_sums(by_set)
        coeffs = {}
        for alpha in combinat.compositions(n, k):
            packed = below[sum(1 << (c - 1) for c in accumulate(reversed(alpha[1:])))]
            if packed:
                coeffs[alpha] = LaurentPoly(combinat.packed_coeffs(packed, width))
        return symfun.QsymTable(k)._like(coeffs)

    def principal_numerator(self) -> QtPoly:
        """Stable principal specialization numerator over the implicit
        (1-q)...(1-q^n) denominator: multiplicities land at q^(sum S) t^e."""
        rows: dict[int, dict[int, int]] = {}
        for e, S, mult in self.terms:
            row = rows.setdefault(sum(S), {})
            row[e] = row.get(e, 0) + mult
        return QtPoly({a: LaurentPoly(row) for a, row in rows.items()})

    def to_json_obj(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"t": e, "set": list(S), "mult": mult} for e, S, mult in self.terms
            ],
        }

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        rows = []
        for e, S, mult in self.terms:
            sset = "{" + ",".join(map(str, S)) + "}"
            coeff = "" if mult == 1 else f"{mult}*"
            tpow = "" if e == 0 else ("t*" if e == 1 else f"t^{e}*")
            rows.append(f"{coeff}{tpow}F[{self.degree},{sset}]")
        return " + ".join(rows)


@lru_cache(maxsize=None)
def f_expansion(variant: str, n: int) -> FExpansion:
    """Fundamental quasisymmetric expansion of the omega image, as a sum
    over permutations weighted by descent or cyclic descent.

    A walk over tau = sigma^-1 (``combinat.perm_walk``) with slot
    S_bits * (n + 1) + e.  Appending value v to tau is a descent of sigma at
    v when v + 1 is already placed; the gap between the last value and v
    puts position p - 1 into S.  Placing n fixes sigma's endpoint class
    ('<' if 1 is placed, '=' if n = 1, else '>'), and the variant's endpoint
    rule (``combinat.ENDPOINT_RULES``) forbids that placement or adds its t.
    """
    if variant not in F_VARIANTS:
        raise ValueError(f"no fundamental expansion for {variant!r}")
    check_limit("n", n)
    rule = combinat.ENDPOINT_RULES[variant]
    drops = F_RULES[variant] == "drops"
    cols = n + 1

    def step(p: int, used: int, last: int, v: int) -> int | None:
        e = used >> v & 1
        if v == n:
            cls = "=" if n == 1 else "<" if used & 1 else ">"
            if cls not in rule:
                return None
            e += rule[cls]
        gap = last - v if drops else v - last
        if p > 1 and gap >= 2:
            return (1 << (p - 2)) * cols + e
        return e

    width = math.factorial(n).bit_length()  # no coefficient exceeds n!
    total = sum(combinat.perm_walk(n, width, step).values())
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for slot, c in combinat.packed_coeffs(total, width).items():
        bits, e = divmod(slot, cols)
        counts[(e, tuple(i + 1 for i in range(n - 1) if bits >> i & 1))] = c
    return FExpansion.from_counts(n, counts)


@lru_cache(maxsize=None)
def _q_walk(n: int, rule: str, keep_first: bool) -> tuple[int, dict[tuple[int, int], int]]:
    """(width, ``combinat.perm_walk`` over sigma packed ``width`` bits per
    slot) with q_eulerian's step rule for ``rule``: "majexc" (slot
    maj * (n + 1) + exc) or "des" (slot q-weight * (n + 1) + des).  Cached,
    so Aless and Atilde, whose rule is "des" and which both keep the first
    value, share one walk per n."""
    cols = n + 1
    width = math.factorial(n).bit_length()  # no coefficient exceeds n!

    def step(p: int, used: int, last: int, v: int) -> int:
        if rule == "majexc":
            return (p - 1) * cols * (last > v) + (v > p)
        q = v if used >> v & 1 and last != v + 1 else 0
        return q * cols + (last > v)

    return width, combinat.perm_walk(n, width, step, keep_first)


@lru_cache(maxsize=None)
def q_eulerian(kind: str, n: int) -> QtPoly:
    """The q-Eulerian polynomials and their endpoint/cyclic variations.

    Amajexc weights by q^(maj-exc) t^exc.  The others weight t by des or
    cdes and q by the sum of the positions where the inverse permutation
    drops by at least two; that statistic, rather than the rising-gap sum,
    is the one compatible with the principal specialization (the rising-gap
    reading is kept available through q_statistic_diagnostic).

    A walk over sigma itself (``_q_walk``), independent of the walk over
    sigma^-1 in ``f_expansion``.  Appending v at position p after ``last``
    is a descent when last > v, adds v to the q-weight when v + 1 is
    already placed but not just before v, and for Amajexc adds p - 1 to maj
    on a descent and 1 to exc when v > p.  The endpoint rule of the kind's
    variant (``combinat.endpoint_sum``) is applied to the complete
    permutations, so Aless and Atilde read one walk that keeps the first
    value; W's rule keeps every class with no t, so Ades and Amajexc need not.
    At n = 0 the one empty walk has class '=', which Aless leaves out.
    """
    if kind not in Q_EULERIAN_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    check_limit("n", n, lo=0)
    variant, rule = Q_RULES[kind]
    width, walk = _q_walk(n, rule, variant != "W")
    ends = ((combinat.endpoint_class(first, last), poly) for (first, last), poly in walk.items())
    total = combinat.endpoint_sum(variant, ends, width)
    cols = n + 1
    out: dict[int, dict[int, int]] = {}
    for slot, c in combinat.packed_coeffs(total, width).items():
        a, b = divmod(slot, cols)
        qe, te = (a - b, b) if rule == "majexc" else (a, b)
        out.setdefault(qe, {})[te] = c
    return QtPoly({qe: LaurentPoly(poly) for qe, poly in out.items()})


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


def _eulerian_at_root(n: int, k: int) -> LaurentPoly:
    """Exact value of the q-Eulerian polynomial at a primitive k-th root of
    unity; the degenerate n = 0 value is t^-1, matching the convention that
    makes the closed products polynomial."""
    if n == 0:
        return eulerian(0)
    return eval_at_root_of_unity(q_eulerian("Ades", n), k)


def root_of_unity_parts(kind: str, n: int, k: int) -> tuple[dict, bool]:
    """Root-of-unity evaluation both ways: exact cyclotomic reduction of the
    q-polynomial, the closed product formula, and the step-k recursion, by
    route name, and whether every route agrees with ``via_eval``."""
    if kind not in ROOT_FAMILIES:
        raise ValueError(f"unknown family {kind!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    check_root_order(n, k)
    m = n // k
    via_eval = eval_at_root_of_unity(q_eulerian(kind, n), k)
    qk = t_quantum(k)
    if kind == "Ades":
        closed = eulerian(m) * qk**m
    elif kind == "Aless":
        closed = (T * eulerian(m - 1) * qk**m).derivative()
    else:
        closed = LaurentPoly.t_power(k, n) * eulerian(m - 1) * qk ** (m - 1)
    parts = {"via_eval": via_eval, "closed": closed}
    if kind != "Ades":
        prev = _eulerian_at_root(n - k, k)
        if kind == "Aless":
            parts["recursion"] = (T * qk * prev).derivative()
        else:
            parts["recursion"] = LaurentPoly.t_power(k, n) * prev
    return parts, all(v == via_eval for v in parts.values())


def root_of_unity(kind: str, n: int, k: int) -> LaurentPoly:
    """Evaluate a q-Eulerian variant at a primitive k-th root of unity,
    asserting that reduction and the closed formulas agree.

    >>> root_of_unity("Atilde", 3, 3).pretty()
    '3*t^2'
    """
    parts, agree = root_of_unity_parts(kind, n, k)
    if not agree:
        raise AssertionError(f"root-of-unity routes disagree for {kind}, n={n}, k={k}")
    return parts["via_eval"]


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
