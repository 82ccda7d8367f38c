"""The qexp suite: the q-exponential identities at one integer point, the
values at q = 1, and the q-statistic read from permutations enumerated here."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .. import enumerators as en
from ..exact import ONE, T, LaurentPoly, QtPoly, at_point, digit_width, eulerian, int_span, t_quantum
from . import _record

QEXP_IDENTITIES = ("A", "Aless", "Atilde")


def suite_qexp(max_order: int) -> list[dict]:
    records = []
    for n in range(0, 8):
        lhs = en.q_eulerian("Amajexc", n)
        rhs = en.q_eulerian("Ades", n)
        records.append(_record("interpretation-equality", {"n": n}, lhs, rhs))
    for kind in QEXP_IDENTITIES:
        ok = q_exp_identity_check(kind, max_order)
        records.append(_record("qexp-identity", {"kind": kind, "order": max_order}, ok, True))
    for n in range(2, max_order + 1):
        lhs = en.q_eulerian("Atilde", n).at_q_one()
        rhs = n * T * eulerian(n - 1)
        records.append(_record("cyclic-at-one", {"n": n}, lhs, rhs))
        lhs = en.q_eulerian("Aless", n).at_q_one()
        rhs = (T * eulerian(n - 1)).derivative()
        records.append(_record("endpoint-at-one", {"n": n}, lhs, rhs))
    diag = q_statistic_diagnostic(3)
    expected = {"des_weighted_agree": True, "cdes_weighted_agree": False}
    records.append(_record("q-statistic-diagnostic", {"n": 3}, diag, expected))
    return records


def q_statistic_diagnostic(n: int) -> dict:
    """Whether the drop-gap and rise-gap position sums of the inverse give
    the same q-refinement; they agree under the des weighting but not under
    the cdes weighting."""
    agree = {}
    for weight in ("des", "cdes"):
        lhs: dict[tuple[int, int], int] = {}
        rhs: dict[tuple[int, int], int] = {}
        for sigma in permutations_of(n):
            stats = perm_stats(sigma)
            inv_stats = perm_stats(inverse_perm(sigma))
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
    (``sums_equal_at_point``), which is exact.
    """
    if kind not in QEXP_IDENTITIES:
        raise ValueError(f"unknown identity {kind!r}")
    en.check_limit("n", order, lo=0)
    lo = 0 if kind == "A" else 1
    terms = [
        en.q_eulerian("Ades" if kind == "A" else kind, j) if j else QtPoly.one()
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


def sums_equal_at_point(identities: Iterable[tuple[Sequence[Sequence[QtPoly]], QtPoly]]) -> bool:
    """Whether each identity holds, a sum of products of QtPoly factors
    equal to a right-hand side, compared at one integer point.

    Kronecker substitution.  Each factor is taken times the power of t that
    makes its lowest t-exponent 0, each product and right-hand side then
    times the power that brings it to its identity's lowest t-exponent, and
    all are evaluated at t = 2^w and q = 2^(w s).  s exceeds every t-degree
    of the shifted sides, so distinct monomials q^a t^b land on distinct
    powers 2^(w (s a + b)).  w comes from the l1 norms (``digit_width``), so
    a difference is zero at the point exactly when it is zero as a
    polynomial.

    >>> f = QtPoly({0: LaurentPoly({-1: 1}), 2: T})
    >>> sums_equal_at_point([([(f, f), (f,)], f * f + f)])
    True
    >>> sums_equal_at_point([([(f, f)], f * f + QtPoly.q_power(5))])
    False
    """
    # id -> (low t, high t, l1, the value itself, which keeps its id taken)
    shapes: dict[int, tuple[int, int, int, QtPoly]] = {}
    sides = []  # per identity: (factors, low t) per product, right side, low t
    span = bound = 0
    for products, rhs in identities:
        for f in (rhs, *(f for factors in products for f in factors)):
            if id(f) not in shapes:
                shapes[id(f)] = (*int_span(f.terms.values()), f)
        low, high, total, _ = shapes[id(rhs)]
        lows = []
        for factors in products:
            lo = hi = 0
            l1 = 1
            for f in factors:
                flo, fhi, fl1, _ = shapes[id(f)]
                lo, hi, l1 = lo + flo, hi + fhi, l1 * fl1
            lows.append(lo)
            low, high, total = min(low, lo), max(high, hi), total + l1
        span = max(span, high - low)
        bound = max(bound, total)
        sides.append((list(zip(products, lows)), rhs, low))
    s = span + 1
    w = digit_width(bound)
    values: dict[int, int] = {}

    def value(f: QtPoly) -> int:
        """f times t^-(its low t) at the point."""
        if id(f) not in values:
            lo = shapes[id(f)][0]  # q^a is t^(s a) at the point
            values[id(f)] = sum(
                at_point(c.terms.items(), w, lo - s * a) for a, c in f.terms.items()
            )
        return values[id(f)]

    for shifted, rhs, low in sides:
        lhs = 0
        for factors, lo in shifted:
            prod = 1
            for f in factors:
                prod *= value(f)
            lhs += prod << w * (lo - low)
        if lhs != value(rhs) << w * (shapes[id(rhs)][0] - low):
            return False
    return True


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QtPoly:
    """Gaussian binomial coefficient as a q-polynomial.

    >>> q_binomial(2, 1).pretty()
    '1 + 1*q'
    >>> q_binomial(4, 2).pretty()
    '1 + 1*q + 2*q^2 + 1*q^3 + 1*q^4'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return QtPoly.zero()
    if k == 0 or k == n:
        return QtPoly.one()
    return q_binomial(n - 1, k - 1) + QtPoly.q_power(k) * q_binomial(n - 1, k)


Perm = tuple[int, ...]


class PermStats(NamedTuple):
    des: int
    cdes: int
    exc: int
    maj: int
    maj2des: int  # sum of the positions where the entry drops by >= 2
    maj2asc: int  # sum of the positions where the entry rises by >= 2
    des_set: frozenset[int]
    des2_set: frozenset[int]
    asc2_set: frozenset[int]


def inverse_perm(sigma: Perm) -> Perm:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        inv[v - 1] = i
    return tuple(inv)


def perm_stats(sigma: Sequence[int]) -> PermStats:
    """All statistics of a permutation given in one-line notation.

    >>> s = perm_stats((2, 3, 1))
    >>> (s.exc, s.maj)
    (2, 2)
    >>> perm_stats((3, 1, 2)).des2_set
    frozenset({1})
    """
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    des_set = frozenset(i for i in range(1, n) if sigma[i - 1] > sigma[i])
    des2 = frozenset(i for i in range(1, n) if sigma[i - 1] - sigma[i] >= 2)
    asc2 = frozenset(i for i in range(1, n) if sigma[i] - sigma[i - 1] >= 2)
    des = len(des_set)
    return PermStats(
        des=des,
        cdes=des + (1 if n and sigma[-1] > sigma[0] else 0),
        exc=sum(1 for i, v in enumerate(sigma, start=1) if v > i),
        maj=sum(des_set),
        maj2des=sum(des2),
        maj2asc=sum(asc2),
        des_set=des_set,
        des2_set=des2,
        asc2_set=asc2,
    )


def permutations_of(n: int) -> Iterator[Perm]:
    return permutations(range(1, n + 1))
