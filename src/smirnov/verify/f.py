"""The f suite: the fundamental expansions against the closed forms and the q
walks, and the fundamental functions, enumerated here, against their two
specializations."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .. import enumerators as en
from ..exact import LaurentPoly, QtPoly
from ..symfun import expand_at_compositions
from . import _record


def suite_f(max_n: int) -> list[dict]:
    records = []
    kind_of = {variant: kind for kind, (variant, stat) in en.Q_RULES.items() if stat == "des"}
    for variant in en.F_VARIANTS:
        for n in range(1, max_n + 1):
            fe = en.f_expansion(variant, n)
            rhs = expand_at_compositions(en.closed_form(variant, n).omega(), n)
            params = {"variant": variant, "n": n}
            records.append(_record("f-vs-closed", params, fe, rhs, fe.to_table(n) == rhs))
            if variant in kind_of:
                num = fe.principal_numerator()
                qe = en.q_eulerian(kind_of[variant], n)
                records.append(_record("f-principal-numerator", params, num, qe))
    for n in range(1, max_n + 1):
        for subset_bits in range(1 << (n - 1)):
            S = frozenset(i + 1 for i in range(n - 1) if subset_bits >> i & 1)
            for m in range(1, 5):
                total = LaurentPoly.const(sum(fundamental_F(n, S, m).values()))
                expected = LaurentPoly.const(F_ones_specialization(n, S, m))
                records.append(
                    _record("f-ones-total", {"n": n, "set": sorted(S), "m": m}, total, expected)
                )
    order = 10
    for n in range(1, min(max_n, 4) + 1):
        for subset_bits in range(1 << (n - 1)):
            S = frozenset(i + 1 for i in range(n - 1) if subset_bits >> i & 1)
            direct = F_principal_series(n, S, order)
            closed = QtPoly.q_power(sum(S)) * inverse_q_product(n, order)
            closed = QtPoly({e: c for e, c in closed.terms.items() if e <= order})
            params = {"n": n, "set": sorted(S)}
            records.append(_record("f-principal-series", params, direct, closed))
    return records


def fundamental_F(n: int, S: Iterable[int], k: int) -> dict[tuple, int]:
    """Fundamental quasisymmetric function over k variables: the sum of x_f
    over weakly decreasing f: [n] -> [k] that drop strictly at every position
    in S, as the number of such f with each exponent vector.

    >>> fundamental_F(3, {1}, 2)
    {(2, 1): 1}
    """
    S = frozenset(S)
    if any(not 1 <= i <= n - 1 for i in S):
        raise ValueError("S must be a subset of 1..n-1")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    counts: dict[tuple, int] = {}
    values = [0] * n

    def extend(i: int) -> None:
        if i == n:
            vec = [0] * k
            for v in values:
                vec[v - 1] += 1
            key = tuple(vec)
            counts[key] = counts.get(key, 0) + 1
            return
        hi = k if i == 0 else values[i - 1] - (1 if i in S else 0)
        for v in range(1, hi + 1):
            values[i] = v
            extend(i + 1)

    extend(0)
    return counts


def F_ones_specialization(n: int, S: Iterable[int], m: int) -> int:
    """Number of weakly decreasing f: [n] -> [m] strict at S."""
    S = frozenset(S)
    if m < 1:
        raise ValueError("m must be positive")
    return math.comb(m + n - 1 - len(S), n)


def F_principal_series(n: int, S: Iterable[int], order: int) -> QtPoly:
    """Direct truncated sum of q^(f(1)-1 + ... + f(n)-1) over f in the
    strict-at-S weakly decreasing family; the oracle for the closed form."""
    S = frozenset(S)
    counts: dict[int, int] = {}
    values = [0] * n

    def extend(i: int, budget: int) -> None:
        if i == n:
            e = sum(values) - n
            counts[e] = counts.get(e, 0) + 1
            return
        hi = (order + 1 + n) if i == 0 else values[i - 1] - (1 if i in S else 0)
        for v in range(1, hi + 1):
            if (v - 1) > budget:
                break
            values[i] = v
            extend(i + 1, budget - (v - 1))

    extend(0, order)
    return QtPoly({e: LaurentPoly({0: c}) for e, c in counts.items()})


@lru_cache(maxsize=None)
def inverse_q_product(n: int, order: int) -> QtPoly:
    """Truncation of 1 / ((1-q)(1-q^2)...(1-q^n)) to q^order."""
    series = {0: 1}
    for j in range(1, n + 1):
        out: dict[int, int] = {}
        for e, c in series.items():
            m = e
            while m <= order:
                out[m] = out.get(m, 0) + c
                m += j
        series = out
    return QtPoly({e: LaurentPoly({0: c}) for e, c in series.items()})
