"""The series suite: the generating-series identities, each product of two
series compared at one integer point (``product_equal_at_point``)."""

from __future__ import annotations

import math

from .. import enumerators as en, symfun
from ..exact import ONE, T, LaurentPoly, at_point, digit_width, eulerian, int_span, t_quantum
from ..symfun import Partition, SymFun, SymSeries, partitions_of
from . import _record

CLEARED_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde")
EULER_SERIES_ORDER = 12  # the truncation order of euler_series_check


def suite_series(order: int) -> list[dict]:
    records = []
    for variant in en.VARIANTS:
        ok = quotient_form_check(variant, order)
        records.append(_record("series-quotient", {"variant": variant, "order": order}, ok, True))
    for variant in CLEARED_VARIANTS:
        ok = cleared_form_check(variant, order)
        records.append(_record("series-cleared", {"variant": variant, "order": order}, ok, True))
    G = SymSeries([en.geometric_form(m) for m in range(order + 1)])  # 1 / D, explicitly
    ok = product_equal_at_point(en.denominator_series(order), G, SymSeries.one("e", order))
    records.append(_record("series-geometric-inverse", {"order": order}, ok, True))
    for n in range(2, order + 1):
        less = en.closed_form("Wless", n)
        greater = en.closed_form("Wgreater", n)
        equal = en.closed_form("Wequal", n)
        pairs = (
            ("series-refinement-all", en.closed_form("W", n), less + greater + equal),
            ("series-refinement-cyclic", en.closed_form("Wtilde", n), less.scale(T) + greater + equal),
            ("series-refinement-distinct", en.closed_form("Wneq", n), less + greater),
            ("series-refinement-cyclic-distinct", en.closed_form("Wtildeneq", n), less.scale(T) + greater),
            ("series-cycle-split", en.closed_form("XC", n), less + greater.scale(T)),
        )
        for name, lhs, rhs in pairs:
            records.append(_record(name, {"n": n}, lhs, rhs))
    H = SymSeries.h_series_p(order)
    Htz = H.grade_scale_t()
    # (H(z) / H(tz))^power has coefficient power^l(lam) * prod_i (1 - t^lam_i)
    # at p_lam / z_lam
    factor = {part: ONE - LaurentPoly.t_power(part) for part in range(1, order + 1)}
    products = [
        [(lam, math.prod(map(factor.get, lam), start=ONE)) for lam in partitions_of(n)]
        for n in range(order + 1)
    ]
    closed = {
        power: SymSeries(
            [
                SymFun("p/z", n, {lam: c * power ** len(lam) for lam, c in row})
                for n, row in enumerate(products)
            ]
        )
        for power in range(1, 4)
    }
    for power, rhs in closed.items():
        # power 1: closed(1) * H(tz) = H(z); then closed(1) * closed(p - 1) = closed(p)
        lhs, rhs = (Htz, H) if power == 1 else (closed[power - 1], rhs)
        ok = product_equal_at_point(closed[1], lhs, rhs)
        records.append(_record("h-ratio-power", {"power": power, "order": order}, ok, True))
    ps_series = SymSeries(
        [SymFun.generator("p/z", 0)] + [en.powersum_form("W", n) for n in range(1, order + 1)]
    )
    denom = Htz - H.scale(T)
    ok = product_equal_at_point(ps_series, denom, H.scale(ONE - T))
    records.append(_record("eulerian-powersum-series", {"order": order}, ok, True))
    for m in range(2, 6):
        params = {"m": m, "order": EULER_SERIES_ORDER}
        records.append(_record("eulerian-geometric-series", params, euler_series_check(m), True))
    return records


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
    lhs = en.closed_series(variant, order)
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
            order, lambda i: en.abc(i)[1] * one_minus_t if i >= 2 else None
        )
    return product_equal_at_point(lhs, denom, rhs)


def quotient_form_check(variant: str, order: int) -> bool:
    """Numerator = denominator * series, for every variant's quotient."""
    numerator = symfun.SymSeries.from_weights(order, lambda i: en.numerator_weight(variant, i))
    series, denom = en.closed_series(variant, order), en.denominator_series(order)
    return product_equal_at_point(series, denom, numerator)


def product_equal_at_point(a: SymSeries, b: SymSeries, rhs: SymSeries) -> bool:
    """Whether ``a.mul(b) == rhs``, compared at one integer point instead of
    multiplying ``LaurentPoly`` coefficients.

    The partitions stay keys.  Every coefficient of a series is taken times
    the power of t that makes the series' lowest t-exponent 0, at t = 2^w
    (``exact.at_point``), so each product of two coefficients is one product
    of ints times the structure constant that ``symfun._product_key`` gives, summed
    per partition.  Each side is then brought to the lower of the two sides'
    t-exponents.  w comes from the l1 norms (``exact.digit_width``): the
    product of degrees j and n - j has l1 norm at most that of the two
    factors times C(n, j) against p / z (a structure constant
    prod_i C(m_i(lam) + m_i(mu), m_i(mu)) is at most
    C(l(lam) + l(mu), l(mu)) <= C(n, j)), and times 1 in e, h or plain p.

    >>> E = SymSeries.generating("e", 3)
    >>> product_equal_at_point(E, E, E.mul(E)), product_equal_at_point(E, E, E)
    (True, False)
    """
    a._check_basis(b)
    basis = a.basis
    size = min(a.order, b.order) + 1
    if (rhs.basis, rhs.order) != (basis, size - 1):
        return False
    shapes = []  # per series: (lowest t-exponent, l1 norm per degree)
    for s in (a, b, rhs):
        spans = [int_span(f.terms.values()) for f in s.coeffs[:size]]
        low = min((lo for lo, _, l1 in spans if l1), default=0)  # l1 is 0 only at a zero degree
        shapes.append((low, [l1 for _, _, l1 in spans]))
    (a_low, a_l1), (b_low, b_l1), (rhs_low, rhs_l1) = shapes
    w = digit_width(
        max(
            sum(
                (math.comb(n, j) if basis == "p/z" else 1) * a_l1[j] * b_l1[n - j]
                for j in range(n + 1)
            )
            + rhs_l1[n]
            for n in range(size)
        )
    )
    x, y, want = (
        [{lam: at_point(c.terms.items(), w, low) for lam, c in f.terms.items()} for f in s.coeffs[:size]]
        for s, (low, _) in zip((a, b, rhs), shapes)
    )
    key = symfun._product_key  # read now, so a patched structure constant is seen
    low = min(a_low + b_low, rhs_low)
    shift_lhs, shift_rhs = w * (a_low + b_low - low), w * (rhs_low - low)
    for n in range(size):
        acc: dict[Partition, int] = {}
        for j in range(n + 1):
            for lam, u in x[j].items():
                for mu, v in y[n - j].items():
                    nu, mult = key(lam, mu, basis)
                    acc[nu] = acc.get(nu, 0) + u * v * mult
        got = {lam: u << shift_lhs for lam, u in acc.items() if u}
        if got != {lam: u << shift_rhs for lam, u in want[n].items()}:
            return False
    return True


def euler_series_check(m: int) -> bool:
    """Truncated power-series identity t*A(m-1)/(1-t)^m = sum_k k^(m-1) t^k, m >= 2."""
    if m < 2:
        raise ValueError("m must be at least 2")
    order = EULER_SERIES_ORDER
    inv = LaurentPoly({j: math.comb(j + m - 1, m - 1) for j in range(order + 1)})
    lhs = ((T * eulerian(m - 1)) * inv).truncated(order)
    rhs = LaurentPoly({k: k ** (m - 1) for k in range(1, order + 1)})
    return lhs == rhs
