"""The power sum suite: the power sum forms against the word oracle and the
homogeneous series, and their reversal, weight and top coefficients."""

from __future__ import annotations

import math

from .. import combinat, enumerators as en
from ..exact import ONE, T, LaurentPoly, t_quantum
from ..symfun import SymFun, SymSeries, expand_at_compositions, partitions_of, z_of
from . import SWEEP_N, _record

TOP_VARIANTS = ("Wneq", "XC")


def suite_powersum(max_n: int) -> list[dict]:
    records = []
    for variant in en.POWERSUM_VARIANTS:
        for n in range(1, max_n + 1):
            form = en.powersum_form(variant, n)
            rhs = combinat.brute_enumerator(variant, n, n)
            # n! times each side, where the form is integral in plain p
            scale = math.factorial(n)
            plain = {lam: c * (scale // z_of(lam)) for lam, c in form.omega().terms.items()}
            ok = expand_at_compositions(SymFun("p", n, plain), n) == rhs.scale(scale)
            params = {"variant": variant, "n": n}
            records.append(_record("powersum-vs-brute", params, form, rhs, ok))
    for n in range(1, SWEEP_N + 1):
        less, greater, cyclic = (
            en.powersum_form(v, n) for v in ("Wless", "Wgreater", "Wtildeneq")
        )
        for lam in partitions_of(n):
            params = {"n": n, "partition": list(lam)}
            c_less, c_greater, expected = less.coeff(lam), greater.coeff(lam), cyclic.coeff(lam)
            rev = c_less.reverse(n - 1)
            records.append(_record("powersum-reversal", params, c_greater, rev))
            combo = T * c_less + c_greater
            records.append(_record("powersum-cyclic-combination", params, combo, expected))
            if len(lam) > 1:  # the weight t*A_(l-1)*prod [part]_t, over n
                try:
                    s, ok = expected / n, None
                except ValueError:  # no integral weight: a wrong form fails, not errors
                    s, ok = expected, False
                records.append(_record("powersum-weight-palindromic", params, s, s.reverse(n), ok))
    for variant in TOP_VARIANTS:  # Wneq = Wless + Wgreater, XC = Wless + t*Wgreater
        for n in range(2, SWEEP_N + 1):
            less, greater = (en.powersum_form(v, n).coeff((n,)) for v in ("Wless", "Wgreater"))
            lhs = less + (T if variant == "XC" else ONE) * greater
            rhs = en.closed_form(variant, n).coeff((n,))
            records.append(_record("top-coefficient", {"variant": variant, "n": n}, lhs, rhs))
    for i in range(2, 11):
        a, b, c = en.abc(i)
        checks = (
            ("abc-sum", a + b - c, t_quantum(i)),
            ("abc-cyclic-sum", T * a + b, i * T * t_quantum(i - 1)),
            ("abc-reversal", b, a.reverse(i - 1)),
        )
        for name, lhs, rhs in checks:
            records.append(_record(name, {"i": i}, lhs, rhs))
    for n in range(1, min(max_n, 6) + 1):
        lhs = _in_plain_p(_powersum_extraction(n))
        rhs = _in_plain_p(en.powersum_form("W", n))
        records.append(_record("powersum-extraction", {"n": n}, lhs, rhs))
    return records


def _powersum_extraction(n: int) -> SymFun:
    """Solve the cross-multiplied homogeneous-series identity for the power
    sum coefficients degree by degree, against p / z; each step divides
    exactly by 1 - t (``_over_one_minus_t``)."""
    H = SymSeries.h_series_p(n)
    one_minus_t = ONE - T
    denom = [None] + [
        H[j].scale(LaurentPoly.t_power(j) - T) for j in range(1, n + 1)
    ]
    series: list[SymFun] = [SymFun.generator("p/z", 0)]
    for m in range(1, n + 1):
        acc = H[m].scale(one_minus_t)
        for j in range(1, m + 1):
            acc = acc - denom[j] * series[m - j]
        series.append(acc.map_coeffs(_over_one_minus_t))
    return series[n]


def _over_one_minus_t(p: LaurentPoly) -> LaurentPoly:
    """p / (1 - t), whose coefficients are the running sums of those of p;
    ValueError unless the sum of them all, p at t = 1, is 0."""
    out, run = {}, 0
    for e in range(p.valuation(), p.degree() + 1) if p else ():
        run += p.coeff(e)
        out[e] = run
    if run:
        raise ValueError(f"{p!r} is not divisible by 1 - t")
    return LaurentPoly(out)


def _in_plain_p(f: SymFun) -> dict:
    """How a function against p / z is shown in plain p: the JSON of f with
    each coefficient over z_lam, an int or the string "p/q" in lowest terms.
    Only for showing: no check reads a coefficient divided."""
    from fractions import Fraction  # here, so that the suites that show none load none
    obj = f.to_json_obj()
    obj["basis"] = "p"
    for term in obj["terms"]:
        z = z_of(tuple(term["partition"]))
        term["coeff"] = {e: str(Fraction(c, z)) if c % z else c // z for e, c in term["coeff"].items()}
    return obj
