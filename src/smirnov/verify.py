"""Verification suites tying every closed form to a brute-force oracle.

Every suite lives here, the unimodality and counting reports included.
Each yields a list of records, all built by ``_record``, that keep the two
values compared and present nothing, so a text run, which prints each
record's status, check and params, presents no value.  ``records_json``,
the one place a value is presented, writes them as the CLI's JSON line of
``{check, params, status, lhs, rhs}``, rendering each side through the
symmetric-function JSON encoding wherever it is symmetric, so the layout
here is a stable machine contract.  Every oracle is quasisymmetric, so
sides over k variables are compared as ``QsymTable`` values, at the
compositions with at most k parts, and shown in the e basis, which
certifies symmetry, when k is at least the degree, or else as k-variable
tables.

A record passes exactly when its two shown sides are equal as values.  Five
checks have a condition wider than the sides they show, and pass it as
``ok``: ``powersum-vs-brute`` and ``f-vs-closed`` show the expansion but
compare its values at compositions (``powersum-vs-brute`` n! times each
side, so that both are integral), ``root-of-unity`` also needs the recursion
route to agree, ``cycle-even-corrected`` adds the direct chain test, and
``cyclic-coefficient-*`` adds the shape's own palindromic-unimodal test.

Every value compared has integer coefficients.  A ``Fraction``, imported
where it is made, appears only in what is shown: the half-integer centers of
the unimodality params and the plain p sides (``_in_plain_p``).
"""

from __future__ import annotations

import math

from . import combinat
from . import enumerators as en
from .exact import (
    EULER_SERIES_ORDER,
    ONE,
    T,
    ZERO,
    LaurentPoly,
    QtPoly,
    divisors,
    dumps,
    euler_series_check,
    eulerian,
    palindrome_unimodal,
    t_quantum,
)
from .symfun import (
    QsymTable,
    SymFun,
    SymSeries,
    e_positive,
    e_unimodal_direct,
    e_unimodal_palindromic,
    expand_at_compositions,
    monomial_to_e,
    orbit_size,
    partitions_of,
    product_equal_at_point,
    z_of,
)


def _record(check: str, params: dict, lhs, rhs, ok: bool | None = None) -> dict:
    """One record of the two values compared; it passes when ``lhs == rhs``,
    or when ``ok`` for the checks whose condition is wider than the two
    sides.  It presents nothing: ``same`` keeps whether the sides are equal,
    so that ``records_json`` shows an equal rhs with lhs's text."""
    same = lhs == rhs
    return {
        "check": check,
        "params": params,
        "status": "pass" if (same if ok is None else ok) else "fail",
        "lhs": lhs,
        "rhs": rhs,
        "same": same,
    }


def records_json(records: list[dict]) -> str:
    """The records as one compact JSON line of ``{check, params, status,
    lhs, rhs}``, byte for byte ``json.dumps(..., separators=(",", ":"))`` of
    the records with each side presented: a ``QsymTable`` in the e basis
    when ``monomial_to_e`` takes it, or else as its k-variable table, written
    from its rows with each coefficient encoded once; any other value
    through its ``to_json_obj``, or as it is.  A side, or a table's exponent
    list, is presented at most once per call: its text is kept by id (the
    records, and ``symfun._layout``'s cache, keep each alive), and an equal
    rhs takes lhs's text under both ids."""
    texts: dict[int, str] = {}

    def text(x) -> str:
        return texts.get(id(x)) or texts.setdefault(id(x), present(x))

    def present(x) -> str:
        if isinstance(x, QsymTable):
            try:
                x = monomial_to_e(x)
            except ValueError:  # NotSymmetricError among them
                rows = x._rows(lambda c: dumps(c.to_json_obj()))
                terms = ",".join(f'{{"exponents":{text(vec)},"coeff":{c}}}' for vec, c in rows)
                return f'{{"vars":{x.nvars},"terms":[{terms}]}}'
        return dumps(x.to_json_obj() if hasattr(x, "to_json_obj") else x)

    parts = []
    for r in records:
        lhs, rhs = r["lhs"], r["rhs"]
        if r["same"]:
            texts[id(lhs)] = texts[id(rhs)] = texts.get(id(lhs)) or texts.get(id(rhs)) or present(lhs)
        head = dumps({"check": r["check"], "params": r["params"], "status": r["status"]})
        parts.append(f'{head[:-1]},"lhs":{text(lhs)},"rhs":{text(rhs)}}}')
    return "[" + ",".join(parts) + "]"


def suite_oracle(max_n: int, nvars: int) -> list[dict]:
    records = []
    rings = combinat.ring_colorings(max_n, nvars)  # the path and both cycles, every n
    # each oracle table once per call: XC's from the walk, a word table when first read
    tables = {("XC", n): rings["cycle", n] for n in range(2, max_n + 1)}

    def table(variant: str, n: int) -> QsymTable:
        if (variant, n) not in tables:
            tables[variant, n] = combinat.brute_enumerator(variant, n, nvars)
        return tables[variant, n]

    for variant in en.VARIANTS:
        start = 2 if variant in ("Wneq", "XC") else 1
        for n in range(start, max_n + 1):
            lhs = expand_at_compositions(en.closed_form(variant, n), nvars)
            rhs = table(variant, n)
            params = {"variant": variant, "n": n, "vars": nvars}
            records.append(_record("oracle", params, lhs, rhs))
    for n in range(1, max_n + 1):
        lhs = rings["path", n]
        rhs = table("W", n)
        records.append(_record("chromatic-path", {"n": n, "vars": nvars}, lhs, rhs))
    for n in range(2, max_n + 1):
        lhs = rings["directed_cycle", n]
        rhs = table("Wtildeneq", n)
        records.append(_record("chromatic-directed-cycle", {"n": n, "vars": nvars}, lhs, rhs))
        lhs = table("XC", n)
        rhs = table("Wless", n) + table("Wgreater", n).scale(T)
        records.append(_record("chromatic-cycle-split", {"n": n, "vars": nvars}, lhs, rhs))
    for n in range(1, max_n + 1):
        less = table("Wless", n)
        greater = table("Wgreater", n)
        equal = table("Wequal", n)
        for name, lhs_variant, rhs in (
            ("refinement-all", "W", less + greater + equal),
            ("refinement-cyclic", "Wtilde", less.scale(T) + greater + equal),
            ("refinement-distinct", "Wneq", less + greater),
            ("refinement-cyclic-distinct", "Wtildeneq", less.scale(T) + greater),
        ):
            lhs = table(lhs_variant, n)
            records.append(_record(name, {"n": n, "vars": nvars}, lhs, rhs))
        reversed_less = less.map_coeffs(lambda p: p.reverse(n - 1))
        records.append(_record("word-reversal", {"n": n, "vars": nvars}, greater, reversed_less))
    return records


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
    for variant in en.TOP_VARIANTS:  # Wneq = Wless + Wgreater, XC = Wless + t*Wgreater
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
                total = LaurentPoly.const(sum(combinat.fundamental_F(n, S, m).values()))
                expected = LaurentPoly.const(combinat.F_ones_specialization(n, S, m))
                records.append(
                    _record("f-ones-total", {"n": n, "set": sorted(S), "m": m}, total, expected)
                )
    order = 10
    for n in range(1, min(max_n, 4) + 1):
        for subset_bits in range(1 << (n - 1)):
            S = frozenset(i + 1 for i in range(n - 1) if subset_bits >> i & 1)
            direct = combinat.F_principal_series(n, S, order)
            closed = QtPoly.q_power(sum(S)) * combinat.inverse_q_product(n, order)
            closed = QtPoly({e: c for e, c in closed.terms.items() if e <= order})
            params = {"n": n, "set": sorted(S)}
            records.append(_record("f-principal-series", params, direct, closed))
    return records


def suite_qexp(max_order: int) -> list[dict]:
    records = []
    for n in range(0, 8):
        lhs = en.q_eulerian("Amajexc", n)
        rhs = en.q_eulerian("Ades", n)
        records.append(_record("interpretation-equality", {"n": n}, lhs, rhs))
    for kind in en.QEXP_IDENTITIES:
        ok = en.q_exp_identity_check(kind, max_order)
        records.append(_record("qexp-identity", {"kind": kind, "order": max_order}, ok, True))
    for n in range(2, max_order + 1):
        lhs = en.q_eulerian("Atilde", n).at_q_one()
        rhs = n * T * eulerian(n - 1)
        records.append(_record("cyclic-at-one", {"n": n}, lhs, rhs))
        lhs = en.q_eulerian("Aless", n).at_q_one()
        rhs = (T * eulerian(n - 1)).derivative()
        records.append(_record("endpoint-at-one", {"n": n}, lhs, rhs))
    diag = en.q_statistic_diagnostic(3)
    expected = {"des_weighted_agree": True, "cdes_weighted_agree": False}
    records.append(_record("q-statistic-diagnostic", {"n": 3}, diag, expected))
    return records


def suite_roots() -> list[dict]:
    records = []
    for n in range(2, SWEEP_N + 1):
        for k in divisors(n):
            for kind in en.ROOT_FAMILIES:
                parts, ok = en.root_of_unity_parts(kind, n, k)
                records.append(
                    _record(
                        "root-of-unity",
                        {"kind": kind, "n": n, "k": k, "routes": sorted(parts)},
                        parts["via_eval"],
                        parts["closed"],
                        ok,
                    )
                )
    return records


def _shape_palindromic_unimodal(p: LaurentPoly) -> bool:
    """Palindromic about the midpoint of its own support, and unimodal."""
    from fractions import Fraction
    if not p:
        return True
    center = Fraction(p.valuation() + p.degree(), 2)
    return palindrome_unimodal(p, center) == (True, True)


def suite_unimodal() -> list[dict]:
    """Palindromicity/unimodality assertions for every variant with a stated
    center, the even-cycle failure witness, and the special coefficient
    formulas for the cyclic enumerator."""
    from fractions import Fraction
    records = []
    for n in range(2, SWEEP_N + 1):
        for variant, center in (
            ("W", Fraction(n - 1, 2)),
            ("Wneq", Fraction(n - 1, 2)),
            ("Wtildeneq", Fraction(n, 2)),
        ):
            flags = e_unimodal_palindromic(en.closed_form(variant, n), center)
            records.append(
                _record(
                    "unimodal-palindromic",
                    {"variant": variant, "n": n, "center": str(center)},
                    list(flags),
                    [True, True],
                )
            )
        # labeled cycle: odd clean, even fails with an explicit witness
        xc = en.closed_form("XC", n)
        center = Fraction(n, 2)
        flags = e_unimodal_palindromic(xc, center)
        direct = e_unimodal_direct(xc)
        positive = e_positive(xc)
        if n % 2:
            records.append(
                _record(
                    "cycle-odd-unimodal-palindromic",
                    {"n": n, "center": str(center)},
                    list(flags) + [direct],
                    [True, True, True],
                )
            )
        else:
            m = n // 2
            witness = xc.coeff((2,) * m)
            expected = LaurentPoly.t_power(m - 1) + LaurentPoly.t_power(m + 1)
            fixed = xc + SymFun("e", n, {(2,) * m: LaurentPoly.t_power(m)})
            fixed_flags = e_unimodal_palindromic(fixed, center)
            records += [
                _record(
                    "cycle-even-positive-palindromic-not-unimodal",
                    {"n": n, "center": str(center)},
                    [positive, flags[0], flags[1], direct],
                    [True, True, False, False],
                ),
                _record("cycle-even-witness", {"n": n, "partition": [2] * m}, witness, expected),
                _record(
                    "cycle-even-corrected",
                    {"n": n, "center": str(center)},
                    list(fixed_flags),
                    [True, True],
                    fixed_flags == (True, True) and e_unimodal_direct(fixed),
                ),
            ]
        # special coefficient shapes of the cyclic-descent enumerator; the
        # smallest-part-one shape needs the ordering multiplicity of the
        # parts >= 2, since the geometric expansion sums over ordered tuples
        wt = en.closed_form("Wtilde", n)
        for lam in partitions_of(n):
            ell = len(lam)
            shapes = []
            if lam[-1] == 1:
                head = lam[:-1]
                expected = LaurentPoly.t_power(ell - 1, orbit_size(head))
                for part in head:
                    expected = expected * t_quantum(part - 1)
                shapes.append(("cyclic-coefficient-smallest-part-one", expected))
            if len(set(lam)) == 1:
                j = lam[0]
                expected = LaurentPoly.t_power(j + ell - 2, j) * t_quantum(j - 1) ** (ell - 1)
                shapes.append(("cyclic-coefficient-rectangle", expected))
            for name, expected in shapes:
                c = wt.coeff(lam)
                ok = c == expected and _shape_palindromic_unimodal(expected)
                records.append(_record(name, {"n": n, "partition": list(lam)}, c, expected, ok))
    w5 = en.closed_form("Wtilde", 5)
    pal_any = any(e_unimodal_palindromic(w5, Fraction(c2, 2))[0] for c2 in range(0, 2 * 5 + 1))
    lhs = [pal_any, e_unimodal_direct(w5)]
    records.append(_record("cyclic-degree-five-counterexample", {"n": 5}, lhs, [False, False]))
    return records


def suite_counting() -> list[dict]:
    """Alphabet-restricted descent counts against binomial sums over
    permutations graded by the drop-gap sets of their inverses.

    The word side reads one word DP table per variant and n, in n variables:
    the count over m letters is the sum of c_alpha * C(m, l(alpha)).  The
    permutation side reads the walk of ``en.f_expansion``, whose set S is
    exactly the positions where sigma^-1 drops by at least two, so no
    permutation is swept."""
    records = []
    for n in range(1, COUNTING_N + 1):
        walks = {v: en.f_expansion(v, n).terms for v in ("W", "Wless", "Wtilde")}
        words = {v: combinat.brute_enumerator(v, n, n).terms for v in walks}
        for m in range(1, COUNTING_M + 1):
            for mode, variant in (("des", "W"), ("des-first-less", "Wless"), ("cdes", "Wtilde")):
                lhs = sum((c * math.comb(m, len(a)) for a, c in words[variant].items()), ZERO)
                rhs = ZERO
                for e, S, mult in walks[variant]:
                    rhs = rhs + LaurentPoly.t_power(e, mult * math.comb(m + len(S), n))
                records.append(_record(f"counting-{mode}", {"n": n, "m": m}, lhs, rhs))
    return records


def suite_series(order: int) -> list[dict]:
    records = []
    for variant in en.VARIANTS:
        ok = en.quotient_form_check(variant, order)
        records.append(_record("series-quotient", {"variant": variant, "order": order}, ok, True))
    for variant in en.CLEARED_VARIANTS:
        ok = en.cleared_form_check(variant, order)
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


def suite_transfer() -> list[dict]:
    records = []
    for k in range(2, 6):
        records.append(_record("transfer-determinant", {"k": k}, en.transfer_matrix_check(k), True))
    for k in range(1, 7):
        for j in range(0, 6):
            ok = en.distinguished_element_check(j, k)
            records.append(_record("distinguished-element", {"j": j, "k": k}, ok, True))
    return records


# run_suite bound -> (default, the LIMITS key of its range)
BOUNDS = {
    "max_n": (5, "n"),
    "vars": (6, "vars"),
    "max_order": (8, "n"),
}

# The sweeps no bound sets, whatever en.LIMITS allows: n of the power sum,
# roots and unimodal suites; word length n and alphabet size m of counting.
SWEEP_N = 8
COUNTING_N, COUNTING_M = 6, 5

# suite -> (suite function, the run_suite bounds it reads, in argument order)
SUITE_BOUNDS = {
    "oracle": (suite_oracle, ("max_n", "vars")),
    "powersum": (suite_powersum, ("max_n",)),
    "f": (suite_f, ("max_n",)),
    "qexp": (suite_qexp, ("max_order",)),
    "roots": (suite_roots, ()),
    "unimodal": (suite_unimodal, ()),
    "counting": (suite_counting, ()),
    "series": (suite_series, ("max_order",)),
    "transfer": (suite_transfer, ()),
}
SUITES = tuple(SUITE_BOUNDS)


def run_suite(name: str, **bounds: int) -> list[dict]:
    """Run one suite.  Any bound of ``BOUNDS`` may be given and is checked
    against its limit; the suite reads its own, defaulting the ones not given."""
    if name not in SUITE_BOUNDS:
        raise ValueError(f"unknown suite {name!r}")
    for bound, value in bounds.items():
        if bound not in BOUNDS:
            raise ValueError(f"unknown bound {bound!r}")
        en.check_limit(BOUNDS[bound][1], value)
    fn, reads = SUITE_BOUNDS[name]
    return fn(*(bounds.get(b, BOUNDS[b][0]) for b in reads))


def run_suites(names, **bounds: int) -> list[dict]:
    records = []
    for name in names:
        records.extend(run_suite(name, **bounds))  # by name first: perfbench spans read it
    return records


def all_pass(records) -> bool:
    return all(r["status"] == "pass" for r in records)
