"""The permutation walks and the q-Eulerian polynomials, on ``exact`` alone:
what ``qeuler``, ``roots`` and ``fexpand`` run, so that they compile neither
``combinat`` nor ``enumerators``, which bind these names too (``LIMITS`` is
one table).  ``perm_walk`` is a prefix DP over permutations whose step sees
only whether the last value is below v, v + 1 or above (all that a descent,
a drop of two or more, or a q-weight asks) and stamps a row's tag once, so
no step forbids an append.  ``f_expansion`` runs it over sigma^-1 and
``q_eulerian`` over sigma, so ``verify``'s f-principal-numerator check
compares two independent walks.  Both apply a word variant's endpoint rule
(``ENDPOINT_RULES``) through ``endpoint_sum`` to cached walks: one F walk
per n stamped by endpoint class, whose '<' part Wgreater reads reversed
(``F_REVERSED``), and q walks per step rule (``Q_RULES``) and whether they
stamp the first value.  Unit tests check each walk against a permutation
sweep, and ``to_table`` (which imports ``combinat`` and ``symfun`` when
called) against ``verify.f.fundamental_F``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Mapping, NamedTuple

from .exact import T, LaurentPoly, QtPoly, eulerian, eval_at_root_of_unity, t_quantum


def packed_coeffs(poly: int, width: int) -> dict[int, int]:
    """The nonzero coefficients of a polynomial packed ``width`` bits per
    slot, keyed by slot (slot 0 in the lowest bits).  The walks and DPs add
    them as ints and multiply one by t^d as a shift by d * width."""
    mask = (1 << width) - 1
    coeffs = {}
    slot = 0
    while poly:
        if poly & mask:
            coeffs[slot] = poly & mask
        poly >>= width
        slot += 1
    return coeffs


def endpoint_class(first: int, last: int) -> str:
    """'<', '>' or '=' as the first value is below, above or equal to the last."""
    if first < last:
        return "<"
    if first > last:
        return ">"
    return "="


# variant tag -> {endpoint class: the power of t it adds, one for the cyclic
# wrap descent last > first}; a class left out is filtered out
ENDPOINT_RULES = {
    "W": {"<": 0, ">": 0, "=": 0},
    "Wless": {"<": 0},
    "Wgreater": {">": 0},
    "Wequal": {"=": 0},
    "Wneq": {"<": 0, ">": 0},
    "Wtilde": {"<": 1, ">": 0, "=": 0},
    "Wtildeneq": {"<": 1, ">": 0},
}


def endpoint_sum(variant: str, by_class: Iterable[tuple[str, int]], width: int) -> int:
    """Sum (endpoint class, packed polynomial) pairs by ``ENDPOINT_RULES[variant]``."""
    rule = ENDPOINT_RULES[variant]
    return sum(poly << rule[cls] * width for cls, poly in by_class if cls in rule)


def perm_walk(n: int, width: int, step: Callable[[int, int, int], tuple]) -> dict[tuple, int]:
    """Prefix DP over the permutations of 1..n in one-line notation.

    A row is (the values used so far, value v at bit v - 1; a tag, 0 until
    a step stamps it) and holds, per last value, a polynomial packed
    ``width`` bits per slot (``packed_coeffs``).  ``step(p, used, v)``
    returns, for appending the unused v at position p, how many slots the
    append moves a polynomial up when the last value is below v (as 0 is
    at p = 1), v + 1, or above v + 1, and a stamp for a row whose tag is
    still 0.  These three classes are all a rule asks of the last value: a
    descent is last > v, and v + 1 just before v is last = v + 1 (last !=
    v, as v is unused).  So the step runs once per (used set, v) and a row
    sums its last values by prefix sums.  No step forbids an append: a rule
    that splits the permutations stamps the parts, so they share one walk
    of their common prefixes.  The result maps (tag, last) of the complete
    permutations to their sum.
    """
    layer: dict = {0: {0: [1] + [0] * (n + 1)}}  # used -> tag -> by last value, n + 1 kept 0
    for p in range(1, n + 1):
        nxt: dict = defaultdict(lambda: defaultdict(lambda: [0] * (n + 2)))
        for used, rows in layer.items():
            sums = [(tag, list(accumulate(by_last, initial=0))) for tag, by_last in rows.items()]
            for v in range(1, n + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                below, next_up, above, stamp = step(p, used, v)
                out = nxt[used | bit]
                for tag, pre in sums:  # pre[i]: the sum over the last values below i
                    out[tag or stamp][v] += (
                        (pre[v] << below * width)
                        + (pre[v + 2] - pre[v + 1] << next_up * width)
                        + (pre[-1] - pre[v + 2] << above * width)
                    )
        layer = nxt
    ends = ((tag, by_last) for rows in layer.values() for tag, by_last in rows.items())
    return {(tag, last): poly for tag, by_last in ends for last, poly in enumerate(by_last) if poly}


VARIANTS = ("W", "Wless", "Wgreater", "Wequal", "Wneq", "Wtilde", "Wtildeneq", "XC")
ROOT_FAMILIES = ("Ades", "Aless", "Atilde")

F_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde")
# variant -> the variant whose F expansion, with t^e read as t^(n-1-e), is its own
F_REVERSED = {"Wgreater": "Wless"}

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
        return cls(n, tuple((e, S, c) for (e, S), c in sorted(counts.items()) if c))

    def to_table(self, k: int) -> symfun.QsymTable:
        """The expansion over k variables, by the M_alpha rule (Gessel 1984;
        Stanley, EC2 7.19): in the weakly decreasing convention, F_{n,S} has
        coefficient [S within the cuts of alpha] at a composition alpha, the
        cuts being the partial sums of alpha read from its last part.  So the
        coefficient at alpha is a subset sum at its cut set."""
        from . import combinat, symfun  # here, so that importing walks loads neither

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
                coeffs[alpha] = LaurentPoly(packed_coeffs(packed, width))
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
def _f_walk(n: int) -> dict[tuple[str, int], int]:
    """``perm_walk`` over tau = sigma^-1 with slot S_bits * (n + 1) +
    des(sigma).  Appending v to tau is a descent of sigma at v when v + 1
    is placed; a drop of two or more from the last value puts p - 1 into
    S.  Placing n fixes sigma's endpoint class ('<' if 1 is placed, '=' if
    n = 1, else '>'), which the step stamps."""

    def step(p: int, used: int, v: int) -> tuple[int, int, int, str | int]:
        e = used >> v & 1
        cls = ("=" if n == 1 else "<" if used & 1 else ">") if v == n else 0
        return e, e, ((n + 1) << max(p - 2, 0)) + e, cls  # p = 1 has no drop

    return perm_walk(n, math.factorial(n).bit_length(), step)


@lru_cache(maxsize=None)
def f_expansion(variant: str, n: int) -> FExpansion:
    """Fundamental quasisymmetric expansion of the omega image, as a sum
    over permutations weighted by descent or cyclic descent: the classes
    of the stamped walk (``_f_walk``) that the variant keeps, summed by
    ``endpoint_sum``.  Reversing sigma swaps '<' and '>', sends des to
    n - 1 - des and turns the drops of sigma^-1 into its rises, which no
    step class reads, so Wgreater is Wless with t^e read as t^(n-1-e)
    (``F_REVERSED``).
    """
    if variant not in F_VARIANTS:
        raise ValueError(f"no fundamental expansion for {variant!r}")
    check_limit("n", n)
    source = F_REVERSED.get(variant, variant)
    width = math.factorial(n).bit_length()  # no coefficient exceeds n!
    by_class = ((cls, poly) for (cls, _), poly in _f_walk(n).items())
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for slot, c in packed_coeffs(endpoint_sum(source, by_class, width), width).items():
        bits, e = divmod(slot, n + 1)
        e = n - 1 - e if source != variant else e
        counts[(e, tuple(i + 1 for i in range(n - 1) if bits >> i & 1))] = c
    return FExpansion.from_counts(n, counts)


@lru_cache(maxsize=None)
def _q_walk(n: int, rule: str, keep_first: bool) -> tuple[int, dict[tuple[int, int], int]]:
    """(width, ``perm_walk`` over sigma packed ``width`` bits per slot) with
    q_eulerian's step rule for ``rule``: "majexc" (slot maj * (n + 1) + exc)
    or "des" (slot q-weight * (n + 1) + des), stamping the first value if
    ``keep_first``.  Cached, so Aless and Atilde, whose rule is "des" and
    which both keep the first value, share one walk per n."""
    cols = n + 1
    width = math.factorial(n).bit_length()  # no coefficient exceeds n!

    def step(p: int, used: int, v: int) -> tuple[int, int, int, int]:
        first = v * keep_first
        if rule == "majexc":
            exc = int(v > p)
            return exc, (p - 1) * cols + exc, (p - 1) * cols + exc, first
        q = v * cols * (used >> v & 1)
        return q, 1, q + 1, first

    return width, perm_walk(n, width, step)


@lru_cache(maxsize=None)
def q_eulerian(kind: str, n: int) -> QtPoly:
    """The q-Eulerian polynomials and their endpoint/cyclic variations.

    Amajexc weights by q^(maj-exc) t^exc.  The others weight t by des or
    cdes and q by the sum of the positions where the inverse permutation
    drops by at least two; that statistic, rather than the rising-gap sum,
    is the one compatible with the principal specialization (the rising-gap
    reading is kept available through ``verify.qexp.q_statistic_diagnostic``).

    A walk over sigma itself (``_q_walk``), independent of the walk over
    sigma^-1 in ``f_expansion``.  Appending v at position p after ``last``
    is a descent when last > v, adds v to the q-weight when v + 1 is
    already placed but not just before v, and for Amajexc adds p - 1 to maj
    on a descent and 1 to exc when v > p.  The endpoint rule of the kind's
    variant (``endpoint_sum``) is applied to the complete permutations, so
    Aless and Atilde read one walk that keeps the first value; W's rule
    keeps every class with no t, so Ades and Amajexc need not.
    At n = 0 the one empty walk has class '=', which Aless leaves out.
    """
    if kind not in Q_EULERIAN_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    check_limit("n", n, lo=0)
    variant, rule = Q_RULES[kind]
    width, walk = _q_walk(n, rule, variant != "W")
    ends = ((endpoint_class(first, last), poly) for (first, last), poly in walk.items())
    total = endpoint_sum(variant, ends, width)
    cols = n + 1
    out: dict[int, dict[int, int]] = {}
    for slot, c in packed_coeffs(total, width).items():
        a, b = divmod(slot, cols)
        qe, te = (a - b, b) if rule == "majexc" else (a, b)
        out.setdefault(qe, {})[te] = c
    return QtPoly({qe: LaurentPoly(poly) for qe, poly in out.items()})


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
