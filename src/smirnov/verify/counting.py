"""The counting suite: descent counts of words over m letters against binomial
sums over permutations."""

from __future__ import annotations

import math

from .. import combinat, enumerators as en
from ..exact import ZERO, LaurentPoly
from . import _record

# word length n and alphabet size m, whatever LIMITS allows
COUNTING_N, COUNTING_M = 6, 5


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
