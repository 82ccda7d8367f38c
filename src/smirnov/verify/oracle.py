"""The oracle suite: the closed forms against the word and coloring oracles,
and the oracles against each other."""

from __future__ import annotations

from .. import combinat, enumerators as en
from ..exact import T
from ..symfun import QsymTable, expand_at_compositions
from . import _record


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
