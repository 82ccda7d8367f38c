"""The k-variable table by exponent vectors, for the tests.

The library holds every k-variable table at compositions, as a
``smirnov.symfun.QsymTable``.  ``MonomialTable`` keeps one coefficient per
exponent vector, and ``expand_in_variables`` writes a symmetric function
over the orbit of each partition with no appeal to compositions, so the
tests can check the library's expansions, its writers and its oracles
against an independent table.  A ``QsymTable`` lifts into a
``MonomialTable`` at every placement of each composition, placed here
(``monomial_table``), so the two types compare with ``==`` in either order.
A ``MonomialTable`` writes its JSON and text by sorting its own vectors, so
it is a second writer next to the library's cached row layout.
"""

import math
from itertools import combinations
from typing import Mapping

from smirnov.exact import Combination, LaurentPoly
from smirnov.symfun import QsymTable, SymFun, _aligned, _m_sums, _orbit, z_of


class MonomialTable(Combination):
    """Map from length-k exponent vectors to LaurentPoly coefficients."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple, LaurentPoly | int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self._store(terms)

    def _key(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.nvars or any(e < 0 for e in vec):
            raise ValueError(f"bad exponent vector {vec!r}")
        return vec

    def _shape(self) -> tuple:
        return (self.nvars,)

    def _copy_shape(self, out: "MonomialTable") -> None:
        out.nvars = self.nvars

    def _lift(self, other):
        """A ``QsymTable`` as its ``MonomialTable``."""
        if isinstance(other, QsymTable):
            return monomial_table(other)
        return super()._lift(other)

    @staticmethod
    def _mul_key(v1: tuple, v2: tuple) -> tuple[tuple, int]:
        return tuple(a + b for a, b in zip(v1, v2)), 1

    @classmethod
    def zero(cls, nvars: int) -> "MonomialTable":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MonomialTable":
        return cls(nvars, {(0,) * nvars: 1})

    def to_json_obj(self) -> dict:
        return {
            "vars": self.nvars,
            "terms": [
                {"exponents": list(vec), "coeff": self.terms[vec].to_json_obj()}
                for vec in sorted(self.terms, reverse=True)
            ],
        }

    def pretty(self) -> str:
        return _aligned(
            ("x^(" + ",".join(map(str, vec)) + ")", self.terms[vec].pretty())
            for vec in sorted(self.terms, reverse=True)
        )

    def __repr__(self) -> str:
        return f"MonomialTable(vars={self.nvars}, terms={len(self.terms)})"


def placements(alpha: tuple, k: int) -> list[tuple]:
    """The length-k exponent vectors that read alpha: its parts in order in
    any len(alpha) of the k slots, zeros elsewhere."""
    out = []
    for slots in combinations(range(k), len(alpha)):
        vec = [0] * k
        for slot, part in zip(slots, alpha):
            vec[slot] = part
        out.append(tuple(vec))
    return out


def monomial_table(table: QsymTable) -> MonomialTable:
    """The coefficient at alpha written at every placement of alpha."""
    terms = {vec: c for alpha, c in table.terms.items() for vec in placements(alpha, table.nvars)}
    return MonomialTable.zero(table.nvars)._like(terms)


def expand_in_variables(f: SymFun, k: int) -> MonomialTable:
    """Set all variables beyond the first k to zero: each m_mu coefficient
    (``_m_sums``) is written at every rearrangement of mu padded to length
    k.  No k-variable table is multiplied.

    >>> expand_in_variables(SymFun.generator("e", 2), 2).terms
    {(1, 1): LaurentPoly(1)}
    """
    sums = _m_sums(f, k)  # every mu here has at most k parts
    terms = {vec: c for mu, c in sums.items() for vec in _orbit(mu + (0,) * (k - len(mu)))}
    return MonomialTable.zero(k)._like(terms)


def times_factorial_in_plain_p(f: SymFun) -> SymFun:
    """n! times f, held against p / z, in plain p: c n! / z_lam at p_lam,
    which expands into variables with integer values."""
    scale = math.factorial(f.degree)
    assert all(scale % z_of(lam) == 0 for lam in f.terms)
    return SymFun("p", f.degree, {lam: c * (scale // z_of(lam)) for lam, c in f.terms.items()})
