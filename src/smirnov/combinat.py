"""Combinatorial oracles.

Smirnov words (no adjacent equal letters) with descent statistics and
proper colorings of the path and of the labeled and directed cycles.  The
closed forms elsewhere are verified against these tables.

The word and coloring enumerators are quasisymmetric, so each is a
``QsymTable``: ``brute_enumerator`` reads the coefficient of each
composition of n from one insertion DP per n shared by all seven variants
(``_insertion_ends``: each letter's copies go into the gaps of the word so
far, in the insertion argument behind Carlitz-Scoville-Vaughan counts)
under the endpoint table ``ENDPOINT_RULES``, and ``ring_colorings`` the
colorings of the path, the labeled cycle and the directed cycle at every n
from one transfer-matrix walk (Stanley, EC1 4.7) along the path with the
colors standardised to ranks.  The endpoint table, ``endpoint_sum`` and
``packed_coeffs`` live in ``walks`` and are bound here too.  The per-object
enumerations ``perm_stats`` and ``fundamental_F`` live in ``verify.qexp`` and
``verify.f``, the one suite that reads each.
The word by word enumeration, a prefix word DP over (first, last, content),
the general digraph coloring DPs (by ranks and by content vector) and the
table by exponent vectors they are compared as are reference modules of the
tests.  The trust chain is closed form <-> DP or M_alpha rule
(``walks.FExpansion.to_table``), compared at the compositions by
``verify`` and the acceptance tests, and DP or M_alpha rule <-> per-object
enumeration or reference DP, compared by the unit tests at small n.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import LaurentPoly
from . import symfun
from .walks import ENDPOINT_RULES, endpoint_sum, packed_coeffs


def compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """The compositions of n with at most k parts, one per cut set.

    >>> compositions(3, 2)
    [(3,), (1, 2), (2, 1)]
    """
    out = []
    for bits in range(1 << (n - 1)):
        if bits.bit_count() < k:
            cuts = [0] + [i for i in range(1, n) if bits >> (i - 1) & 1] + [n]
            out.append(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    return out


@lru_cache(maxsize=None)
def _gap_moves(m: int, d: int, b: int, c: int) -> tuple[tuple[int, int, str | None, int], ...]:
    """The ways to insert c copies of a new largest letter L into a word of
    length m with d descents and b equal adjacencies, as (descents, equal
    adjacencies, endpoint class or None if unchanged, ways).  The copies go
    in runs into g distinct gaps, C(c - 1, g - 1) ways, and each run adds
    its length - 1 equal pairs.  Between x > y a run keeps one descent,
    between x < y it adds one, between x = y it adds one and breaks the
    pair; in front (L..L x) it adds one, at the back (x L..L) none."""
    # each kind of gap: (how many, descents added, pairs broken, end bit)
    kinds = ((d, 0, 0, 0), (m - 1 - d - b, 1, 0, 0), (b, 1, 1, 0), (1, 1, 0, 1), (1, 0, 0, 2))
    partial = {(0, 0, 0, 0): 1}  # (gaps used, descents added, pairs broken, end bits) -> ways
    for count, des, broken, end in kinds:
        grown: dict[tuple[int, int, int, int], int] = {}
        for (g, x, y, e), ways in partial.items():
            for i in range(min(count, c - g) + 1):
                key = (g + i, x + i * des, y + i * broken, e | end if i else e)
                grown[key] = grown.get(key, 0) + ways * math.comb(count, i)
        partial = grown
    return tuple(
        (d + x, b - y + c - g, (None, ">", "<", "=")[e], ways * math.comb(c - 1, g - 1))
        for (g, x, y, e), ways in partial.items() if g
    )


@lru_cache(maxsize=None)
def _insertion_ends(n: int) -> tuple[int, dict[tuple[int, ...], dict[str, int]]]:
    """(width, alpha -> endpoint class -> descent polynomial packed ``width``
    bits per power of t) of the Smirnov words of length n with content
    exactly alpha, for every composition alpha of n that has such words.

    The copies of letters 1, 2, ... are inserted in turn (``_gap_moves``),
    equal neighbours allowed until a larger letter separates them.  A state
    (descents, equal adjacencies, endpoint class) counts words.  A DFS over
    the compositions shares each prefix's states and drops those with more
    equal pairs than letters to come, so at the end every word is Smirnov.
    """
    width = math.factorial(n).bit_length()  # no coefficient exceeds n!
    ends: dict[tuple[int, ...], dict[str, int]] = {}

    def extend(alpha: tuple[int, ...], m: int, layer: dict[tuple[int, int, str], int]) -> None:
        if m == n:
            by_class = ends[alpha] = {}
            for (d, _, cls), count in layer.items():
                by_class[cls] = by_class.get(cls, 0) + (count << d * width)
            return
        for c in range(1, n - m + 1):
            left = n - m - c
            nxt: dict[tuple[int, int, str], int] = {}
            for (d, b, cls), count in layer.items():
                for d2, b2, moved, ways in _gap_moves(m, d, b, c):
                    if b2 <= left:
                        key = (d2, b2, moved or cls)
                        nxt[key] = nxt.get(key, 0) + count * ways
            if nxt:
                extend(alpha + (c,), m + c, nxt)

    for c in range(1, (n + 1) // 2 + 1):  # c copies of letter 1: c - 1 equal pairs
        extend((c,), c, {(0, c - 1, "="): 1})
    return width, ends


@lru_cache(maxsize=None)
def brute_enumerator(variant: str, n: int, k: int) -> symfun.QsymTable:
    """Sum of t^stat(w) x_w over the filtered Smirnov words over k letters.

    Relabelling letters in increasing order keeps adjacency, descents, the
    endpoint class and the wrap descent, so the enumerator is
    quasisymmetric, and its coefficient at each composition of n with at
    most k parts is read from the insertion DP at k = n
    (``_insertion_ends``) by the variant's endpoint rule (``endpoint_sum``).
    Cached, so the power sum and counting suites share their tables.
    """
    if variant not in ENDPOINT_RULES:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    width, ends = _insertion_ends(n)
    coeffs = {
        alpha: LaurentPoly(packed_coeffs(endpoint_sum(variant, by_class.items(), width), width))
        for alpha, by_class in ends.items() if len(alpha) <= k
    }
    return symfun.QsymTable(k)._like(coeffs)  # drops the zero coefficients


def ring_colorings(max_n: int, k: int) -> dict[tuple[str, int], symfun.QsymTable]:
    """Proper-coloring enumerators over colors 1..k weighted by t^des, of the
    path 1 - 2 - ... - n for n <= max_n and, for n >= 2, of the labeled and
    the directed cycle on 1..n, keyed ("path", n), ("cycle", n) and
    ("directed_cycle", n).  A path edge {i, i + 1} descends when
    kappa(i) > kappa(i + 1), the cycle's edge {1, n} (at n = 2 a parallel
    edge, kept) when kappa(1) > kappa(n), and the arc n -> 1 when
    kappa(n) > kappa(1); each sees only the order of the colors, so each
    table is quasisymmetric (Shareshian-Wachs 2016; Ellzey 2017).

    One walk colors the path with the colors standardised to ranks (Stanley,
    EC1 4.7).  A state is (content by rank, rank of vertex 1, rank of the
    last vertex).  Vertex m takes a rank other than the last one's or, while
    fewer than k ranks are in use, a new color in one of the l + 1 gaps
    around the l ranks, which lifts every rank at or above it.  After vertex
    m the states summed by content are path(m); those whose two ranks
    differ, with the closing edge's descent, are the two cycles.
    """
    if k < 1:
        raise ValueError("need at least one color")
    width = math.factorial(max_n).bit_length()  # no coefficient exceeds n!
    zero = symfun.QsymTable(k)
    tables: dict[tuple[str, int], symfun.QsymTable] = {}
    layer: dict[tuple[tuple[int, ...], int, int], int] = {((1,), 0, 0): 1}
    for m in range(1, max_n + 1):
        if m > 1:
            nxt: dict[tuple[tuple[int, ...], int, int], int] = {}
            for (content, first, last), poly in layer.items():
                ell = len(content)
                for r in range(ell):  # an old color: a descent when last > r
                    if r != last:
                        key = (content[:r] + (content[r] + 1,) + content[r + 1 :], first, r)
                        nxt[key] = nxt.get(key, 0) + (poly << width if last > r else poly)
                if ell < k:  # a new color in gap g: a descent when last >= g
                    for g in range(ell + 1):
                        key = (content[:g] + (1,) + content[g:], first + (first >= g), g)
                        nxt[key] = nxt.get(key, 0) + (poly << width if last >= g else poly)
            layer = nxt
        path, cycle, directed = {}, {}, {}  # content -> packed polynomial
        for (content, first, last), poly in layer.items():
            path[content] = path.get(content, 0) + poly
            if first != last:  # the closing edge {1, m} descends one way, the arc m -> 1 the other
                up, down = (poly << width, poly) if first > last else (poly, poly << width)
                cycle[content] = cycle.get(content, 0) + up
                directed[content] = directed.get(content, 0) + down
        families = (("path", path), ("cycle", cycle), ("directed_cycle", directed))
        for family, by_content in families if m > 1 else families[:1]:
            tables[family, m] = zero._like(
                {alpha: LaurentPoly(packed_coeffs(p, width)) for alpha, p in by_content.items()}
            )
    return tables
