"""Combinatorial oracles.

Smirnov words (no adjacent equal letters) with descent statistics, proper
colorings of labeled graphs and digraphs, permutation statistics, fundamental
quasisymmetric functions in the weakly-decreasing convention, and their two
specializations.  The closed forms elsewhere are verified against these
tables.

The two word and coloring enumerators, ``brute_enumerator`` and
``chromatic_qsym``, count by the transfer-matrix method (Stanley, EC1 4.7):
a DP over prefixes that keeps only what the remaining letters or vertices can
still see.  ``perm_walk`` is the same method for permutations, with states
(used values, last value, first value); ``enumerators.f_expansion`` and
``enumerators.q_eulerian`` run it with their own step rules.  Everything else
here enumerates objects one at a time, and so do the public
``smirnov_words``, ``word_stats``, ``permutations_of``, ``perm_stats`` and
``inverse_perm``.  The trust chain is therefore closed form <-> DP, checked
by ``verify`` and the acceptance tests, and DP <-> per-object enumeration
(words, colorings, permutations), checked by the unit tests at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence

from .exact import LaurentPoly, QtPoly
from .symfun import MonomialTable

Word = tuple[int, ...]

WORD_CLASSES = ("all", "<", ">", "=", "!=")


def _endpoint_class(first: int, last: int) -> str:
    if first < last:
        return "<"
    if first > last:
        return ">"
    return "="


def _passes(class_filter: str, first: int, last: int) -> bool:
    cls = _endpoint_class(first, last)
    return class_filter == "all" or class_filter == cls or (class_filter == "!=" and cls != "=")


def _packed_table(k: int, base: int, width: int, packed: dict[int, int]) -> MonomialTable:
    """Unpack a DP result into a monomial table.

    Keys are contents packed in base ``base`` (x_1 in the lowest digit);
    values are polynomials in t with nonnegative coefficients packed
    ``width`` bits per power of t (t^0 in the lowest bits).  Adding two
    packed polynomials is int addition and multiplying by t^d is a left
    shift by d * width, exact as long as no coefficient reaches 2^width.
    """
    terms = {}
    for code, poly in packed.items():
        vec = []
        for _ in range(k):
            code, e = divmod(code, base)
            vec.append(e)
        terms[tuple(vec)] = LaurentPoly(packed_coeffs(poly, width))
    return MonomialTable(k, terms)


def packed_coeffs(poly: int, width: int) -> dict[int, int]:
    """The nonzero coefficients of a polynomial packed ``width`` bits per
    slot, keyed by slot (slot 0 in the lowest bits)."""
    mask = (1 << width) - 1
    coeffs = {}
    slot = 0
    while poly:
        if poly & mask:
            coeffs[slot] = poly & mask
        poly >>= width
        slot += 1
    return coeffs


def smirnov_words(n: int, k: int, class_filter: str = "all") -> Iterator[Word]:
    """Stream the Smirnov words of length n over the alphabet 1..k whose
    first/last letters satisfy the class filter."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if class_filter not in WORD_CLASSES:
        raise ValueError(f"unknown class filter {class_filter!r}")
    word = [0] * n

    def extend(i: int) -> Iterator[Word]:
        for c in range(1, k + 1):
            if i and c == word[i - 1]:
                continue
            word[i] = c
            if i == n - 1:
                if _passes(class_filter, word[0], c):
                    yield tuple(word)
            else:
                yield from extend(i + 1)

    return extend(0)


@dataclass(frozen=True)
class WordStats:
    des: int
    asc: int
    cdes: int
    endpoint: str  # '<', '>', or '='


def word_stats(w: Sequence[int]) -> WordStats:
    """Descent, ascent, and cyclic descent counts of a word.

    The cyclic descent count adds the wraparound comparison of the last
    letter against the first.

    >>> word_stats((1, 2, 1))
    WordStats(des=1, asc=1, cdes=1, endpoint='=')
    >>> word_stats((1, 2))
    WordStats(des=0, asc=1, cdes=1, endpoint='<')
    """
    if not w:
        raise ValueError("word must be nonempty")
    des = sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    asc = sum(1 for i in range(len(w) - 1) if w[i] < w[i + 1])
    cdes = des + (1 if w[-1] > w[0] else 0)
    return WordStats(des, asc, cdes, _endpoint_class(w[0], w[-1]))


# variant tag -> (endpoint class filter, statistic)
VARIANT_RULES = {
    "W": ("all", "des"),
    "Wless": ("<", "des"),
    "Wgreater": (">", "des"),
    "Wequal": ("=", "des"),
    "Wneq": ("!=", "des"),
    "Wtilde": ("all", "cdes"),
    "Wtildeneq": ("!=", "cdes"),
}


def brute_enumerator(variant: str, n: int, k: int) -> MonomialTable:
    """Sum of t^stat(w) x_w over the filtered Smirnov words, as a monomial
    table over k variables.

    A prefix DP over the states (first letter, last letter, content), each
    carrying the descent polynomial of the prefixes that reach it.  Each step
    appends a letter other than the last one, with a descent when it is
    smaller.  The endpoint filter, and for the cyclic statistic the wrap
    descent last > first, are applied once all n letters are placed.
    """
    if variant not in VARIANT_RULES:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    class_filter, stat = VARIANT_RULES[variant]
    base = n + 1
    unit = [base**c for c in range(k)]
    width = (k**n).bit_length()  # no coefficient exceeds k^n, the number of words
    moves = [[(c, unit[c], c < last) for c in range(k) if c != last] for last in range(k)]
    layer = {(c, c, unit[c]): 1 for c in range(k)}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int, int], int] = {}
        for (first, last, code), poly in layer.items():
            down = poly << width
            for c, step, descent in moves[last]:
                key = (first, c, code + step)
                nxt[key] = nxt.get(key, 0) + (down if descent else poly)
        layer = nxt
    totals: dict[int, int] = {}
    for (first, last, code), poly in layer.items():
        if _passes(class_filter, first, last):
            if stat == "cdes" and last > first:
                poly <<= width
            totals[code] = totals.get(code, 0) + poly
    return _packed_table(k, base, width, totals)


@dataclass(frozen=True)
class Digraph:
    """A loopless digraph on vertices 1..n, edges with multiplicity.

    In labeled (undirected) mode edges are stored oriented from the smaller
    vertex to the larger one, which makes the descent count of a coloring the
    same expression in both modes.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = True

    def __post_init__(self):
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError("edge endpoint out of range")
            if not self.directed and i > j:
                raise ValueError("labeled edges must be stored small to large")

    @staticmethod
    def path(n: int) -> "Digraph":
        return Digraph(n, tuple((i, i + 1) for i in range(1, n)), directed=False)

    @staticmethod
    def cycle(n: int) -> "Digraph":
        """Labeled cycle; for n = 2 the wraparound edge is kept as a parallel
        edge so the coloring enumerator matches the generating function."""
        if n < 2:
            raise ValueError("cycles need at least two vertices")
        return Digraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),), directed=False)

    @staticmethod
    def directed_cycle(n: int) -> "Digraph":
        if n < 2:
            raise ValueError("directed cycles need at least two vertices")
        return Digraph(n, tuple((i, i + 1) for i in range(1, n)) + ((n, 1),), directed=True)


def chromatic_qsym(g: Digraph, k: int) -> MonomialTable:
    """Proper-coloring enumerator weighted by t^des over colors 1..k.

    des counts the stored edges (i, j) with kappa(i) > kappa(j), which in
    labeled mode means pairs {i, j} with i < j and kappa(i) > kappa(j).

    A frontier DP that colors vertices 1..n in order.  A state is the content
    so far plus the colors of the frontier: the colored vertices that still
    have an uncolored neighbour.  Each edge is checked, and its descent
    counted, when its later endpoint gets a color.
    """
    if k < 1:
        raise ValueError("need at least one color")
    n = g.n
    base = n + 1
    unit = [base**c for c in range(k)]
    width = (k**n).bit_length()  # no coefficient exceeds k^n, the number of colorings
    back: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    reach = list(range(n + 1))  # largest neighbour of each vertex, or itself
    for i, j in g.edges:
        a, b = min(i, j), max(i, j)
        back[b].append((a, i == a))  # the edge descends when kappa(i) > kappa(j)
        reach[a] = max(reach[a], b)
    frontier: list[int] = []
    layer = {(0, ()): 1}
    for v in range(1, n + 1):
        checks = [(frontier.index(a), a_first) for a, a_first in back[v]]
        grown = frontier + [v]
        kept = [i for i, u in enumerate(grown) if reach[u] > v]
        moves: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = {}
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        for (code, colors), poly in layer.items():
            if colors not in moves:
                options = []
                for c in range(k):
                    des = 0
                    for pos, a_first in checks:
                        if colors[pos] == c:
                            break
                        des += colors[pos] > c if a_first else c > colors[pos]
                    else:
                        ext = colors + (c,)
                        options.append((unit[c], des * width, tuple(ext[i] for i in kept)))
                moves[colors] = options
            for step, shift, after in moves[colors]:
                key = (code + step, after)
                nxt[key] = nxt.get(key, 0) + (poly << shift)
        layer = nxt
        frontier = [grown[i] for i in kept]
    return _packed_table(k, base, width, {code: poly for (code, _), poly in layer.items()})


Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermStats:
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


def perm_walk(
    n: int, width: int, step: Callable[[int, int, int, int], int | None], keep_first: bool = False
) -> dict[tuple[int, int], int]:
    """Prefix DP over the permutations of 1..n in one-line notation.

    A state is (the values used so far, value v at bit v - 1; the last
    value; the first value, or 0 unless ``keep_first``) and carries one
    polynomial packed ``width`` bits per slot, as in ``_packed_table``.
    ``step(p, used, last, v)`` decides everything about appending v at
    position p from that state (``last`` is 0 when p = 1): it returns how
    many slots the append moves a polynomial up, or None to forbid it.  The
    result maps (first, last) of the complete permutations to their sum.
    """
    layer = {(0, 0, 0): 1}
    for p in range(1, n + 1):
        nxt: dict[tuple[int, int, int], int] = {}
        for (used, last, first), poly in layer.items():
            for v in range(1, n + 1):
                if used >> (v - 1) & 1:
                    continue
                slots = step(p, used, last, v)
                if slots is None:
                    continue
                key = (used | 1 << (v - 1), v, v if p == 1 and keep_first else first)
                nxt[key] = nxt.get(key, 0) + (poly << slots * width)
        layer = nxt
    return {(first, last): poly for (_, last, first), poly in layer.items()}


def fundamental_F(n: int, S: Iterable[int], k: int) -> MonomialTable:
    """Fundamental quasisymmetric function over k variables: the sum of x_f
    over weakly decreasing f: [n] -> [k] that drop strictly at every position
    in S.

    >>> sorted(fundamental_F(3, {1}, 2).terms)
    [(2, 1)]
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
    return MonomialTable(k, {vec: LaurentPoly({0: c}) for vec, c in counts.items()})


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
