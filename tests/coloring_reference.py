"""Reference coloring DPs for the tests.

The library counts the colorings of the path, the labeled cycle and the
directed cycle with ``smirnov.combinat.ring_colorings``, one walk along the
path over colors standardised to ranks that serves every n.  This module
keeps two general DPs for any digraph: ``chromatic_qsym``, a frontier DP
over ranks that reads the coefficients at compositions, and
``colorings_by_content``, which colors the same frontier with the actual
colors 1..k and keeps the whole content vector, so it writes the k-variable
table with no appeal to quasisymmetry.  The unit tests check the walk
against both, and the two against each other on random digraphs.
"""

import math
from collections import namedtuple

from smirnov.combinat import packed_coeffs
from smirnov.exact import LaurentPoly
from smirnov.symfun import QsymTable
from monomial_reference import MonomialTable


class Digraph(namedtuple("Digraph", ("n", "edges", "directed"))):
    """A loopless digraph on vertices 1..n, edges with multiplicity.

    In labeled (undirected) mode edges are stored oriented from the smaller
    vertex to the larger one, which makes the descent count of a coloring the
    same expression in both modes.  Immutable and hashable, with equality by
    its fields.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple[tuple[int, int], ...], directed: bool = True):
        for i, j in edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("edge endpoint out of range")
            if not directed and i > j:
                raise ValueError("labeled edges must be stored small to large")
        return super().__new__(cls, n, edges, directed)

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


def chromatic_qsym(g: Digraph, k: int) -> QsymTable:
    """Proper-coloring enumerator weighted by t^des over colors 1..k.

    des counts the stored edges (i, j) with kappa(i) > kappa(j), which in
    labeled mode means pairs {i, j} with i < j and kappa(i) > kappa(j).
    Both see only the relative order of the colors, so the enumerator is
    quasisymmetric (Shareshian-Wachs 2016; Ellzey 2017).

    A frontier DP that colors vertices 1..n in order, the colors so far
    standardised to ranks.  A state is the content by rank plus the ranks of
    the frontier: the colored vertices that still have an uncolored
    neighbour.  A vertex takes a rank, or a new color in one of the l + 1
    gaps around the l ranks, which lifts the ranks above it; states with
    more than k ranks are dropped.  Each edge is checked, and its descent
    counted, when its later endpoint gets a color.
    """
    if k < 1:
        raise ValueError("need at least one color")
    n = g.n
    width = math.factorial(n).bit_length()  # no coefficient exceeds n!
    back: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    reach = list(range(n + 1))  # largest neighbour of each vertex, or itself
    for i, j in g.edges:
        a, b = min(i, j), max(i, j)
        back[b].append((a, i == a))  # the edge descends when kappa(i) > kappa(j)
        reach[a] = max(reach[a], b)
    frontier: list[int] = []
    layer: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {((), ()): 1}
    for v in range(1, n + 1):
        checks = [(frontier.index(a), a_first) for a, a_first in back[v]]
        grown = frontier + [v]
        kept = [i for i, u in enumerate(grown) if reach[u] > v]
        moves: dict[tuple[int, tuple[int, ...]], list[tuple[int, int, tuple[int, ...]]]] = {}
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (content, ranks), poly in layer.items():
            ell = len(content)
            if (ell, ranks) not in moves:
                # slot s is rank s // 2 if s is odd, a new color in gap s // 2
                # if even; with k ranks in use, only the odd slots are left
                options = []
                for s in range(2 * ell + 1) if ell < k else range(1, 2 * ell, 2):
                    des = 0
                    for pos, a_first in checks:
                        slot = 2 * ranks[pos] + 1
                        if slot == s:
                            break
                        des += slot > s if a_first else s > slot
                    else:
                        r = s // 2
                        ext = tuple(q + (q >= r and s % 2 == 0) for q in ranks) + (r,)
                        options.append((s, des * width, tuple(ext[i] for i in kept)))
                moves[ell, ranks] = options
            for s, shift, after in moves[ell, ranks]:
                r, old = s // 2, s % 2
                key = (content[:r] + (content[r] + 1 if old else 1,) + content[r + old :], after)
                nxt[key] = nxt.get(key, 0) + (poly << shift)
        layer = nxt
        frontier = [grown[i] for i in kept]
    # the frontier ends empty, so each content is one state
    coeffs = {alpha: LaurentPoly(packed_coeffs(p, width)) for (alpha, _), p in layer.items()}
    return QsymTable(k)._like(coeffs)


def colorings_by_content(g: Digraph, k: int) -> MonomialTable:
    """Proper-coloring enumerator weighted by t^des over colors 1..k.

    des counts the stored edges (i, j) with kappa(i) > kappa(j).  A frontier
    DP that colors vertices 1..n in order.  A state is the content so far,
    packed in base n + 1, plus the colors of the frontier: the colored
    vertices that still have an uncolored neighbour.  Each edge is checked,
    and its descent counted, when its later endpoint gets a color.
    """
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
    return MonomialTable(k, {
        tuple(code // u % base for u in unit): LaurentPoly(packed_coeffs(poly, width))
        for (code, _), poly in layer.items()
    })
