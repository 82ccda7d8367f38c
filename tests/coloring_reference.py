"""Content-vector frontier DP for proper colorings, for the tests.

The library counts colorings with ``smirnov.combinat.chromatic_qsym``, a
frontier DP over colors standardised to ranks that reads the coefficients at
compositions.  This DP colors the same frontier with the actual colors 1..k
and keeps the whole content vector, so it writes the k-variable table with
no appeal to quasisymmetry; the unit tests check the rank DP against it.
"""

from smirnov.combinat import Digraph, packed_coeffs
from smirnov.exact import LaurentPoly
from monomial_reference import MonomialTable


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
