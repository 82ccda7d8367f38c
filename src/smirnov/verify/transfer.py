"""The transfer suite: the walk determinant and the distinguished element,
monomial by monomial, e_j being the sum of its squarefree monomials."""

from __future__ import annotations

from itertools import combinations, permutations

from .. import enumerators as en
from ..exact import ZERO, LaurentPoly
from . import _record


def suite_transfer() -> list[dict]:
    records = []
    for k in range(2, 6):
        records.append(_record("transfer-determinant", {"k": k}, transfer_matrix_check(k), True))
    for k in range(1, 7):
        for j in range(0, 6):
            ok = distinguished_element_check(j, k)
            records.append(_record("distinguished-element", {"j": j, "k": k}, ok, True))
    return records


def transfer_matrix_check(k: int) -> bool:
    """det(I - zA) = 1 - sum over j >= 2 of e_j(x_1..x_k) t[j-1]_t z^j.

    A is the walk matrix of the complete loopless digraph on 1..k: the edge
    i -> j carries x_j, times t when it descends (i > j).  Every off-diagonal
    entry of I - zA is the single monomial -x_j (times t) z, so each term of
    the Leibniz sum is one monomial whose z-power is its total x-degree, and
    the full determinant's equality implies that of every truncation in z.
    The sides are compared monomial by monomial, e_j as the sum of its
    squarefree monomials.
    """
    en.check_limit("transfer_k", k)
    det: dict[tuple[int, ...], LaurentPoly] = {}
    for sigma in permutations(range(k)):
        moved = [i for i in range(k) if sigma[i] != i]
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        vec = tuple(int(sigma[i] != i) for i in range(k))
        term = LaurentPoly.t_power(
            sum(i > sigma[i] for i in moved), (-1) ** (inversions + len(moved))
        )
        det[vec] = det.get(vec, ZERO) + term
    weights = {j: w for j in range(k + 1) if (w := en.denominator_weight(j))}
    expected = {vec: w for j, w in weights.items() for vec in _squarefree(k, j)}
    return {vec: c for vec, c in det.items() if c} == expected


def _squarefree(k: int, j: int) -> list[tuple[int, ...]]:
    """The monomials of e_j(x_1..x_k): the 0-1 exponent vectors with j ones."""
    return [tuple(int(i in ones) for i in range(k)) for ones in combinations(range(k), j)]


def distinguished_element_check(j: int, k: int) -> bool:
    """sum_i x_i e_j(x with x_i removed) = (j+1) e_{j+1}(x_1..x_k), monomial
    by monomial."""
    if j < 0 or k < 1:
        raise ValueError("need j >= 0 and k >= 1")
    lhs: dict[tuple[int, ...], int] = {}
    for i in range(k):
        for subset in combinations([v for v in range(k) if v != i], j):
            vec = tuple(int(v == i or v in subset) for v in range(k))
            lhs[vec] = lhs.get(vec, 0) + 1
    return lhs == dict.fromkeys(_squarefree(k, j + 1), j + 1)
