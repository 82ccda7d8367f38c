"""Partitions, symmetric functions, k-variable tables, and graded series.

A partition is a plain tuple of weakly decreasing positive integers.  A
``SymFun`` is a homogeneous formal combination of partition-indexed basis
elements (elementary ``e``, complete homogeneous ``h``, power sum ``p``, or
``p/z``, the power sums over their centralizer orders) with ``LaurentPoly``
coefficients.  A ``QsymTable`` is a quasisymmetric polynomial in a fixed
finite number k of variables, such as an oracle's or a symmetric function's
expansion, held by its coefficients at the compositions with at most k
parts; the expansion is faithful as long as k is at least the degree.  Both
are ``exact.Combination`` subclasses: the shared core does their
arithmetic, and each says only how a key is checked (a partition of the
degree; a composition), what two values must share (basis and degree; the
variable count) and how two keys multiply (``merge``).  A ``SymSeries`` is
a graded sequence of ``SymFun`` values indexed by the power of a formal
variable z, all in the basis of its constant term; the grading and the
x-degree always coincide here.  ``SymSeries.mul`` forms products (no series
is divided: a quotient identity is checked as a product, by
``verify.series.product_equal_at_point`` at one integer point).

Power sums are kept in the ``p/z`` basis, against p_lam / z_lam, where
products have integer structure constants (Macdonald I.2): with m_i(lam) the
number of parts i of lam,

    (p_lam / z_lam)(p_mu / z_mu) = prod_i C(m_i(lam) + m_i(mu), m_i(lam))
                                   * p_(lam u mu) / z_(lam u mu).

So the complete homogeneous series is sum_lam p_lam / z_lam with every
coefficient 1, and the power sum identities run in integers.  No
coefficient is ever divided: every ``LaurentPoly`` holds ints.  A function
against p / z is not expanded into variables, where its values need not be
integral; n! times it is, written in plain p (c n! / z_lam at p_lam, an
integer since z_lam divides n!).

Both directions between a ``SymFun`` and a ``QsymTable`` go through the
monomial basis.  The coefficient of m_mu in e_lam, h_lam or p_lam is an
integer count of matrices with row sums lam and column sums mu (0-1 rows,
nonnegative rows, single-entry rows; Macdonald I.6), computed by one cached
DP over the parts of lam without building any k-variable table.  Expansion
sums these counts per mu and writes each at every rearrangement of mu;
conversion back is a triangular solve against the e counts, and doubles as a
symmetry certificate for the oracles' tables.  A ``QsymTable`` writes its
k-variable table, as JSON or text, by reading one cached row layout per
(vars, degree) at its compositions (``_layout``), with no sort, in a shape
that ``walks.LIMITS`` allows.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Callable, Mapping

from .exact import ONE, ZERO, Combination, LaurentPoly
from .walks import LIMITS

Partition = tuple[int, ...]


class NotSymmetricError(ValueError):
    """Raised when a monomial table is not a symmetric polynomial."""


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def extend(remaining: int, cap: int, prefix: Partition) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return tuple(out)


def is_partition(lam) -> bool:
    return all(type(p) is int and p >= 1 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def z_of(lam: Partition) -> int:
    """Centralizer order: product of i^m_i * m_i! over part sizes i.

    >>> z_of((2, 1))
    2
    >>> z_of((3, 3))
    18
    """
    out = 1
    for part in set(lam):
        m = lam.count(part)
        out *= part**m * math.factorial(m)
    return out


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def omega_sign(lam: Partition) -> int:
    """Sign picked up by a power sum under the e/h swap involution."""
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def merge(lam: Partition, mu: Partition) -> Partition:
    return tuple(sorted(lam + mu, reverse=True))


@lru_cache(maxsize=None)
def _product_key(lam: Partition, mu: Partition, basis: str) -> tuple[Partition, int]:
    """The partition of b_lam * b_mu and its integer structure constant: 1 in
    a multiplicative basis, and prod_i C(m_i(lam) + m_i(mu), m_i(mu)) against
    p / z, which is z_(lam u mu) / (z_lam * z_mu).

    >>> _product_key((2, 1), (1,), "p/z")
    ((2, 1, 1), 2)
    """
    mult = 1
    if basis == "p/z":
        for part in set(mu):
            m = mu.count(part)
            mult *= math.comb(lam.count(part) + m, m)
    return merge(lam, mu), mult


_BASES = ("e", "h", "p", "p/z")


class SymFun(Combination):
    """Homogeneous symmetric function with LaurentPoly coefficients.

    The basis ``p/z`` stores coefficients relative to p_lam / z_lam rather
    than p_lam.  Products stay in a common basis (e, h, plain p, or p/z with
    its binomial structure constants).
    """

    __slots__ = ("basis", "degree")

    def __init__(
        self,
        basis: str,
        degree: int,
        terms: Mapping[Partition, LaurentPoly | int] | None = None,
    ):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.degree = degree
        self._store(terms)

    def _key(self, lam) -> Partition:
        lam = tuple(lam)
        if not is_partition(lam):
            raise ValueError(f"not a partition: {lam!r}")
        if sum(lam) != self.degree:
            raise ValueError("terms must be homogeneous of the stated degree")
        return lam

    def _shape(self) -> tuple:
        return (self.basis, self.degree)

    def _copy_shape(self, out: "SymFun") -> None:
        out.basis, out.degree = self.basis, self.degree

    def _mul_key(self, lam: Partition, mu: Partition) -> tuple[Partition, int]:
        return _product_key(lam, mu, self.basis)

    def _product_shape(self, other: "SymFun") -> "SymFun":
        if self.basis != other.basis:
            raise ValueError("products require a common basis")
        return SymFun(self.basis, self.degree + other.degree)

    @classmethod
    def generator(cls, basis: str, n: int, c: LaurentPoly | int = 1) -> "SymFun":
        """c * e_n (or h_n, p_n); n = 0 gives the scalar c."""
        return cls(basis, n, {((n,) if n else ()): c})

    def omega(self) -> "SymFun":
        """The involution swapping e and h; on power sums it is a sign."""
        if self.basis == "e":
            return SymFun("h", self.degree, self.terms)
        if self.basis == "h":
            return SymFun("e", self.degree, self.terms)
        return self._like({l: c * omega_sign(l) for l, c in self.terms.items()})

    def valuation(self) -> int | None:
        vals = [c.valuation() for c in self.terms.values()]
        return min(vals) if vals else None

    def pretty(self) -> str:
        return _aligned(
            (f"{self.basis}[{','.join(map(str, lam))}]", self.terms[lam].pretty())
            for lam in partitions_of(self.degree)
            if lam in self.terms
        )

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [
                {"partition": list(lam), "coeff": self.terms[lam].to_json_obj()}
                for lam in partitions_of(self.degree)
                if lam in self.terms
            ],
        }

    def __repr__(self) -> str:
        return f"SymFun({self.basis}, deg={self.degree})"


class QsymTable(Combination):
    """A quasisymmetric polynomial in k variables by its coefficients at the
    compositions with at most k parts, each that of every monomial whose
    nonzero exponents read it in order."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple, LaurentPoly | int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self._store(terms)

    def _key(self, alpha) -> tuple:
        alpha = tuple(alpha)
        if len(alpha) > self.nvars or not all(type(a) is int and a > 0 for a in alpha):
            raise ValueError(f"bad composition {alpha!r}")
        return alpha

    def _shape(self) -> tuple:
        return (self.nvars,)

    def _copy_shape(self, out: "QsymTable") -> None:
        out.nvars = self.nvars

    def total_degree(self) -> int | None:
        degs = {sum(key) for key in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("table is not homogeneous")
        return degs.pop()

    # no library caller; perfbench/tracer.py counts words_kept as table.sum_coeffs().at_one()
    def sum_coeffs(self) -> LaurentPoly:
        """The value at all ones: alpha has C(k, l(alpha)) placements."""
        return sum((c * math.comb(self.nvars, len(a)) for a, c in self.terms.items()), ZERO)

    def _rows(self, encode: Callable[[LaurentPoly], object]) -> list[tuple[list[int], object]]:
        """(exponent list, encoded coefficient) for every exponent vector of
        the k-variable table, in descending order, each coefficient encoded
        once and shared by the rows that read it: the cached layout of its
        shape (``_layout``) read at its compositions if ``LIMITS`` allows the
        shape, or else the sorted placements of its own compositions."""
        coded = {alpha: encode(c) for alpha, c in self.terms.items()}
        degrees, k = {sum(alpha) for alpha in coded}, self.nvars
        if len(degrees) == 1 and k <= LIMITS["vars"] and max(degrees) <= LIMITS["n"]:
            rows = _layout(k, degrees.pop())
        else:
            rows = sorted(((vec, alpha) for alpha in coded for vec in _placements(alpha, k)), reverse=True)
        return [(vec, coded[alpha]) for vec, alpha in rows if alpha in coded]

    def to_json_obj(self) -> dict:
        """The k-variable table; its exponent lists are shared, not to be mutated."""
        rows = self._rows(LaurentPoly.to_json_obj)
        return {"vars": self.nvars, "terms": [{"exponents": vec, "coeff": c} for vec, c in rows]}

    def pretty(self) -> str:
        return _aligned(
            ("x^(" + ",".join(map(str, vec)) + ")", c) for vec, c in self._rows(LaurentPoly.pretty)
        )

    def __repr__(self) -> str:
        return f"QsymTable(vars={self.nvars}, terms={len(self.terms)})"


@lru_cache(maxsize=None)
def _layout(k: int, degree: int) -> tuple[tuple[list[int], tuple], ...]:
    """The rows of every k-variable table of that degree: each exponent
    vector, as a list read from k - 1 bars among degree + k - 1 places, with
    its composition (its nonzero exponents), in descending order."""
    rows = []
    for bars in reversed(list(combinations(range(degree + k - 1), k - 1))):
        vec = [b - a - 1 for a, b in zip((-1,) + bars, bars + (degree + k - 1,))]
        rows.append((vec, tuple(e for e in vec if e)))
    return tuple(rows)


def _placements(alpha: tuple, k: int):
    """Every exponent vector of k entries, as a list, that reads alpha."""
    for places in combinations(range(k), len(alpha)):
        yield [dict(zip(places, alpha)).get(i, 0) for i in range(k)]


def _aligned(rows) -> str:
    """(label, coefficient) rows, one a line, labels padded; "0" if none."""
    rows = list(rows)
    if not rows:
        return "0"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {poly}" for label, poly in rows)


@lru_cache(maxsize=None)
def _m_coeff(basis: str, lam: Partition, mu: Partition) -> int:
    """Coefficient of x^mu in b_lam for b in e, h, p, as a plain int.

    This counts the matrices with row sums lam and column sums mu whose rows
    are 0-1 vectors (e), nonnegative vectors (h) or a single column (p).
    The first row is chosen against the column sums, and what is left is
    the count for the remaining parts of lam against the sorted leftover
    column sums, since the count is symmetric in the columns.

    >>> _m_coeff("e", (2, 1), (1, 1, 1)), _m_coeff("h", (2, 1), (2, 1))
    (3, 2)
    """
    if not lam:
        return int(lam == mu)
    part, rest = lam[0], lam[1:]
    if basis == "p":
        leftovers = [mu[:j] + (c - part,) + mu[j + 1 :] for j, c in enumerate(mu) if c >= part]
    else:
        top = 1 if basis == "e" else part
        partial: list[tuple[Partition, int]] = [((), 0)]
        for cap in mu:
            partial = [
                (left + (cap - a,), taken + a)
                for left, taken in partial
                for a in range(min(top, cap, part - taken) + 1)
            ]
        leftovers = [left for left, taken in partial if taken == part]
    return sum(
        _m_coeff(basis, rest, tuple(sorted((c for c in left if c), reverse=True)))
        for left in leftovers
    )


@lru_cache(maxsize=None)
def _orbit(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Distinct rearrangements of values."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    out: list[tuple[int, ...]] = []
    vec: list[int] = []

    def place() -> None:
        if len(vec) == len(values):
            out.append(tuple(vec))
            return
        for v, left in counts.items():
            if left:
                counts[v] = left - 1
                vec.append(v)
                place()
                vec.pop()
                counts[v] = left

    place()
    return tuple(out)


def _m_sums(f: SymFun, k: int) -> dict[Partition, LaurentPoly]:
    """The nonzero coefficients of m_mu in f for the partitions mu with at
    most k parts: the sum of c_lam times ``_m_coeff(basis, lam, mu)``.  The
    basis is e, h or plain p; against p / z a value need not be integral."""
    if k < 1:
        raise ValueError("need at least one variable")
    if f.basis == "p/z":
        raise ValueError("p / z does not expand into variables; write n! times it in plain p")
    out: dict[Partition, LaurentPoly] = {}
    for mu in partitions_of(f.degree):
        if len(mu) > k:
            continue
        c = ZERO
        for lam, coeff in f.terms.items():
            mult = _m_coeff(f.basis, lam, mu)
            if mult:
                c = c + coeff * mult
        if c:
            out[mu] = c
    return out


def expand_at_compositions(f: SymFun, k: int) -> QsymTable:
    """Set all variables beyond the first k to zero, as a ``QsymTable``: each
    m_mu coefficient (``_m_sums``) is written at every rearrangement of mu.
    No k-variable table is multiplied.

    >>> expand_at_compositions(SymFun.generator("h", 2), 2).terms
    {(2,): LaurentPoly(1), (1, 1): LaurentPoly(1)}
    """
    terms = {alpha: c for mu, c in _m_sums(f, k).items() for alpha in _orbit(mu)}
    return QsymTable(k)._like(terms)


def orbit_size(mu: Partition) -> int:
    """Distinct rearrangements of mu."""
    size = math.factorial(len(mu))
    for v in set(mu):
        size //= math.factorial(mu.count(v))
    return size


@lru_cache(maxsize=None)
def _e_in_m(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """Monomial-basis coordinates of e_lam, from the e-transition counts."""
    return tuple(
        (mu, c) for mu in partitions_of(sum(lam)) if (c := _m_coeff("e", lam, mu))
    )


def monomial_to_e(table: QsymTable, n: int | None = None) -> SymFun:
    """Invert a monomial expansion into the elementary basis.

    The table must be a symmetric homogeneous polynomial of degree n in
    k >= n variables; otherwise ``NotSymmetricError`` (or ValueError for
    malformed input) is raised.  Every rearrangement of each partition must
    be present with one coefficient (every alpha has the one at sorted
    alpha), which gives the m-basis coordinates; these are peeled in
    lexicographic order against the m-basis coordinates of e_lam, read from
    the e-transition counts, so success certifies symmetry.
    """
    deg = table.total_degree()
    if n is None:
        n = deg if deg is not None else 0
    if deg is not None and deg != n:
        raise ValueError("table degree does not match n")
    if table.nvars < n:
        raise ValueError("need at least as many variables as the degree")
    if not table:
        return SymFun("e", n)

    orbit_coeff: dict[Partition, LaurentPoly] = {}
    orbit_count: dict[Partition, int] = {}
    for alpha, c in table.terms.items():
        mu = tuple(sorted(alpha, reverse=True))
        seen = orbit_coeff.get(mu)
        if seen is None:
            orbit_coeff[mu] = c
        elif seen != c:
            raise NotSymmetricError(f"orbit of {mu} has unequal coefficients")
        orbit_count[mu] = orbit_count.get(mu, 0) + 1
    for mu, count in orbit_count.items():
        if count != orbit_size(mu):
            raise NotSymmetricError(f"orbit of {mu} is incomplete")

    residual = dict(orbit_coeff)
    result: dict[Partition, LaurentPoly] = {}
    for mu in partitions_of(n):
        c = residual.get(mu)
        if not c:
            residual.pop(mu, None)
            continue
        lam = conjugate(mu)
        result[lam] = c
        for nu, mult in _e_in_m(lam):
            nc = residual.get(nu, ZERO) - c * mult
            if nc:
                residual[nu] = nc
            else:
                residual.pop(nu, None)
    if any(residual.values()):
        raise NotSymmetricError("residual does not vanish")
    return SymFun("e", n, result)


class SymSeries:
    """Graded z-series whose coefficient at z^n is homogeneous of degree n,
    all in the basis of its constant term."""

    __slots__ = ("basis", "order", "coeffs")

    def __init__(self, coeffs: list[SymFun]):
        if not coeffs:
            raise ValueError("a series needs a constant term")
        basis = coeffs[0].basis
        for n, f in enumerate(coeffs):
            if f.basis != basis or f.degree != n:
                raise ValueError("coefficient grading mismatch")
        self.basis = basis
        self.order = len(coeffs) - 1
        self.coeffs = list(coeffs)

    @classmethod
    def one(cls, basis: str, order: int) -> "SymSeries":
        return cls([SymFun.generator(basis, 0)] + [SymFun(basis, n) for n in range(1, order + 1)])

    @classmethod
    def from_weights(
        cls, order: int, weight: Callable[[int], LaurentPoly | int | None], basis: str = "e"
    ) -> "SymSeries":
        """Series sum_i w(i) * g_i z^i with g_i the degree-i generator."""
        return cls([SymFun.generator(basis, i, weight(i) or 0) for i in range(order + 1)])

    @classmethod
    def generating(cls, basis: str, order: int) -> "SymSeries":
        """E(z) or H(z): sum of degree-n generators."""
        return cls.from_weights(order, lambda i: ONE, basis)

    @classmethod
    def h_series_p(cls, order: int) -> "SymSeries":
        """The complete homogeneous series against p / z: h_n is the sum of
        p_lam / z_lam over the partitions of n, every coefficient 1."""
        return cls(
            [SymFun("p/z", n, dict.fromkeys(partitions_of(n), ONE)) for n in range(order + 1)]
        )

    def __getitem__(self, n: int) -> SymFun:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymSeries):
            return NotImplemented
        return self.coeffs == other.coeffs  # each SymFun compares its basis and degree

    __hash__ = None

    def _check_basis(self, other: "SymSeries") -> None:
        if self.basis != other.basis:
            raise ValueError("mismatched bases")

    def __add__(self, other: "SymSeries") -> "SymSeries":
        self._check_basis(other)
        if self.order != other.order:
            raise ValueError("mismatched series")
        return SymSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "SymSeries":
        return SymSeries([-a for a in self.coeffs])

    def __sub__(self, other: "SymSeries") -> "SymSeries":
        return self + (-other)

    def scale(self, c: LaurentPoly | int) -> "SymSeries":
        return SymSeries([a.scale(c) for a in self.coeffs])

    def grade_scale_t(self) -> "SymSeries":
        """z -> tz: the coefficient of z^n is multiplied by t^n."""
        return SymSeries([a.scale(LaurentPoly.t_power(n)) for n, a in enumerate(self.coeffs)])

    def dt(self) -> "SymSeries":
        """Coefficientwise d/dt."""
        return SymSeries([a.map_coeffs(lambda p: p.derivative()) for a in self.coeffs])

    def mul(self, other: "SymSeries") -> "SymSeries":
        """Graded product, to the smaller of the two orders."""
        self._check_basis(other)
        coeffs = []
        for n in range(min(self.order, other.order) + 1):
            acc = SymFun(self.basis, n)
            for j in range(n + 1):
                if self.coeffs[j] and other.coeffs[n - j]:
                    acc = acc + self.coeffs[j] * other.coeffs[n - j]
            coeffs.append(acc)
        return SymSeries(coeffs)
