"""Exact coefficient arithmetic.

``LaurentPoly`` is a sparse Laurent polynomial in ``t`` with plain ``int``
coefficients; it keeps its own arithmetic, as the scalar ring and the hot
kernel.  Every enumerator here is integral, so no coefficient is ever a
fraction: the validating constructor rejects one with TypeError, and ``/``
divides by an int exactly or raises ValueError.  Results of arithmetic are
built by ``_canonical`` or ``_trusted``, not by the validating constructor.
``Combination`` is the one arithmetic core for finite sums of keyed
``LaurentPoly`` coefficients: equality, sums, differences, scaling,
coefficient maps, the bilinear product and the sum of coefficients are
written once there.  Its subclasses say only how a key is
checked, which attributes two values must share, and how two keys multiply:
``QtPoly`` (a polynomial in ``q``, keyed by the q-exponent) here, and
``SymFun`` and ``QsymTable`` in ``symfun``.  ``eval_at_root_of_unity``
reduces a ``QtPoly`` modulo a cyclotomic polynomial, which evaluates it at a
primitive root of unity without leaving exact arithmetic.  The comparisons
at one integer point of ``verify.qexp`` and ``verify.series`` read one shape
(``int_span``), one digit width with its proof (``digit_width``) and one
packing of a ``LaurentPoly`` at t = 2^w (``at_point``).  ``dumps`` is the
one compact JSON encoder, of the command line's answers and of ``verify``'s
records.

Everything in this module is immutable after construction and every operation
is a pure function, so values are safe to share between concurrent workers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping


def _canonical(terms: dict) -> "LaurentPoly":
    """A LaurentPoly from int exponents and coefficients that arithmetic
    produced: zeros are dropped, nothing else is checked."""
    p = object.__new__(LaurentPoly)
    p.terms = {e: c for e, c in terms.items() if c}
    return p


def _trusted(terms: dict) -> "LaurentPoly":
    """A LaurentPoly from terms already canonical: int exponents and
    nonzero int coefficients."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


def dumps(obj) -> str:
    """The compact JSON of every answer the command line prints.  What it
    encodes is built by ``to_json_obj`` and ``verify``'s records and has no
    cycles, so it keeps no markers against them."""
    import json  # at the first call, so that a process that prints no JSON loads none

    return json.dumps(obj, separators=(",", ":"), check_circular=False)


class LaurentPoly:
    """Sparse Laurent polynomial in t over the integers.

    Terms are kept canonical: no zero coefficients are stored, and equality is
    termwise.  A non-int exponent or coefficient, or a bool, is a TypeError;
    a value compared with a bool is unequal to it.

    >>> LaurentPoly({0: 1, 1: 4, 2: 1}).pretty()
    '1 + 4*t + t^2'
    >>> LaurentPoly({-2: -1, -1: -1}).pretty()
    '-t^-2 - t^-1'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        cleaned: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int:
                    raise TypeError(f"exponents are ints, not {type(e).__name__}")
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficients are ints, not {type(c).__name__}")
                if c:
                    cleaned[e] = c
        self.terms = cleaned

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t_power(cls, e: int, c: int = 1) -> "LaurentPoly":
        return cls({e: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def degree(self) -> int | None:
        """Top exponent, or None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def valuation(self) -> int | None:
        """Bottom exponent, or None for the zero polynomial."""
        return min(self.terms) if self.terms else None

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int) and not isinstance(other, bool):
            return self.terms == LaurentPoly.const(other).terms
        return NotImplemented

    def _operand(self, other):
        """A non-LaurentPoly operand as a LaurentPoly, or NotImplemented."""
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return other if isinstance(other, LaurentPoly) else NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():  # only these terms can leave canonical form
            c = get(e, 0) + c
            if not c:
                del out[e]
            else:
                out[e] = c
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _trusted({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly:
            if isinstance(other, int):
                return _canonical({e: c * other for e, c in self.terms.items()})
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        out: dict[int, int] = {}
        get = out.get
        other_terms = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in other_terms:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _canonical(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other: int) -> "LaurentPoly":
        """Exact division by an int; ValueError when a coefficient is not a
        multiple of it."""
        if not isinstance(other, int):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero")
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, other)
            if r:
                raise ValueError(f"{self!r} is not divisible by {other}")
            out[e] = q
        return _trusted(out)

    def reverse(self, n: int) -> "LaurentPoly":
        """t^n * p(1/t)."""
        return _trusted({n - e: c for e, c in self.terms.items()})

    def derivative(self) -> "LaurentPoly":
        return _canonical({e - 1: e * c for e, c in self.terms.items() if e})

    def truncated(self, max_exp: int) -> "LaurentPoly":
        return _trusted({e: c for e, c in self.terms.items() if e <= max_exp})

    # no library caller; perfbench/tracer.py counts words_kept as table.sum_coeffs().at_one()
    def at_one(self) -> int:
        """Evaluate at t = 1."""
        return sum(self.terms.values())

    def in_nat_t(self) -> bool:
        """True iff all exponents and all coefficients are nonnegative."""
        return all(e >= 0 and c >= 0 for e, c in self.terms.items())

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == 1 else f"{mag}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        return {str(e): self.terms[e] for e in sorted(self.terms)}

    def __repr__(self) -> str:
        return f"LaurentPoly({self.pretty()})"


ZERO = LaurentPoly()
ONE = LaurentPoly.one()
T = LaurentPoly.t_power(1)


def t_quantum(n: int) -> LaurentPoly:
    """The t-analog (t^n - 1)/(t - 1) for any integer n.

    >>> t_quantum(3).pretty()
    '1 + t + t^2'
    >>> t_quantum(-2).pretty()
    '-t^-2 - t^-1'
    >>> t_quantum(0).pretty()
    '0'
    """
    if n >= 0:
        return LaurentPoly({j: 1 for j in range(n)})
    return LaurentPoly({j: -1 for j in range(n, 0)})


@lru_cache(maxsize=None)
def eulerian(n: int) -> LaurentPoly:
    """Descent-generating polynomial of the symmetric group on n letters.

    The degenerate value at n = 0 is t^-1, which makes the closed-form
    products below come out polynomial.

    >>> eulerian(3).pretty()
    '1 + 4*t + t^2'
    >>> eulerian(0).pretty()
    't^-1'
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return LaurentPoly.t_power(-1)
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if 0 <= k - 1 < len(row) else 0)
            for k in range(m)
        ]
    return LaurentPoly(dict(enumerate(row)))


class Combination:
    """Finite sum of keyed ``LaurentPoly`` coefficients.

    ``terms`` maps each key to a nonzero coefficient.  A subclass supplies
    ``_key`` (check and normalise a key, or raise), ``_shape``
    (what two values must share to be added or compared), ``_copy_shape``
    (set those attributes on a new value), ``_mul_key`` (how two keys
    multiply: the product key and an int structure constant) and, where the
    product changes the shape, ``_product_shape``.  Public constructors
    store their terms through ``_store``, which checks every key; values
    derived from checked keys (sums, negation, scaling, coefficient maps and
    products) take the trusted path ``_like``, which only drops zero
    coefficients.
    """

    __slots__ = ("terms",)

    def _store(self, terms: Mapping | None) -> None:
        cleaned: dict = {}
        if terms:
            for key, c in terms.items():
                key = self._key(key)
                if not isinstance(c, LaurentPoly):
                    c = LaurentPoly.const(c)
                if c:
                    cleaned[key] = c
        self.terms = cleaned

    def _shape(self) -> tuple:
        return ()

    def _copy_shape(self, out: "Combination") -> None:
        pass

    def _like(self, terms: dict):
        """A value of this shape whose keys are already checked and whose
        coefficients are LaurentPoly values; zero coefficients are dropped."""
        out = object.__new__(type(self))
        self._copy_shape(out)
        out.terms = {key: c for key, c in terms.items() if c}
        return out

    def _compatible(self, other: "Combination") -> None:
        if self._shape() != other._shape():
            raise ValueError(f"mismatched operands {self!r} and {other!r}")

    def _lift(self, other):
        """``other`` as a value of this type, or NotImplemented."""
        return other if isinstance(other, type(self)) else NotImplemented

    def _product_shape(self, other: "Combination") -> "Combination":
        """Check that a product is defined; return a value of its shape."""
        self._compatible(other)
        return self

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, key) -> LaurentPoly:
        return self.terms.get(key if isinstance(key, int) else tuple(key), ZERO)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        self._compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: LaurentPoly | int):
        return self._like({key: v * c for key, v in self.terms.items()})

    def map_coeffs(self, fn: Callable[[LaurentPoly], LaurentPoly]):
        return self._like({key: fn(v) for key, v in self.terms.items()})

    def __mul__(self, other):
        """A scalar or LaurentPoly scales; two values multiply bilinearly."""
        if not isinstance(other, type(self)):
            if isinstance(other, (LaurentPoly, int)):
                return self.scale(other)
            return NotImplemented
        shape = self._product_shape(other)
        mul_key = self._mul_key
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key, mult = mul_key(k1, k2)
                c = c1 * c2
                out[key] = out.get(key, ZERO) + (c if mult == 1 else c * mult)
        return shape._like(out)

    __rmul__ = __mul__

    def sum_coeffs(self) -> LaurentPoly:
        """The sum of all coefficients: every key set to one."""
        out = ZERO
        for c in self.terms.values():
            out = out + c
        return out


class QtPoly(Combination):
    """Polynomial in q with LaurentPoly (in t) coefficients.

    q-exponents are nonnegative; substituting q = 1 yields a LaurentPoly.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, LaurentPoly | int] | None = None):
        self._store(terms)

    def _key(self, e) -> int:
        if type(e) is not int:
            raise TypeError(f"q-exponents are ints, not {type(e).__name__}")
        if e < 0:
            raise ValueError("q-exponents must be nonnegative")
        return e

    @staticmethod
    def _mul_key(e1: int, e2: int) -> tuple[int, int]:
        return e1 + e2, 1

    def _lift(self, other):
        if isinstance(other, QtPoly):
            return other
        if isinstance(other, (LaurentPoly, int)) and not isinstance(other, bool):
            return QtPoly({0: other})
        return NotImplemented

    # Bound here, not only inherited: tools that count calls rebind the names
    # in vars(QtPoly), so an inherited product would go uncounted.
    __mul__ = Combination.__mul__
    __rmul__ = Combination.__mul__

    @classmethod
    def zero(cls) -> "QtPoly":
        return cls()

    @classmethod
    def one(cls) -> "QtPoly":
        return cls({0: ONE})

    @classmethod
    def q_power(cls, e: int, c: LaurentPoly | int = 1) -> "QtPoly":
        return cls({e: c})

    @classmethod
    def from_t(cls, p: LaurentPoly) -> "QtPoly":
        return cls({0: p})

    def q_degree(self) -> int | None:
        return max(self.terms) if self.terms else None

    at_q_one = Combination.sum_coeffs  # substitute q = 1

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e].pretty()
            body = c if " " not in c else f"({c})"
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{body}*q")
            else:
                parts.append(f"{body}*q^{e}")
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        return {str(e): self.terms[e].to_json_obj() for e in sorted(self.terms)}

    def __repr__(self) -> str:
        return f"QtPoly({self.pretty()})"


def qt_divmod(f: QtPoly, g: QtPoly) -> tuple[QtPoly, QtPoly]:
    """Divide in q by a divisor that is monic in q."""
    gdeg = g.q_degree()
    if gdeg is None:
        raise ZeroDivisionError("division by the zero polynomial")
    if g.coeff(gdeg) != ONE:
        raise ValueError("divisor must be monic in q")
    rem = dict(f.terms)
    quo: dict[int, LaurentPoly] = {}
    while rem:
        fdeg = max(rem)
        if fdeg < gdeg:
            break
        c = rem[fdeg]
        shift = fdeg - gdeg
        quo[shift] = c
        for e, gc in g.terms.items():
            tgt = e + shift
            nc = rem.get(tgt, ZERO) - c * gc
            if nc:
                rem[tgt] = nc
            else:
                rem.pop(tgt, None)
    return f._like(quo), f._like(rem)


def int_span(polys: Iterable[LaurentPoly]) -> tuple[int, int, int]:
    """(lowest t-exponent, highest t-exponent, sum of l1 norms) of nonzero
    polynomials, or (0, 0, 0) for none: the shape that ``at_point`` and
    ``digit_width`` need."""
    exps, l1 = [], 0
    for p in polys:
        exps += p.terms
        l1 += sum(map(abs, p.terms.values()))
    return min(exps, default=0), max(exps, default=0), l1


def digit_width(bound: int) -> int:
    """The digit width w of a comparison at one integer point, where every
    coefficient of a difference of two sides is at most ``bound`` in
    absolute value.

    Each side is a polynomial in t times the power of t that makes the
    lowest exponent of the two sides 0, taken at t = 2^w (``at_point``).
    With 2^(w - 1) > bound, every coefficient of the difference is a digit
    in balanced base 2^w, and such digits are unique: the difference is 0
    at the point exactly when it is 0 as a polynomial.

    >>> digit_width(3), digit_width(4)
    (3, 4)
    """
    return bound.bit_length() + 1


def at_point(terms: Iterable[tuple[int, int]], w: int, low: int) -> int:
    """The sum of x t^(b - low) over the terms (b, x) at t = 2^w, low at most
    every b.

    >>> at_point(LaurentPoly({-1: 1, 1: -2}).terms.items(), 4, -1)
    -511
    """
    v = 0
    for b, x in terms:
        v += x << w * (b - low)
    return v


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> QtPoly:
    """The k-th cyclotomic polynomial, by exact division of q^k - 1.

    >>> cyclotomic(1).pretty()
    '-1 + 1*q'
    >>> cyclotomic(4).pretty()
    '1 + 1*q^2'
    """
    if k < 1:
        raise ValueError("k must be positive")
    poly = QtPoly({k: 1, 0: -1})
    for d in range(1, k):
        if k % d == 0:
            poly, rem = qt_divmod(poly, cyclotomic(d))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return poly


def eval_at_root_of_unity(f: QtPoly, k: int) -> LaurentPoly:
    """The value of f at a primitive k-th root of unity, a polynomial in t.

    f is reduced modulo the k-th cyclotomic polynomial, after its
    q-exponents are folded mod k: that polynomial divides q^k - 1, so the
    fold leaves the remainder as it is.  The powers of the root below that
    polynomial's degree are linearly independent over the rationals, so the
    value is free of the root exactly when the remainder is; ValueError is
    raised otherwise.

    >>> eval_at_root_of_unity(QtPoly({0: 1, 1: 1, 2: 1}), 3).pretty()
    '0'
    >>> eval_at_root_of_unity(QtPoly({2: 1}), 2).pretty()
    '1'
    """
    folded: dict[int, LaurentPoly] = {}
    for e, c in f.terms.items():
        r = e % k
        folded[r] = folded[r] + c if r in folded else c
    _, rem = qt_divmod(f._like(folded), cyclotomic(k))
    if rem.q_degree():
        raise ValueError(f"the value at a primitive {k}-th root of unity depends on q")
    return rem.coeff(0)


def divisors(n: int) -> Iterator[int]:
    for d in range(1, n + 1):
        if n % d == 0:
            yield d
