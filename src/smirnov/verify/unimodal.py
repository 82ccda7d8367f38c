"""The unimodal suite: palindromicity and e-unimodality of the closed forms,
with the even-cycle witness and the cyclic coefficient shapes."""

from __future__ import annotations

from .. import enumerators as en
from ..exact import LaurentPoly, t_quantum
from ..symfun import SymFun, orbit_size, partitions_of
from . import SWEEP_N, _record


def suite_unimodal() -> list[dict]:
    """Palindromicity/unimodality assertions for every variant with a stated
    center, the even-cycle failure witness, and the special coefficient
    formulas for the cyclic enumerator."""
    from fractions import Fraction
    records = []
    for n in range(2, SWEEP_N + 1):
        for variant, center in (
            ("W", Fraction(n - 1, 2)),
            ("Wneq", Fraction(n - 1, 2)),
            ("Wtildeneq", Fraction(n, 2)),
        ):
            flags = e_unimodal_palindromic(en.closed_form(variant, n), center)
            records.append(
                _record(
                    "unimodal-palindromic",
                    {"variant": variant, "n": n, "center": str(center)},
                    list(flags),
                    [True, True],
                )
            )
        # labeled cycle: odd clean, even fails with an explicit witness
        xc = en.closed_form("XC", n)
        center = Fraction(n, 2)
        flags = e_unimodal_palindromic(xc, center)
        direct = e_unimodal_direct(xc)
        positive = e_positive(xc)
        if n % 2:
            records.append(
                _record(
                    "cycle-odd-unimodal-palindromic",
                    {"n": n, "center": str(center)},
                    list(flags) + [direct],
                    [True, True, True],
                )
            )
        else:
            m = n // 2
            witness = xc.coeff((2,) * m)
            expected = LaurentPoly.t_power(m - 1) + LaurentPoly.t_power(m + 1)
            fixed = xc + SymFun("e", n, {(2,) * m: LaurentPoly.t_power(m)})
            fixed_flags = e_unimodal_palindromic(fixed, center)
            records += [
                _record(
                    "cycle-even-positive-palindromic-not-unimodal",
                    {"n": n, "center": str(center)},
                    [positive, flags[0], flags[1], direct],
                    [True, True, False, False],
                ),
                _record("cycle-even-witness", {"n": n, "partition": [2] * m}, witness, expected),
                _record(
                    "cycle-even-corrected",
                    {"n": n, "center": str(center)},
                    list(fixed_flags),
                    [True, True],
                    fixed_flags == (True, True) and e_unimodal_direct(fixed),
                ),
            ]
        # special coefficient shapes of the cyclic-descent enumerator; the
        # smallest-part-one shape needs the ordering multiplicity of the
        # parts >= 2, since the geometric expansion sums over ordered tuples
        wt = en.closed_form("Wtilde", n)
        for lam in partitions_of(n):
            ell = len(lam)
            shapes = []
            if lam[-1] == 1:
                head = lam[:-1]
                expected = LaurentPoly.t_power(ell - 1, orbit_size(head))
                for part in head:
                    expected = expected * t_quantum(part - 1)
                shapes.append(("cyclic-coefficient-smallest-part-one", expected))
            if len(set(lam)) == 1:
                j = lam[0]
                expected = LaurentPoly.t_power(j + ell - 2, j) * t_quantum(j - 1) ** (ell - 1)
                shapes.append(("cyclic-coefficient-rectangle", expected))
            for name, expected in shapes:
                c = wt.coeff(lam)
                ok = c == expected and _shape_palindromic_unimodal(expected)
                records.append(_record(name, {"n": n, "partition": list(lam)}, c, expected, ok))
    w5 = en.closed_form("Wtilde", 5)
    pal_any = any(e_unimodal_palindromic(w5, Fraction(c2, 2))[0] for c2 in range(0, 2 * 5 + 1))
    lhs = [pal_any, e_unimodal_direct(w5)]
    records.append(_record("cyclic-degree-five-counterexample", {"n": 5}, lhs, [False, False]))
    return records


def _shape_palindromic_unimodal(p: LaurentPoly) -> bool:
    """Palindromic about the midpoint of its own support, and unimodal."""
    from fractions import Fraction
    if not p:
        return True
    center = Fraction(p.valuation() + p.degree(), 2)
    return palindrome_unimodal(p, center) == (True, True)


def palindrome_unimodal(p: LaurentPoly, center) -> tuple[bool, bool]:
    """Test palindromicity about ``center`` (a half-integer) and unimodality.

    Unimodality requires nonnegative coefficients that weakly rise to a peak
    and then weakly fall.  The zero polynomial passes both tests for every
    center.

    >>> from fractions import Fraction
    >>> palindrome_unimodal(LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1}), Fraction(3, 2))
    (True, True)
    >>> palindrome_unimodal(LaurentPoly({2: 1, 4: 1}), 3)
    (True, False)
    """
    twice = 2 * center
    if twice != int(twice):
        raise ValueError("center must be a half-integer")
    twice = int(twice)
    if not p:
        return True, True
    lo, hi = p.valuation(), p.degree()
    pal = all(p.coeff(j) == p.coeff(twice - j) for j in range(lo, hi + 1))
    seq = [p.coeff(j) for j in range(lo, hi + 1)]
    uni = all(c >= 0 for c in seq)
    if uni:
        i = 0
        while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
            i += 1
        while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
            i += 1
        uni = i == len(seq) - 1
    return pal, uni


def e_positive(f: SymFun) -> bool:
    """Whether every e-basis coefficient is a polynomial in t with
    nonnegative integer coefficients."""
    if f.basis != "e":
        raise ValueError("e-positivity applies to the e basis")
    return all(c.in_nat_t() for c in f.terms.values())


def e_unimodal_palindromic(f: SymFun, center) -> tuple[bool, bool]:
    """Coefficientwise palindromicity/unimodality about a common center.

    For a palindromic function this coefficientwise test is equivalent to the
    direct chain definition of e-unimodality.
    """
    if f.basis != "e":
        raise ValueError("requires the e basis")
    pal = uni = True
    for c in f.terms.values():
        p, u = palindrome_unimodal(c, center)
        pal = pal and p
        uni = uni and u
    return pal, uni


def e_unimodal_direct(f: SymFun) -> bool:
    """Chain definition of e-unimodality: slices rise to a peak, then fall,
    where 'rise' means the difference is e-positive."""
    if f.basis != "e":
        raise ValueError("requires the e basis")
    if not f.terms:
        return True
    exps: set[int] = set()
    for c in f.terms.values():
        if c.valuation() < 0:
            return False
        exps.update(c.terms)
    top = max(exps)
    lams = sorted(f.terms)

    def slice_at(j: int) -> tuple:
        return tuple(f.terms[lam].coeff(j) for lam in lams)

    slices = [slice_at(j) for j in range(top + 1)]
    nonneg = lambda v: all(x >= 0 for x in v)
    le = lambda a, b: all(x <= y for x, y in zip(a, b))
    if not (nonneg(slices[0]) and nonneg(slices[-1])):
        return False
    for peak in range(top + 1):
        if all(le(slices[j], slices[j + 1]) for j in range(peak)) and all(
            le(slices[j + 1], slices[j]) for j in range(peak, top)
        ):
            return True
    return False
