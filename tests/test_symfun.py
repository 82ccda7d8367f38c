"""Symmetric functions: partitions, expansion, conversion, series."""

import json
import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from smirnov import combinat
from smirnov import enumerators as en
from smirnov import symfun
from smirnov import verify
from smirnov.exact import ONE, T, ZERO, Combination, LaurentPoly, QtPoly, t_quantum
from smirnov.symfun import (
    NotSymmetricError,
    QsymTable,
    SymFun,
    SymSeries,
    conjugate,
    expand_at_compositions,
    monomial_to_e,
    omega_sign,
    partitions_of,
    z_of,
)
from smirnov.verify.series import product_equal_at_point
from smirnov.verify.unimodal import e_positive, e_unimodal_direct, e_unimodal_palindromic
from monomial_reference import (
    MonomialTable,
    expand_in_variables,
    monomial_table,
    times_factorial_in_plain_p,
)
from record_reference import records_line

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22]


class TestCombination:
    """The arithmetic shared by QtPoly, SymFun, QsymTable and the tests'
    MonomialTable."""

    OWN = (
        "__bool__", "coeff", "__eq__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
        "scale", "map_coeffs", "sum_coeffs",
    )

    def test_subclasses_define_no_arithmetic_of_their_own(self):
        for cls in (QtPoly, SymFun, MonomialTable):
            assert not set(self.OWN) & set(vars(cls))
        for cls in (SymFun, QsymTable, MonomialTable):
            assert not {"__mul__", "__rmul__"} & set(vars(cls))
        assert vars(QtPoly)["__mul__"] is vars(QtPoly)["__rmul__"] is Combination.__mul__
        # a QsymTable sums at all ones by counting placements
        assert set(self.OWN) & set(vars(QsymTable)) == {"sum_coeffs"}

    def test_products_multiply_keys(self):
        assert QtPoly({1: T}) * QtPoly({2: 3}) == QtPoly({3: 3 * T})
        e = SymFun.generator("e", 2, T) * SymFun.generator("e", 1, 2)
        assert e == SymFun("e", 3, {(2, 1): 2 * T})
        table = MonomialTable(2, {(1, 0): 1, (0, 1): T})
        assert table * table == MonomialTable(2, {(2, 0): 1, (1, 1): 2 * T, (0, 2): T**2})

    def test_scalars_scale(self):
        f = SymFun("h", 2, {(1, 1): T})
        assert 2 * f == f * 2 == f.scale(2) == f + f
        assert T * QtPoly.q_power(1) == QtPoly.q_power(1) * T == QtPoly({1: T})

    def test_keys_checked_on_every_path(self):
        with pytest.raises(ValueError):
            QtPoly({-1: 0})
        with pytest.raises(ValueError):
            SymFun("e", 3, {(1, 2): 1})
        with pytest.raises(ValueError):
            MonomialTable(2, {(1, 0, 0): 1})

    def test_bool_parts_are_not_ints(self):
        with pytest.raises(ValueError):
            SymFun("e", 2, {(True, True): 1})
        with pytest.raises(ValueError):
            QsymTable(2, {(True, 1): 1})

    def test_shapes_must_agree(self):
        f = SymFun("e", 2, {(2,): 1})
        assert f != SymFun("h", 2, {(2,): 1}) and f != SymFun("e", 3, {(3,): 1})
        with pytest.raises(ValueError):
            f + SymFun("h", 2, {(2,): 1})
        with pytest.raises(ValueError):
            f * SymFun("p/z", 1, {(1,): 1})
        with pytest.raises(ValueError):
            MonomialTable.one(2) - MonomialTable.one(3)
        with pytest.raises(TypeError):
            f + 1

    def test_trusted_results_equal_validated_construction(self):
        # sums, negation, scaling, coefficient maps and products store their
        # terms without checking the keys, and so do the tables the DPs
        # write; the public constructors, which check every key, must accept
        # each result and give the same value
        def rebuilt(v):
            if isinstance(v, QtPoly):
                return QtPoly(v.terms)
            if isinstance(v, SymFun):
                return SymFun(v.basis, v.degree, v.terms)
            return type(v)(v.nvars, v.terms)

        values = [
            (QtPoly({0: ONE, 2: T}), QtPoly({1: 2 - T, 3: ONE})),
            (en.closed_form("Wtilde", 4), en.closed_form("Wless", 4)),
            (en.powersum_form("W", 3), en.powersum_form("Wless", 3)),
            (en.closed_form("W", 2), en.closed_form("Wneq", 3)),
            (expand_in_variables(en.closed_form("W", 2), 3), MonomialTable(3, {(1, 1, 0): T})),
        ]
        results = [combinat.brute_enumerator("Wtilde", 4, 3)]
        results.append(combinat.ring_colorings(4, 3)["cycle", 4])
        results.append(en.f_expansion("Wless", 4).to_table(3))
        plain = times_factorial_in_plain_p(en.powersum_form("Wtilde", 4).omega())
        results.append(expand_in_variables(plain, 4))
        results.append(expand_at_compositions(plain, 3))
        results.append(monomial_table(results[0]))
        for a, b in values:
            results += [a + a, a - a, -a, a.scale(T), a.scale(0), a * b, a * a]
            results.append(a.map_coeffs(lambda p: p.reverse(2)))
            if a._shape() == b._shape():
                results += [a + b, a - b]
        for v in results:
            assert all(v.terms.values())
            again = rebuilt(v)
            assert again == v and again.terms == v.terms and again._shape() == v._shape()

    def test_qtpoly_lifts_scalars(self):
        p = QtPoly({0: ONE, 1: T})
        assert p - 1 == QtPoly({1: T}) and 1 + QtPoly({1: T}) == p
        assert QtPoly.from_t(T) == T and QtPoly.one() == 1
        assert p.at_q_one() == p.sum_coeffs() == ONE + T
        assert p.coeff(1) == T and p.coeff(5) == ZERO
        assert SymFun("e", 2, {(1, 1): T}).coeff([1, 1]) == T


class TestPartitions:
    def test_counts(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert len(partitions_of(n)) == expected

    def test_reverse_lex_order(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        for n in range(8):
            lams = partitions_of(n)
            assert all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))

    def test_each_exactly_once(self):
        for n in range(9):
            lams = partitions_of(n)
            assert len(set(lams)) == len(lams)
            assert all(sum(lam) == n for lam in lams)

    def test_z_values(self):
        assert z_of((1,) * 5) == math.factorial(5)
        assert z_of((2, 1)) == 2
        assert z_of((3, 3)) == 18
        assert z_of(()) == 1

    def test_z_counts_cycle_types(self):
        # permutations of cycle type lam number n!/z_lam; they exhaust S_n
        for n in range(1, 8):
            assert sum(
                Fraction(math.factorial(n), z_of(lam)) for lam in partitions_of(n)
            ) == math.factorial(n)

    def test_conjugate(self):
        assert conjugate((4, 1)) == (2, 1, 1, 1)
        for n in range(8):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam

    def test_omega_sign(self):
        assert omega_sign((3,)) == 1
        assert omega_sign((2,)) == -1
        assert omega_sign((1, 1, 1)) == 1


class TestExpansion:
    def test_generators_in_two_variables(self):
        assert expand_in_variables(SymFun.generator("e", 2), 2) == MonomialTable(2, {(1, 1): 1})
        assert expand_in_variables(SymFun.generator("p", 2), 2) == MonomialTable(
            2, {(2, 0): 1, (0, 2): 1}
        )
        # multisets of size 2 from 2 letters
        assert expand_in_variables(SymFun.generator("h", 2), 2) == MonomialTable(
            2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        )

    def test_elementary_vanishes_beyond_variable_count(self):
        assert not expand_in_variables(SymFun.generator("e", 3), 2)

    def test_zpart_scaling(self):
        # p_2 / z_2 = p_2 / 2 is not integral in variables; 2! times it is p_2
        f = SymFun("p/z", 2, {(2,): 1})
        for expand in (expand_in_variables, expand_at_compositions):
            with pytest.raises(ValueError):
                expand(f, 2)
        assert expand_in_variables(times_factorial_in_plain_p(f), 2) == MonomialTable(
            2, {(2, 0): 1, (0, 2): 1}
        )

    def test_multiplicativity_on_random_generators(self):
        import random

        rng = random.Random(7)
        for basis in "ehp":
            for _ in range(10):
                i = rng.randint(1, 3)
                j = rng.randint(1, 3)
                f = SymFun.generator(basis, i, T)
                g = SymFun.generator(basis, j, ONE + T)
                k = i + j
                assert expand_in_variables(f * g, k) == expand_in_variables(
                    f, k
                ) * expand_in_variables(g, k)


def unit_table(basis, i, k):
    """e_i, h_i or p_i in k variables, one monomial at a time."""
    if basis == "e":
        picks = combinations(range(k), i)
    elif basis == "h":
        picks = combinations_with_replacement(range(k), i)
    else:
        picks = [(j,) * i for j in range(k)]
    terms = {}
    for pick in picks:
        vec = [0] * k
        for j in pick:
            vec[j] += 1
        terms[tuple(vec)] = 1
    return MonomialTable(k, terms)


@lru_cache(maxsize=None)
def reference_table(basis, lam, k):
    """b_lam in k variables: a product of unit tables."""
    table = MonomialTable.one(k)
    for part in lam:
        table = table * unit_table(basis, part, k)
    return table


def reference_expansion(f, k):
    """f in k variables, n! times f against p / z."""
    out = MonomialTable.zero(k)
    for lam, c in f.terms.items():
        scale = c * (math.factorial(f.degree) // z_of(lam)) if f.basis == "p/z" else c
        out = out + reference_table(f.basis, lam, k).scale(scale)
    return out


def dominated(mu, nu):
    """mu is below nu in dominance order."""
    return all(sum(mu[:j]) <= sum(nu[:j]) for j in range(1, len(mu) + 1))


class TestTransitionCounts:
    @pytest.mark.parametrize("basis", ["e", "h", "p", "p/z"], ids=["e", "h", "p", "p-zpart"])
    def test_expansion_matches_products_of_unit_tables(self, basis):
        # against p / z, n! times f, which is integral in plain p
        plain = times_factorial_in_plain_p if basis == "p/z" else lambda f: f
        for n in range(7):
            lams = partitions_of(n)
            for k in range(1, n + 2):
                total = {}
                for i, lam in enumerate(lams):
                    c = LaurentPoly({i: 1, i + 1: -2 - i})
                    total[lam] = c
                    f = SymFun(basis, n, {lam: c})
                    assert expand_in_variables(plain(f), k) == reference_expansion(f, k), (lam, k)
                f = SymFun(basis, n, total)
                assert expand_in_variables(plain(f), k) == reference_expansion(f, k), (n, k)

    def test_e_and_h_counts_are_symmetric(self):
        for n in range(9):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for basis in "eh":
                        assert symfun._m_coeff(basis, lam, mu) == symfun._m_coeff(basis, mu, lam)

    def test_e_counts_follow_gale_ryser(self):
        for n in range(9):
            for lam in partitions_of(n):
                conj = conjugate(lam)
                assert symfun._m_coeff("e", lam, conj) == 1
                for mu in partitions_of(n):
                    assert (symfun._m_coeff("e", lam, mu) > 0) == dominated(mu, conj), (lam, mu)

    def test_cold_cache_round_trip_at_eight(self):
        f = en.closed_form("Wtilde", 8)
        symfun._m_coeff.cache_clear()
        symfun._e_in_m.cache_clear()
        assert monomial_to_e(expand_at_compositions(f, 8)) == f


small_polys = st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly)


@st.composite
def e_symfuns(draw):
    n = draw(st.integers(0, 5))
    lams = partitions_of(n)
    terms = {}
    for lam in lams:
        if draw(st.booleans()):
            terms[lam] = draw(small_polys)
    return SymFun("e", n, terms)


class TestMonomialToE:
    def test_round_trip_examples(self):
        f = SymFun("e", 3, {(2, 1): ONE + T})
        assert monomial_to_e(expand_at_compositions(f, 3)) == f

    @given(e_symfuns())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, f):
        k = max(f.degree, 1)
        assert monomial_to_e(expand_at_compositions(f, k), f.degree) == f

    def test_single_monomial_not_symmetric(self):
        table = QsymTable(3, {(2, 1): 1})
        with pytest.raises(NotSymmetricError, match="incomplete"):
            monomial_to_e(table)

    def test_unbalanced_orbit_not_symmetric(self):
        table = QsymTable(3, {(2, 1): 1, (1, 2): 2})
        with pytest.raises(NotSymmetricError, match="unequal"):
            monomial_to_e(table)
        # every rearrangement present but one coefficient off
        orbit = {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 2}
        with pytest.raises(NotSymmetricError, match="unequal"):
            monomial_to_e(QsymTable(4, orbit))

    def test_too_few_variables_rejected(self):
        with pytest.raises(ValueError, match="as many variables"):
            monomial_to_e(QsymTable(1, {(2,): 1}))

    def test_inhomogeneous_rejected(self):
        table = QsymTable(2, {(1,): 1, (1, 1): 1})
        with pytest.raises(ValueError):
            table.total_degree()
        with pytest.raises(ValueError, match="homogeneous"):
            monomial_to_e(table)

    @given(e_symfuns())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_at_compositions(self, f):
        k = max(f.degree, 1)
        table = expand_at_compositions(f, k)
        assert table == expand_in_variables(f, k)
        assert monomial_to_e(table, f.degree) == f

    def test_compositions_must_agree_with_their_partition(self):
        # the e-basis presentation of a QsymTable certifies Q[alpha] = Q[sorted alpha]
        full = {(2, 1): 1, (1, 2): 1, (1, 1, 1): T}
        assert monomial_to_e(QsymTable(3, full)) == SymFun("e", 3, {(2, 1): 1, (3,): T - 3})
        for broken in ({**full, (1, 2): 2}, {(2, 1): 1, (1, 1, 1): T}, {(1, 2): 1, (1, 1, 1): T}):
            with pytest.raises(NotSymmetricError):
                monomial_to_e(QsymTable(3, broken))


qsym_coeffs = st.dictionaries(
    st.integers(-3, 3),
    st.integers(-12, 12),
    max_size=3,
).map(LaurentPoly)


@st.composite
def qsym_tables(draw):
    """A table in 1 to 6 variables at random compositions with at most that
    many parts, with integer coefficients and negative t-exponents."""
    k = draw(st.integers(1, 6))
    alphas = st.lists(st.integers(1, 4), max_size=k).map(tuple)
    return QsymTable(k, draw(st.dictionaries(alphas, qsym_coeffs, max_size=8)))


class TestQsymTable:
    def test_keys_are_compositions_with_at_most_k_parts(self):
        for bad in ((1, 0, 1), (1, 1, 1), (2, -1)):
            with pytest.raises(ValueError):
                QsymTable(2, {bad: 1})
        with pytest.raises(ValueError):
            QsymTable(0)

    def test_monomial_table_writes_every_placement(self):
        table = QsymTable(3, {(2, 1): T, (3,): 1})
        assert monomial_table(table) == MonomialTable(3, {
            (2, 1, 0): T, (2, 0, 1): T, (0, 2, 1): T, (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1,
        })
        assert table == monomial_table(table) and monomial_table(table) == table
        assert table != MonomialTable(3, {(2, 1, 0): T}) and table != QsymTable(2, table.terms)

    def test_sum_coeffs_is_the_value_at_all_ones(self):
        fundamental = en.FExpansion(3, ((1, (1,), 2),))  # 2t F_{3,{1}}, not symmetric
        for k in range(1, 6):
            tables = [expand_at_compositions(en.closed_form("Wtilde", 4), k)]
            tables += [expand_at_compositions(en.closed_form("XC", 3), k), fundamental.to_table(k)]
            for table in tables:
                assert table.sum_coeffs() == monomial_table(table).sum_coeffs()

    @given(qsym_tables())
    @example(QsymTable(1))
    @example(QsymTable(6))
    @example(QsymTable(1, {(3,): LaurentPoly.t_power(-2, -7), (1,): T}))
    @example(QsymTable(4, {(1, 2): ONE + T}))
    @settings(max_examples=80, deadline=None)
    def test_json_encodes_a_shared_coefficient_once(self, table):
        obj = table.to_json_obj()
        reference = monomial_table(table).to_json_obj()
        assert obj == reference
        assert table.pretty() == monomial_table(table).pretty()
        assert json.loads(json.dumps(obj)) == obj
        # records_json writes a table side from its rows, with each exponent
        # list and coefficient encoded once: one side shown twice, two equal
        # sides, and a table beside a side that is none
        records = [
            verify._record("same", {"n": 1}, table, table),
            verify._record("equal", {}, table, monomial_table(table)),
            verify._record("mixed", {}, [True], table),
            verify._record("plain", {}, 1, 1),
        ]
        assert [r["status"] for r in records] == ["pass", "pass", "fail", "pass"]
        assert verify.records_json(records) == records_line(records)
        rows = [tuple(row["exponents"]) for row in obj["terms"]]
        assert rows == sorted(rows, reverse=True)
        placed = set()
        for alpha in table.terms:
            for slots in combinations(range(table.nvars), len(alpha)):
                vec = [0] * table.nvars
                for slot, part in zip(slots, alpha):
                    vec[slot] = part
                placed.add(tuple(vec))
        assert set(rows) == placed and len(rows) == len(placed)
        shared = {}
        for vec, row in zip(rows, obj["terms"]):
            alpha = tuple(e for e in vec if e)
            assert row["coeff"] == table.terms[alpha].to_json_obj()
            assert row["coeff"] is shared.setdefault(alpha, row["coeff"])

    def test_a_table_beyond_the_limits_keeps_no_layout(self):
        # a sparse degree-24 table in 6 variables writes the 21 placements of
        # its compositions, and neither builds nor keeps the 118 755 rows of
        # every degree-24 vector in 6 variables
        table = QsymTable(6, {(24,): ONE, (20, 4): T})
        before = symfun._layout.cache_info()
        obj = table.to_json_obj()
        assert obj == monomial_table(table).to_json_obj() and len(obj["terms"]) == 6 + 15
        assert table.pretty() == monomial_table(table).pretty()
        # two such tables in one records_json call: the rows of each stay
        # alive while its exponent lists' texts are kept by id
        other = QsymTable(6, {(23, 1): T, (12, 12): ONE})
        records = [verify._record("a", {}, table, table), verify._record("b", {}, other, other)]
        assert verify.records_json(records) == records_line(records)
        assert symfun._layout.cache_info() == before


class TestOmega:
    def test_swaps_e_and_h(self):
        f = SymFun("e", 4, {(3, 1): T})
        assert f.omega() == SymFun("h", 4, {(3, 1): T})
        assert f.omega().omega() == f

    def test_p_basis_sign(self):
        for basis in ("p", "p/z"):
            assert SymFun.generator(basis, 3).omega() == SymFun.generator(basis, 3)
            assert SymFun.generator(basis, 2).omega() == SymFun(basis, 2, {(2,): -1})

    def test_m_basis_rejected(self):
        # the monomial basis is reached through QsymTable, not as a SymFun
        with pytest.raises(ValueError, match="unknown basis"):
            SymFun("m", 2, {(1, 1): 1})

    def test_omega_via_expansion(self):
        # omega is an algebra map: check on 2 e_2 -> 2 h_2 through p
        f = SymFun("e", 2, {(2,): 2})
        # 2 e_2 = p_{1,1} - p_2, 2 h_2 = p_{1,1} + p_2
        p_form = SymFun("p", 2, {(1, 1): 1, (2,): -1})
        assert expand_in_variables(f, 2) == expand_in_variables(p_form, 2)
        assert expand_in_variables(f.omega(), 2) == expand_in_variables(p_form.omega(), 2)


class TestSeries:
    def test_basis_is_read_from_the_coefficients(self):
        for basis in ("e", "h", "p", "p/z"):
            coeffs = [SymFun.generator(basis, n, n + T) for n in range(4)]
            series = SymSeries(coeffs)
            assert series.basis == basis and series.order == 3 and series.coeffs == coeffs
            assert SymSeries.one(basis, 3).basis == basis

    def test_coefficients_must_fit_one_basis_and_grading(self):
        with pytest.raises(ValueError):
            SymSeries([])
        with pytest.raises(ValueError):
            SymSeries([SymFun.generator("p", 0), SymFun.generator("p/z", 1)])
        with pytest.raises(ValueError):
            SymSeries([SymFun.generator("p/z", 0), SymFun.generator("p", 1)])
        with pytest.raises(ValueError):
            SymSeries([SymFun.generator("e", 0), SymFun.generator("e", 2)])

    def test_omega_exchanges_generating_series(self):
        E = SymSeries.generating("e", 8)
        H = SymSeries.generating("h", 8)
        assert [f.omega() for f in E.coeffs] == H.coeffs

    def test_geometric_inverse(self):
        def weight(i):
            return -(T * t_quantum(i - 1)) if i >= 2 else (ONE if i == 0 else None)

        D = SymSeries.from_weights(6, weight)
        inv = SymSeries([en.geometric_form(m) for m in range(7)])
        assert D.mul(inv) == SymSeries.one("e", 6)
        # first two displayed coefficients of the expansion
        assert inv[2] == SymFun("e", 2, {(2,): T})
        assert inv[4] == SymFun("e", 4, {(4,): T * t_quantum(3), (2, 2): T * T})

    def test_unequal_orders_work_to_the_smaller(self):
        def weight(i):
            return ONE if i == 0 else (T if i >= 2 else None)

        def truncated(series, order):
            return SymSeries(series.coeffs[: order + 1])

        A, A_short = SymSeries.generating("e", 6), SymSeries.generating("e", 4)
        D, D_short = SymSeries.from_weights(6, weight), SymSeries.from_weights(4, weight)
        for a, d in ((A_short, D), (A, D_short)):
            assert a.mul(d) == d.mul(a) == truncated(A.mul(D), 4)

    def test_grade_scale_and_dt(self):
        E = SymSeries.generating("e", 4)
        Etz = E.grade_scale_t()
        assert Etz[3] == SymFun.generator("e", 3, LaurentPoly.t_power(3))
        assert Etz.dt()[3] == SymFun.generator("e", 3, LaurentPoly.t_power(2, 3))


class TestPowerSumsOverZ:
    """Products against p_lam / z_lam, with the integer structure constants
    prod_i C(m_i(lam) + m_i(mu), m_i(lam))."""

    def test_products_agree_with_the_plain_power_sum_basis(self):
        for a in range(9):
            for b in range(9 - a):
                f_all = SymFun("p/z", a, {lam: i + T for i, lam in enumerate(partitions_of(a))})
                g_all = SymFun("p/z", b, {mu: 1 - i * T for i, mu in enumerate(partitions_of(b))})
                pairs = [(f_all, g_all)]
                pairs += [
                    (SymFun("p/z", a, {lam: ONE}), SymFun("p/z", b, {mu: ONE}))
                    for lam in partitions_of(a)
                    for mu in partitions_of(b)
                ]
                # (a + b)! f g = C(a + b, a) (a! f) (b! g), each in plain p
                plain = times_factorial_in_plain_p
                for f, g in pairs:
                    product = f * g
                    assert product.basis == "p/z" and product.degree == a + b
                    assert plain(product) == plain(f) * plain(g) * math.comb(a + b, a), (f, g)

    def test_structure_constants_are_integers(self):
        f = SymFun("p/z", 2, {(1, 1): ONE})
        assert (f * f).terms == {(1, 1, 1, 1): LaurentPoly.const(6)}
        assert (f * SymFun("p/z", 1, {(1,): ONE})).terms == {(1, 1, 1): LaurentPoly.const(3)}

    def test_mixed_forms_do_not_multiply(self):
        over_z, plain = SymFun("p/z", 1, {(1,): 1}), SymFun("p", 1, {(1,): 1})
        assert times_factorial_in_plain_p(over_z) == plain  # one value, in two bases
        assert over_z != plain and plain != over_z
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(ValueError):
                op(over_z, plain)
        with pytest.raises(ValueError):
            SymSeries.h_series_p(3).mul(SymSeries.one("p", 3))
        with pytest.raises(ValueError):
            SymSeries.h_series_p(3) + SymSeries.one("p", 3)
        assert SymSeries.h_series_p(0) != SymSeries.one("p", 0)

    def test_h_series_is_all_ones(self):
        H = SymSeries.h_series_p(8)
        assert H.basis == "p/z" and H.order == 8
        for n, f in enumerate(H.coeffs):
            assert f.basis == "p/z" and set(f.terms) == set(partitions_of(n))
            assert all(c == ONE for c in f.terms.values())
        for n in range(1, 7):
            h_n = SymFun.generator("h", n, math.factorial(n))  # n! times, as H[n] expands
            assert expand_in_variables(times_factorial_in_plain_p(H[n]), n) == expand_in_variables(h_n, n)

    def test_series_identities_run_in_integers(self):
        def factor(lam):  # the coefficient of H(z) / H(tz) at p_lam / z_lam
            return math.prod((1 - T**part for part in lam), start=ONE)

        H = SymSeries.h_series_p(8)
        ratio = SymSeries(
            [SymFun("p/z", n, {lam: factor(lam) for lam in partitions_of(n)}) for n in range(9)]
        )
        assert ratio.mul(H.grade_scale_t()) == H
        for f in ratio.mul(ratio).coeffs:
            assert all(type(c) is int for p in f.terms.values() for c in p.terms.values())


# integer coefficients wide enough to need several bits per digit, and
# negative t-exponents
series_coeffs = st.dictionaries(st.integers(-3, 4), st.integers(-40, 40), max_size=3).map(
    LaurentPoly
)


@st.composite
def sym_series(draw, basis: str, order: int):
    """A random series to the given order, in the basis e or p/z."""
    return SymSeries(
        [
            SymFun(basis, n, {lam: draw(series_coeffs) for lam in partitions_of(n)})
            for n in range(order + 1)
        ]
    )


@st.composite
def series_pair(draw):
    """Two random series of one basis, each to an order up to 4."""
    basis = draw(st.sampled_from(["e", "p/z"]))
    return [draw(sym_series(basis, draw(st.integers(0, 4)))) for _ in range(2)]


def with_coeff(series, n, lam, c):
    """The series with c added to its coefficient at degree n and partition lam."""
    coeffs = list(series.coeffs)
    coeffs[n] = coeffs[n] + SymFun(series.basis, n, {lam: c})
    return SymSeries(coeffs)


class TestProductEqualAtPoint:
    """The comparison at one integer point against ``SymSeries.mul`` and
    equality."""

    @given(series_pair(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_product(self, pair, data):
        a, b = pair
        product = a.mul(b)
        assert product_equal_at_point(a, b, product)
        assert product_equal_at_point(a, a, a.mul(a))
        other = data.draw(sym_series(a.basis, product.order))
        assert product_equal_at_point(a, b, other) == (product == other)

    @given(series_pair(), st.data(), st.sampled_from([-1, 1]))
    @settings(max_examples=60, deadline=None)
    def test_one_bumped_coefficient_is_seen(self, pair, data, unit):
        product = pair[0].mul(pair[1])
        n = data.draw(st.integers(0, product.order))
        lam = data.draw(st.sampled_from(partitions_of(n)))
        b = data.draw(st.integers(-3, 10))
        bumped = with_coeff(product, n, lam, LaurentPoly.t_power(b, unit))
        assert not product_equal_at_point(*pair, bumped)

    def test_orders_and_bases(self):
        E, E_short = SymSeries.generating("e", 4), SymSeries.generating("e", 2)
        assert product_equal_at_point(E, E_short, E_short.mul(E))
        assert not product_equal_at_point(E, E, E_short.mul(E_short))
        assert not product_equal_at_point(E, E, SymSeries.generating("h", 4))
        with pytest.raises(ValueError):
            product_equal_at_point(E, SymSeries.generating("h", 4), E)
        with pytest.raises(ValueError):
            product_equal_at_point(SymSeries.h_series_p(3), SymSeries.one("p", 3), E)

    def test_a_carry_between_digits_is_not_a_match(self):
        # with too few bits per digit, c * t^0 and t^1 would meet at the point
        one, rhs = SymSeries.one("e", 0), SymSeries.from_weights(0, lambda i: T)
        for c in (1, 2, 3, 255, 256, 2**40):
            lhs = SymSeries.from_weights(0, lambda i: LaurentPoly.const(c))
            assert not product_equal_at_point(lhs, one, rhs)
        # 1 * 1 against 5 - t, which is 1 at t = 4: the digit bound counts
        # the right side's norm too
        five_minus_t = SymSeries.from_weights(0, lambda i: 5 * ONE - T)
        assert not product_equal_at_point(one, one, five_minus_t)

    def test_a_structure_constant_is_in_the_digit_bound(self):
        # p_1 / z times p_(1^7) / z is 8 p_(1^8) / z, all l1 norms 1: a bound
        # without C(8, 1) gives 3-bit digits, where 8 * t^0 would meet t^1
        def single(lam, c=ONE):
            return SymSeries([SymFun("p/z", n, {lam: c} if n == sum(lam) else {}) for n in range(9)])

        a, b, ones = single((1,)), single((1,) * 7), (1,) * 8
        assert a.mul(b) == single(ones, 8)
        assert not product_equal_at_point(a, b, single(ones, T))


class TestReports:
    def test_e_positivity(self):
        assert e_positive(SymFun("e", 3, {(3,): ONE + 2 * T}))
        assert not e_positive(SymFun("e", 3, {(3,): -3 * T, (2, 1): T}))
        assert not e_positive(SymFun("e", 2, {(2,): LaurentPoly.t_power(-1)}))
        assert e_positive(SymFun("e", 2))
        with pytest.raises(ValueError, match="e basis"):
            e_positive(SymFun("h", 2, {(2,): ONE}))

    def test_unimodal_palindromic_per_coefficient(self):
        f = SymFun("e", 2, {(2,): ONE + T})
        assert e_unimodal_palindromic(f, Fraction(1, 2)) == (True, True)
        gap = SymFun("e", 4, {(2, 2): ONE + T * T})
        assert e_unimodal_palindromic(gap, 1) == (True, False)

    def test_unimodal_direct_catches_slice_failures(self):
        # each coefficient is unimodal but the slice chain breaks
        f = SymFun(
            "e",
            5,
            {
                (4, 1): T + T**2 + T**3,
                (2, 2, 1): T**2,
                (3, 2): 2 * T**2 + 5 * T**3,
                (5,): LaurentPoly.t_power(4, 5),
            },
        )
        assert not e_unimodal_direct(f)
        ok = SymFun("e", 2, {(2,): ONE + T, (1, 1): T})
        assert e_unimodal_direct(ok)


class TestJson:
    def test_symfun_encoding_shape(self):
        f = SymFun("e", 5, {(4, 1): ONE, (3, 2): 2 * T})
        obj = f.to_json_obj()
        assert obj["basis"] == "e" and obj["degree"] == 5
        assert obj["terms"][0] == {"partition": [4, 1], "coeff": {"0": 1}}
        assert obj["terms"][1] == {"partition": [3, 2], "coeff": {"1": 2}}

    def test_byte_determinism(self):
        f = SymFun("e", 4, {(2, 2): T, (4,): ONE + T})
        assert json.dumps(f.to_json_obj()) == json.dumps(f.to_json_obj())

    def test_zpart_marker(self):
        f = SymFun("p/z", 2, {(2,): T})
        obj = f.to_json_obj()
        assert obj["basis"] == "p/z"
