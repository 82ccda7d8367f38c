"""Combinatorial oracles: words, colorings, permutations, quasisymmetric F."""

import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from smirnov import walks
from smirnov.walks import perm_walk
from smirnov.exact import ONE, T, LaurentPoly, QtPoly
from smirnov.combinat import brute_enumerator, compositions, packed_coeffs, ring_colorings, _insertion_ends
from smirnov.verify.f import F_ones_specialization, F_principal_series, fundamental_F, inverse_q_product
from smirnov.verify.qexp import inverse_perm, perm_stats, permutations_of
from smirnov.symfun import QsymTable, SymFun, monomial_to_e
from monomial_reference import MonomialTable, expand_in_variables
from coloring_reference import Digraph, chromatic_qsym, colorings_by_content
from walk_reference import perm_walk as reference_walk, three_class
from word_reference import _word_ends, endpoint_class, passes, smirnov_words, word_stats

# The paper's word variants, stated here rather than read from the library:
# variant -> (endpoint class filter, statistic)
VARIANT_RULES = {
    "W": ("all", "des"),
    "Wless": ("<", "des"),
    "Wgreater": (">", "des"),
    "Wequal": ("=", "des"),
    "Wneq": ("!=", "des"),
    "Wtilde": ("all", "cdes"),
    "Wtildeneq": ("!=", "cdes"),
}


class TestSmirnovWords:
    def test_small_cases(self):
        assert set(smirnov_words(2, 2)) == {(1, 2), (2, 1)}
        assert set(smirnov_words(3, 2)) == {(1, 2, 1), (2, 1, 2)}
        assert sum(1 for _ in smirnov_words(3, 3)) == 12

    def test_counts_match_formula(self):
        for n in range(1, 6):
            for k in range(1, 5):
                count = sum(1 for _ in smirnov_words(n, k))
                assert count == k * (k - 1) ** (n - 1)

    def test_filters_partition_the_words(self):
        for n in range(1, 6):
            all_words = set(smirnov_words(n, 4))
            by_class = {
                cls: set(smirnov_words(n, 4, cls)) for cls in ("<", ">", "=", "!=")
            }
            assert by_class["<"] | by_class[">"] | by_class["="] == all_words
            assert by_class["!="] == by_class["<"] | by_class[">"]
            assert not by_class["<"] & by_class[">"]

    def test_length_one_words_are_constant_class(self):
        assert set(smirnov_words(1, 3, "=")) == {(1,), (2,), (3,)}
        assert not set(smirnov_words(1, 3, "!="))

    def test_no_adjacent_repeats(self):
        for w in smirnov_words(5, 3):
            assert all(w[i] != w[i + 1] for i in range(4))


class TestWordStats:
    def test_examples(self):
        s = word_stats((1, 2, 1))
        assert (s.des, s.cdes, s.endpoint) == (1, 1, "=")
        s = word_stats((1, 2))
        assert (s.des, s.cdes, s.endpoint) == (0, 1, "<")
        s = word_stats((7,))
        assert (s.des, s.cdes) == (0, 0)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_descent_decomposition(self, letters):
        w = tuple(letters)
        s = word_stats(w)
        assert s.cdes == s.des + (1 if w[-1] > w[0] else 0)
        if len(set(letters)) > 1:
            # a nonconstant word has a cyclic descent somewhere
            rotations = [w[i:] + w[:i] for i in range(len(w))]
            assert all(word_stats(r).cdes >= 1 for r in rotations)


def add_term(acc, vec, e):
    bucket = acc.setdefault(tuple(vec), {})
    bucket[e] = bucket.get(e, 0) + 1


def as_table(k, acc):
    return MonomialTable(k, {vec: LaurentPoly(poly) for vec, poly in acc.items()})


def content(values, k):
    vec = [0] * k
    for v in values:
        vec[v - 1] += 1
    return vec


def words_by_enumeration(variant, n, k):
    """Sum of t^stat x^content taken word by word over smirnov_words."""
    class_filter, stat = VARIANT_RULES[variant]
    acc = {}
    for w in smirnov_words(n, k, class_filter):
        add_term(acc, content(w, k), getattr(word_stats(w), stat))
    return as_table(k, acc)


def words_by_full_table(variant, n, k):
    """The full-table word DP: a prefix DP over (first letter, last letter,
    content) across all k letters, with the endpoint filter and the wrap
    descent applied once all n letters are placed."""
    class_filter, stat = VARIANT_RULES[variant]
    base = n + 1
    unit = [base**c for c in range(k)]
    width = (k**n).bit_length()  # no coefficient exceeds k^n, the number of words
    moves = [[(c, unit[c], c < last) for c in range(k) if c != last] for last in range(k)]
    layer = {(c, c, unit[c]): 1 for c in range(k)}
    for _ in range(n - 1):
        nxt = {}
        for (first, last, code), poly in layer.items():
            down = poly << width
            for c, step, descent in moves[last]:
                key = (first, c, code + step)
                nxt[key] = nxt.get(key, 0) + (down if descent else poly)
        layer = nxt
    totals = {}
    for (first, last, code), poly in layer.items():
        if passes(class_filter, endpoint_class(first, last)):
            if stat == "cdes" and last > first:
                poly <<= width
            totals[code] = totals.get(code, 0) + poly
    return MonomialTable(k, {
        tuple(code // u % base for u in unit): LaurentPoly(packed_coeffs(poly, width))
        for code, poly in totals.items()
    })


def colorings_by_enumeration(g, k):
    """Sum of t^des x^content over every proper coloring in colors^n."""
    acc = {}
    for kappa in product(range(1, k + 1), repeat=g.n):
        color = (None,) + kappa
        if all(color[i] != color[j] for i, j in g.edges):
            add_term(acc, content(kappa, k), sum(color[i] > color[j] for i, j in g.edges))
    return as_table(k, acc)


class TestBruteEnumerator:
    @pytest.mark.parametrize("variant", sorted(VARIANT_RULES))
    def test_dp_matches_word_enumeration(self, variant):
        # k = n + 1, n + 2 leave letters unused, so every composition also
        # lands at placements with zeros between and around its parts
        for n in range(1, 7):
            spare = (n + 1, n + 2) if n <= 5 else ()  # n = 6 would add about 6 s
            for k in sorted({*range(1, 6), *spare}):
                assert brute_enumerator(variant, n, k) == words_by_enumeration(variant, n, k)

    @pytest.mark.parametrize("variant", sorted(VARIANT_RULES))
    def test_matches_full_table_dp(self, variant):
        for n in range(1, 8):
            for k in range(1, 7):
                assert brute_enumerator(variant, n, k) == words_by_full_table(variant, n, k)

    @pytest.mark.parametrize("variant", sorted(VARIANT_RULES))
    def test_insertion_dp_matches_prefix_word_dp(self, variant):
        # the prefix DP over (first, last, content) keeps each endpoint
        # class apart; fold them here by the rules stated in this file
        class_filter, stat = VARIANT_RULES[variant]
        for n in range(1, 9):
            for k in range(1, n + 1):
                width, ends = _word_ends(n, k)
                terms = {}
                for alpha, by_class in ends.items():
                    total = sum(
                        poly << (width if stat == "cdes" and cls == "<" else 0)
                        for cls, poly in by_class.items()
                        if passes(class_filter, cls)
                    )
                    if total:
                        terms[alpha] = LaurentPoly(packed_coeffs(total, width))
                assert brute_enumerator(variant, n, k) == QsymTable(k, terms), (n, k)

    def test_insertion_dp_runs_once_per_n(self):
        brute_enumerator.cache_clear()
        _insertion_ends.cache_clear()
        for k in range(1, 8):
            for variant in VARIANT_RULES:
                brute_enumerator(variant, 6, k)
        info = _insertion_ends.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("args", [("W", 0, 3), ("W", 3, 0), ("Wbogus", 3, 3)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            brute_enumerator(*args)

    def test_degree_three_over_two_letters(self):
        table = brute_enumerator("W", 3, 2)
        assert table == MonomialTable(2, {(2, 1): T, (1, 2): T})

    def test_cyclic_degree_three(self):
        f = monomial_to_e(brute_enumerator("Wtilde", 3, 3))
        assert f == SymFun("e", 3, {(2, 1): T, (3,): LaurentPoly.t_power(2, 3)})

    def test_first_less_than_last_impossible_at_length_one(self):
        assert not brute_enumerator("Wless", 1, 4)

    def test_refinement_identities(self):
        for n in range(1, 7):
            for k in range(1, 6):
                less = brute_enumerator("Wless", n, k)
                greater = brute_enumerator("Wgreater", n, k)
                equal = brute_enumerator("Wequal", n, k)
                assert brute_enumerator("W", n, k) == less + greater + equal
                assert brute_enumerator("Wtilde", n, k) == less.scale(T) + greater + equal
                assert brute_enumerator("Wneq", n, k) == less + greater
                assert brute_enumerator("Wtildeneq", n, k) == less.scale(T) + greater

    def test_reversal_involution(self):
        for n in range(1, 7):
            for k in range(1, 6):
                less = brute_enumerator("Wless", n, k)
                greater = brute_enumerator("Wgreater", n, k)
                assert greater == less.map_coeffs(lambda p: p.reverse(n - 1))


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 5))
    directed = draw(st.booleans())
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=7)) if n > 1 else []
    if not directed:
        edges = [(min(e), max(e)) for e in edges]
    return Digraph(n, tuple(edges), directed)


@st.composite
def colored_digraphs(draw):
    """A digraph and a color count up to n + 2, so colors can go unused."""
    g = draw(digraphs())
    return g, draw(st.integers(1, g.n + 2))


class TestChromatic:
    @pytest.mark.parametrize(
        "family,lo", [(Digraph.path, 1), (Digraph.cycle, 2), (Digraph.directed_cycle, 2)]
    )
    def test_dp_matches_coloring_enumeration(self, family, lo):
        for n in range(lo, 8):
            g = family(n)
            for k in range(1, 7):
                table = chromatic_qsym(g, k)
                assert table == colorings_by_content(g, k)
                assert table == colorings_by_enumeration(g, k)

    @given(colored_digraphs())
    @settings(max_examples=80, deadline=None)
    def test_dp_matches_enumeration_on_any_digraph(self, case):
        g, k = case
        table = chromatic_qsym(g, k)
        assert table == colorings_by_content(g, k) == colorings_by_enumeration(g, k)

    def test_rejects_zero_colors(self):
        with pytest.raises(ValueError):
            chromatic_qsym(Digraph.path(2), 0)

    def test_path_is_word_enumerator(self):
        for n in range(1, 6):
            for k in range(1, 6):
                assert chromatic_qsym(Digraph.path(n), k) == brute_enumerator("W", n, k)

    def test_directed_cycle_is_cyclic_distinct_enumerator(self):
        for n in range(2, 6):
            for k in range(1, 6):
                assert chromatic_qsym(Digraph.directed_cycle(n), k) == brute_enumerator(
                    "Wtildeneq", n, k
                )

    def test_labeled_cycle_splits_by_endpoint(self):
        for n in range(2, 6):
            for k in range(1, 6):
                expected = brute_enumerator("Wless", n, k) + brute_enumerator(
                    "Wgreater", n, k
                ).scale(T)
                assert chromatic_qsym(Digraph.cycle(n), k) == expected

    def test_labeled_cycle_table_converts_to_e_basis(self):
        # symmetry is not a priori, so a successful conversion is the test
        for n in range(2, 7):
            monomial_to_e(chromatic_qsym(Digraph.cycle(n), n))

    def test_two_cycle_keeps_parallel_edge(self):
        table = chromatic_qsym(Digraph.cycle(2), 2)
        assert table == MonomialTable(2, {(1, 1): ONE + LaurentPoly.t_power(2)})

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Digraph(2, ((1, 1),))

    def test_triangle_against_direct_count(self):
        # proper colorings of the labeled triangle with distinct colors a<b<c
        # contribute t^inversions, summing to the t-factorial of 3
        table = chromatic_qsym(Digraph.cycle(3), 3)
        f = monomial_to_e(table)
        assert f == SymFun("e", 3, {(3,): (ONE + T) * (ONE + T + T * T)})


class TestRingColorings:
    # each family's key names its Digraph constructor
    def test_matches_reference_dp_at_every_n(self):
        for k in range(1, 9):
            rings = ring_colorings(8, k)
            assert set(rings) == {("path", 1)} | {
                (family, n) for family in ("path", "cycle", "directed_cycle") for n in range(2, 9)
            }
            for (family, n), table in rings.items():
                assert table == chromatic_qsym(getattr(Digraph, family)(n), k), (family, n, k)

    def test_matches_content_dp(self):
        # the content-vector DP never standardises colors to ranks; k = 7
        # leaves colors unused at every n
        for k in range(1, 8):
            for (family, n), table in ring_colorings(6, k).items():
                assert table == colorings_by_content(getattr(Digraph, family)(n), k), (family, n, k)

    def test_shorter_walk_is_a_prefix(self):
        long = ring_colorings(6, 4)
        assert all(long[key] == table for key, table in ring_colorings(4, 4).items())

    def test_rejects_zero_colors_as_the_reference_does(self):
        with pytest.raises(ValueError) as reference:
            chromatic_qsym(Digraph.path(2), 0)
        with pytest.raises(ValueError, match=f"^{reference.value}$"):
            ring_colorings(2, 0)


class TestPermStats:
    def test_examples(self):
        s = perm_stats((2, 3, 1))
        assert (s.exc, s.maj) == (2, 2)
        assert perm_stats(inverse_perm((2, 3, 1))).des2_set == frozenset({1})
        ident = perm_stats((1, 2, 3, 4))
        assert (ident.des, ident.cdes, ident.exc, ident.maj) == (0, 1, 0, 0)
        s = perm_stats((3, 2, 1))
        assert (s.maj, s.exc) == (3, 1)

    def test_singleton(self):
        s = perm_stats((1,))
        assert (s.des, s.cdes, s.exc, s.maj) == (0, 0, 0, 0)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            perm_stats((1, 1, 2))

    def test_set_invariants(self):
        for n in range(1, 7):
            for sigma in permutations_of(n):
                s = perm_stats(sigma)
                assert s.des2_set <= s.des_set
                assert not (s.asc2_set & s.des_set)
                assert s.maj == sum(s.des_set)
                assert s.maj2des == sum(s.des2_set)
                assert s.maj2asc == sum(s.asc2_set)
                assert s.cdes == s.des + (1 if sigma[-1] > sigma[0] else 0)


def random_rule(seed):
    """A three-class step rule that depends on everything it sees, stamping
    a tag from 1 to 3 at about a quarter of the appends."""

    def step(p, used, v):
        h = seed ^ (p * 0x9E3779B1 + used * 0x85EBCA77 + v * 0x27D4EB2F)
        h = h * 0x165667B1 % 2**32
        return h >> 8 & 3, h >> 10 & 3, h >> 12 & 3, h >> 14 & 3 if h % 3 == 0 else 0

    return step


class TestPermWalk:
    def test_descent_step_matches_perm_stats(self):
        for n in range(1, 7):
            width = math.factorial(n).bit_length()
            walk = perm_walk(n, width, lambda p, used, v: (0, 1, 1, 0))
            expected = Counter(perm_stats(sigma).des for sigma in permutations_of(n))
            assert packed_coeffs(sum(walk.values()), width) == dict(expected)

    def test_forbidden_steps_and_kept_endpoints(self):
        # placing 2 stamps whether 1 is already placed: the walk splits the
        # permutations by which comes first, and forbids no append
        def step(p, used, v):
            return 0, 0, 0, ("1 first" if used & 1 else "2 first") if v == 2 else 0

        walk = perm_walk(5, 7, step)
        expected = Counter(
            ("1 first" if sigma.index(1) < sigma.index(2) else "2 first", sigma[-1])
            for sigma in permutations_of(5)
        )
        assert walk == dict(expected)
        # stamping v keeps sigma(1): the stamp at p = 1 is the one a row takes
        walk = perm_walk(5, 7, lambda p, used, v: (0, 0, 0, v))
        assert walk == dict(Counter((sigma[0], sigma[-1]) for sigma in permutations_of(5)))

    @given(st.integers(0, 2**32), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_step_rule_matches_a_permutation_sweep(self, seed, n):
        step = random_rule(seed)
        width = 10  # no coefficient exceeds 6! = 720 < 2^10
        expected: dict = {}
        for sigma in permutations_of(n):
            used = last = slots = tag = 0
            for p, v in enumerate(sigma, start=1):
                below, next_up, above, stamp = step(p, used, v)
                slots += below if last < v else next_up if last == v + 1 else above
                tag = tag or stamp
                used, last = used | 1 << (v - 1), v
            expected[tag, last] = expected.get((tag, last), 0) + (1 << slots * width)
        assert perm_walk(n, width, step) == expected

    def test_first_is_zero_unless_kept(self):
        assert perm_walk(3, 3, lambda p, used, v: (0, 0, 0, 0)) == {(0, 1): 2, (0, 2): 2, (0, 3): 2}

    @given(st.integers(0, 2**32), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_random_step_rule_matches_the_reference_walk(self, seed, n):
        # the walk by (used set, last value) that the three-class walk replaced
        step = random_rule(seed)
        width = 13  # no coefficient exceeds 7! = 5040 < 2^13
        assert perm_walk(n, width, step) == reference_walk(n, width, three_class(step))

    def test_q_walk_steps_once_per_used_set_and_unused_value(self, monkeypatch):
        calls = []
        original = walks.perm_walk

        def counted(n, width, step):
            return original(n, width, lambda *args: calls.append(args) or step(*args))

        monkeypatch.setattr(walks, "perm_walk", counted)
        walks._q_walk.__wrapped__(8, "des", False)
        assert len(calls) == len(set(calls)) == 8 * 2**7  # n * 2^(n-1) pairs


class TestCompositions:
    def test_count_by_number_of_parts(self):
        for n in range(1, 9):
            for k in range(1, n + 2):
                expected = sum(math.comb(n - 1, ell - 1) for ell in range(1, min(k, n) + 1))
                assert len(compositions(n, k)) == expected

    def test_each_is_a_composition_once(self):
        for n in range(1, 8):
            for k in range(1, n + 2):
                comps = compositions(n, k)
                assert len(set(comps)) == len(comps)
                for alpha in comps:
                    assert sum(alpha) == n and min(alpha) >= 1 and len(alpha) <= k


class TestFundamentalF:
    def test_empty_set_is_complete_homogeneous(self):
        for n in range(1, 5):
            for k in range(1, 5):
                assert MonomialTable(k, fundamental_F(n, set(), k)) == expand_in_variables(
                    SymFun.generator("h", n), k
                )

    def test_full_set_is_elementary(self):
        for n in range(1, 5):
            for k in range(1, 6):
                full = MonomialTable(k, fundamental_F(n, set(range(1, n)), k))
                assert full == expand_in_variables(SymFun.generator("e", n), k)

    def test_single_strict_position(self):
        assert fundamental_F(3, {1}, 2) == {(2, 1): 1}

    def test_ones_specialization_examples(self):
        assert F_ones_specialization(3, set(), 1) == 1
        assert F_ones_specialization(3, {1}, 2) == 1
        assert F_ones_specialization(3, {1, 2}, 3) == math.comb(3, 3)

    def test_ones_specialization_matches_totals(self):
        for n in range(1, 7):
            for bits in range(1 << (n - 1)):
                S = {i + 1 for i in range(n - 1) if bits >> i & 1}
                for m in range(1, 5):
                    total = MonomialTable(m, fundamental_F(n, S, m)).sum_coeffs()
                    assert total == LaurentPoly.const(F_ones_specialization(n, S, m))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_principal_specialization_against_series(self, n):
        order = 10
        for bits in range(1 << (n - 1)):
            S = {i + 1 for i in range(n - 1) if bits >> i & 1}
            direct = F_principal_series(n, S, order)
            closed = QtPoly.q_power(sum(S)) * inverse_q_product(n, order)
            closed = QtPoly({e: c for e, c in closed.terms.items() if e <= order})
            assert direct == closed
