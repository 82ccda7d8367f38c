"""Command-line behavior: output shapes, determinism, exit codes."""

import __future__
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from smirnov import cli, combinat, exact, symfun, verify, walks
from smirnov import enumerators as en
from smirnov.exact import LaurentPoly, QtPoly, t_quantum
from smirnov.symfun import QsymTable, SymFun, SymSeries
from smirnov.verify import qexp
from smirnov.verify.counting import suite_counting
from smirnov.verify.oracle import suite_oracle
from smirnov.verify.powersum import suite_powersum
from monomial_reference import expand_in_variables
from record_reference import presented, records_line

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REFERENCE_RUNS = json.loads(REFERENCE.read_text())


def recompiled(fn, old, new):
    """``fn`` compiled again from its source with ``old`` replaced by ``new``
    (once), in a copy of its module's namespace: a mutant of one line."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(fn)))
    flags = __future__.annotations.compiler_flag
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec", flags=flags)
    exec(code, namespace)
    return namespace[fn.__name__]


ENUMERATOR_CACHES = [
    fn
    for module in (en, walks, combinat)
    for fn in vars(module).values()
    if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == module.__name__
]


@pytest.fixture
def fresh_caches():
    """Every lru_cache of enumerators, walks and combinat empty when the
    test starts and when it ends, so that a value computed under a patch
    neither hides the patch nor outlives it.  A test that patches anything a
    cached enumerator or word table reads uses this."""
    for fn in ENUMERATOR_CACHES:
        fn.cache_clear()
    yield
    for fn in ENUMERATOR_CACHES:
        fn.cache_clear()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_degree_five_cyclic_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--variant", "Wtilde", "--n", "5", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == en.closed_form("Wtilde", 5).to_json_obj()
        assert obj["basis"] == "e" and obj["degree"] == 5

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--variant", "Wless", "--n", "2")
        assert code == 0
        assert out.strip() == "e[2]  1"

    def test_byte_determinism(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "expand", "--variant", "W", "--n", "4", "--format", "json"
            )
            runs.append(out)
        assert runs[0] == runs[1]

    def test_expansion_into_variables(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "expand", "--variant", "W", "--n", "2", "--vars", "2", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["vars"] == 2
        assert {tuple(t["exponents"]): t["coeff"] for t in obj["terms"]} == {
            (1, 1): {"0": 1, "1": 1}
        }

    def test_basis_dispatch(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--variant", "W", "--n", "3", "--basis", "p", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["basis"] == "p/z"
        code, out, _ = run_cli(
            capsys, "expand", "--variant", "W", "--n", "3", "--basis", "F", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["degree"] == 3

    @pytest.mark.parametrize("basis", ["p", "F"])
    def test_vars_with_a_basis_that_has_no_table_is_rejected(self, capsys, basis):
        with pytest.raises(SystemExit) as info:
            cli.main(["expand", "--variant", "W", "--n", "3", "--basis", basis, "--vars", "3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--vars" in err and f"basis {basis}" in err

    @pytest.mark.parametrize("variant", en.VARIANTS)
    def test_vars_table_matches_orbit_writer(self, capsys, variant):
        # expand --vars writes its table from the compositions; the orbit
        # writer of expand_in_variables is the independent reference
        for n in range(2 if variant in ("Wneq", "XC") else 1, 7):
            for k in sorted({1, 2, n, 8}):
                table = expand_in_variables(en.closed_form(variant, n), k)
                argv = ("expand", "--variant", variant, "--n", str(n), "--vars", str(k))
                _, out, _ = run_cli(capsys, *argv, "--format", "json")
                assert out == json.dumps(table.to_json_obj(), separators=(",", ":")) + "\n"
                _, out, _ = run_cli(capsys, *argv)
                assert out == table.pretty() + "\n"

    def test_variant_aliases(self, capsys):
        for alias in ("Wtilde", "wtilde", "W~"):
            code, out, _ = run_cli(
                capsys, "expand", "--variant", alias, "--n", "3", "--format", "json"
            )
            assert code == 0
            assert json.loads(out) == en.closed_form("Wtilde", 3).to_json_obj()


class TestExpansionVerbs:
    """``powersum`` and ``fexpand`` print what ``expand --basis p|F`` prints,
    usage errors included."""

    @staticmethod
    def outcome(capsys, *argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("variant", en.VARIANTS)
    @pytest.mark.parametrize("verb, basis", [("powersum", "p"), ("fexpand", "F")])
    def test_verb_matches_expand_with_basis(self, capsys, verb, basis, variant, fmt):
        for n in range(0, 5):
            args = ("--variant", variant, "--n", str(n), "--format", fmt)
            assert self.outcome(capsys, verb, *args) == self.outcome(
                capsys, "expand", *args, "--basis", basis
            )

    def test_monomial_table_text(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--variant", "W", "--n", "3", "--vars", "3")
        assert code == 0
        assert out == (
            "x^(2,1,0)  t\n"
            "x^(2,0,1)  t\n"
            "x^(1,2,0)  t\n"
            "x^(1,1,1)  1 + 4*t + t^2\n"
            "x^(1,0,2)  t\n"
            "x^(0,2,1)  t\n"
            "x^(0,1,2)  t\n"
        )

    def test_fundamental_expansion_text(self, capsys):
        code, out, _ = run_cli(capsys, "fexpand", "--variant", "Wless", "--n", "3")
        assert code == 0
        assert out == "F[3,{}] + 2*t*F[3,{}]\n"


class TestQEuler:
    def test_root_evaluation_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "qeuler", "--variant", "Atilde", "--n", "3", "--q-root", "3"
        )
        assert code == 0
        assert out.strip() == "3*t^2"

    def test_polynomial_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "qeuler", "--variant", "Ades", "--n", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == en.q_eulerian("Ades", 3).to_json_obj()

    def test_roots_verb_reports_routes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "roots", "--variant", "Aless", "--n", "4", "--q-root", "2", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["agree"] is True
        assert obj["via_eval"] == obj["closed"] == obj["recursion"]


class TestVerify:
    def test_help_lists_the_verify_flags_and_bad_suites_are_usage_errors(self, capsys):
        # the parser adds these only for the verify verb
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "-h"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "--suite {all," + ",".join(verify.SUITES) + "}" in out
        for flag in ("--max-n MAX_N", "--vars VARS", "--max-order MAX_ORDER"):
            assert flag in out
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "bogus"])
        assert info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_transfer_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "transfer")
        assert code == 0
        assert "checks passed" in out

    def test_small_all_run_is_green(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "oracle", "--max-n", "3", "--vars", "4", "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert records and all(r["status"] == "pass" for r in records)
        assert set(records[0]) == {"check", "params", "status", "lhs", "rhs"}

    def test_mutated_formula_flips_exit_code(self, capsys, monkeypatch):
        # top-coefficient reads Wneq and XC's p_n / n coefficients from the
        # power sum forms of Wless and Wgreater
        old = "(n - i) * s.coeff(n - i)"
        mutated = recompiled(en.powersum_form.__wrapped__, old, "(n - i + 1) * s.coeff(n - i)")
        monkeypatch.setattr(en, "powersum_form", mutated)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "powersum", "--max-n", "2", "--format", "json"
        )
        assert code == 1
        assert "top-coefficient" in {r["check"] for r in json.loads(out) if r["status"] == "fail"}

    def oracle_suite_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "oracle", "--max-n", "4", "--vars", "4", "--format", "json",
        )
        assert (code == 1) == any(r["status"] == "fail" for r in json.loads(out))
        return code

    def test_dropped_wrap_descent_flips_exit_code(self, capsys, monkeypatch):
        original = combinat.brute_enumerator
        acyclic = {"Wtilde": "W", "Wtildeneq": "Wneq"}
        monkeypatch.setattr(
            combinat,
            "brute_enumerator",
            lambda variant, n, k: original(acyclic.get(variant, variant), n, k),
        )
        assert self.oracle_suite_exit_code(capsys) == 1

    @pytest.mark.parametrize(
        "perturb",
        [
            # the directed closing arc n -> 1 counted as the labeled edge {1, n}
            lambda rings: {
                (family, n): rings["cycle" if family == "directed_cycle" else family, n]
                for family, n in rings
            },
            # cycle(2) with its two edges merged into one is the path on 2 vertices
            lambda rings: {**rings, ("cycle", 2): rings["path", 2]},
        ],
        ids=["orientation-ignored", "parallel-edges-merged"],
    )
    def test_perturbed_coloring_oracle_flips_exit_code(self, capsys, monkeypatch, perturb):
        original = combinat.ring_colorings
        monkeypatch.setattr(combinat, "ring_colorings", lambda n, k: perturb(original(n, k)))
        assert self.oracle_suite_exit_code(capsys) == 1

    def test_each_word_table_is_built_once(self, capsys, monkeypatch):
        original = combinat.brute_enumerator
        calls = []

        def counted(variant, n, k):
            calls.append((variant, n, k))
            return original(variant, n, k)

        monkeypatch.setattr(combinat, "brute_enumerator", counted)
        assert self.oracle_suite_exit_code(capsys) == 0
        words = {(v, n, 4) for v in en.VARIANTS if v != "XC" for n in range(1, 5)}
        assert len(calls) == len(set(calls)) and set(calls) == words

    def test_each_coloring_table_is_built_once(self, capsys, monkeypatch):
        # one walk serves the path and both cycles at every n, and the
        # library has no other coloring DP
        original = combinat.ring_colorings
        calls = []

        def counted(max_n, k):
            calls.append((max_n, k))
            return original(max_n, k)

        monkeypatch.setattr(combinat, "ring_colorings", counted)
        assert self.oracle_suite_exit_code(capsys) == 0
        assert calls == [(4, 4)]
        assert not hasattr(combinat, "chromatic_qsym") and not hasattr(combinat, "Digraph")

    @pytest.mark.parametrize("nvars", ["4", "2"], ids=["vars-at-least-n", "vars-below-n"])
    def test_word_value_at_partitions_only_flips_exit_code(self, capsys, monkeypatch, nvars):
        # a word value is compared at every composition, whether its record
        # shows the e basis (vars >= n) or the k-variable table (vars < n);
        # one that keeps only its coefficients at partitions must fail
        original = combinat.brute_enumerator

        def at_partitions(variant, n, k):
            terms = original(variant, n, k).terms
            return QsymTable(k, {a: c for a, c in terms.items() if list(a) == sorted(a)[::-1]})

        monkeypatch.setattr(combinat, "brute_enumerator", at_partitions)
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "oracle", "--max-n", "4", "--vars", nvars, "--format", "json",
        )
        failed = [r["params"] for r in json.loads(out) if r["status"] == "fail"]
        assert code == 1 and failed
        assert all((p["n"] > p["vars"]) == (nvars == "2") for p in failed)

    def test_gap_off_by_one_in_rank_dp_flips_exit_code(self, capsys, monkeypatch):
        # a new color in gap g lifts the ranks from g up, vertex 1's included;
        # lifting only those above g leaves vertex 1 one rank too low
        mutated = recompiled(combinat.ring_colorings, "first >= g", "first > g")
        assert mutated(3, 3)["cycle", 3] != combinat.ring_colorings(3, 3)["cycle", 3]
        monkeypatch.setattr(combinat, "ring_colorings", mutated)
        assert self.oracle_suite_exit_code(capsys) == 1

    def test_equal_gap_without_descent_flips_exit_code(self, capsys, monkeypatch):
        # a run of the new largest letter L between x = y makes x L..L x, one
        # descent more; an equal gap that adds none undercounts those words
        before = combinat.brute_enumerator("W", 3, 3)
        mutated = recompiled(combinat._gap_moves.__wrapped__, "(b, 1, 1, 0)", "(b, 0, 1, 0)")
        monkeypatch.setattr(combinat, "_gap_moves", mutated)
        combinat._insertion_ends.cache_clear()
        combinat.brute_enumerator.cache_clear()
        try:
            assert combinat.brute_enumerator("W", 3, 3) != before
            assert self.oracle_suite_exit_code(capsys) == 1
        finally:
            combinat._insertion_ends.cache_clear()
            combinat.brute_enumerator.cache_clear()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "oracle", "--max-n", "4", "--vars", "4"],
            ["--suite", "oracle", "--max-n", "4", "--vars", "2"],
            ["--suite", "f", "--max-n", "4"],
            ["--suite", "powersum", "--max-n", "4"],
        ],
        ids=["oracle", "oracle-vars-below-n", "f", "powersum"],
    )
    def test_closed_form_spread_to_partitions_only_flips_exit_code(
        self, capsys, monkeypatch, argv
    ):
        # each m_mu coefficient of a closed form belongs at every composition
        # that sorts to mu; writing it at mu alone must fail
        monkeypatch.setattr(
            importlib.import_module("smirnov.verify." + argv[1]),
            "expand_at_compositions",
            lambda f, k: QsymTable(k, symfun._m_sums(f, k)),
        )
        code, _, _ = run_cli(capsys, "verify", *argv)
        assert code == 1

    @pytest.mark.parametrize(
        "basis, argv",
        [
            ("e", ["--suite", "oracle", "--max-n", "4", "--vars", "4"]),
            ("h", ["--suite", "f", "--max-n", "4"]),
            ("p", ["--suite", "powersum", "--max-n", "4"]),
        ],
        ids=["e-count-oracle", "h-count-f", "p-count-powersum"],
    )
    def test_bumped_transition_count_flips_exit_code(self, capsys, monkeypatch, basis, argv):
        # the closed forms reach k variables through these counts; a wrong
        # one must show against the word, F-expansion and brute-force sides
        original = symfun._m_coeff
        assert original(basis, (2, 1), (2, 1))

        def bumped(b, lam, mu):
            return original(b, lam, mu) + (b == basis and lam == mu == (2, 1))

        monkeypatch.setattr(symfun, "_m_coeff", bumped)
        original.cache_clear()
        symfun._e_in_m.cache_clear()
        try:
            code, _, _ = run_cli(capsys, "verify", *argv)
        finally:
            original.cache_clear()
            symfun._e_in_m.cache_clear()
        assert code == 1

    def test_shifted_denominator_fails_transfer(self, capsys, monkeypatch, fresh_caches):
        monkeypatch.setattr(en, "t_quantum", lambda n: t_quantum(n + 1))
        code, _, _ = run_cli(capsys, "verify", "--suite", "transfer")
        assert code == 1

    def test_shifted_root_value_fails_roots(self, capsys, monkeypatch):
        original = walks.eval_at_root_of_unity
        monkeypatch.setattr(walks, "eval_at_root_of_unity", lambda f, k: original(f, k) + exact.ONE)
        code, _, _ = run_cli(capsys, "verify", "--suite", "roots")
        assert code == 1

    def test_shifted_recursion_alone_fails_roots(self, capsys, monkeypatch):
        # via_eval and closed stay equal, so only the recursion route can
        # fail a record: the verdict over every route must reach each caller
        original = walks._eulerian_at_root
        monkeypatch.setattr(walks, "_eulerian_at_root", lambda n, k: original(n, k) + exact.ONE)
        code, out, _ = run_cli(capsys, "verify", "--suite", "roots", "--format", "json")
        assert code == 1
        failed = [r for r in json.loads(out) if r["status"] == "fail"]
        assert failed and all(r["lhs"] == r["rhs"] for r in failed)
        assert {r["params"]["kind"] for r in failed} == {"Aless", "Atilde"}
        code, out, _ = run_cli(
            capsys, "roots", "--variant", "Aless", "--n", "4", "--q-root", "2", "--format", "json"
        )
        assert code == 1 and '"agree":false' in out
        with pytest.raises(AssertionError):
            en.root_of_unity("Aless", 4, 2)

    def test_perturbed_h_series_fails_series(self, capsys, monkeypatch):
        original = SymSeries.h_series_p

        def h_series_p(order):
            coeffs = original(order).coeffs
            coeffs[2] = coeffs[2] + SymFun("p/z", 2, {(2,): 1})
            return SymSeries(coeffs)

        monkeypatch.setattr(SymSeries, "h_series_p", staticmethod(h_series_p))
        code, out, _ = run_cli(capsys, "verify", "--suite", "series", "--format", "json")
        assert code == 1
        failed = [r for r in json.loads(out) if r["status"] == "fail"]
        assert {r["check"] for r in failed} == {"h-ratio-power", "eulerian-powersum-series"}
        powers = [r["params"]["power"] for r in failed if r["check"] == "h-ratio-power"]
        assert powers == [1]  # only power 1 reads H; powers 2 and 3 multiply closed powers

    def powersum_failures(self, capsys) -> list[dict]:
        code, out, _ = run_cli(capsys, "verify", "--suite", "powersum", "--max-n", "3", "--format", "json")
        failed = [r for r in json.loads(out) if r["status"] == "fail"]
        assert (code == 1) == bool(failed)
        return failed

    def test_perturbed_h_series_fails_powersum_extraction(self, capsys, monkeypatch, fresh_caches):
        # every step's division by 1 - t stays exact, so the wrong H shows
        # as a wrong power sum form, not as an error
        original = SymSeries.h_series_p

        def h_series_p(order):
            coeffs = original(order).coeffs
            if order >= 2:
                coeffs[2] = coeffs[2] + SymFun("p/z", 2, {(1, 1): 1})
            return SymSeries(coeffs)

        monkeypatch.setattr(SymSeries, "h_series_p", staticmethod(h_series_p))
        failed = self.powersum_failures(capsys)
        assert [(r["check"], r["params"]) for r in failed] == [
            ("powersum-extraction", {"n": 2}),
            ("powersum-extraction", {"n": 3}),
        ]

    def test_bumped_endpoint_weight_fails_abc_checks(self, capsys, monkeypatch, fresh_caches):
        original = en.abc

        def abc(i):
            a, b, c = original(i)
            return a, b + exact.T if i == 4 else b, c

        monkeypatch.setattr(en, "abc", abc)
        failed = [r for r in self.powersum_failures(capsys) if r["check"].startswith("abc-")]
        assert [(r["check"], r["params"]) for r in failed] == [
            ("abc-sum", {"i": 4}),
            ("abc-cyclic-sum", {"i": 4}),
            ("abc-reversal", {"i": 4}),
        ]

    def test_dropped_binomial_factor_fails_series(self, capsys, monkeypatch, fresh_caches):
        # products against p / z carry the structure constant
        # prod_i C(m_i(lam) + m_i(mu), m_i(lam)); a product without it must
        # fail the power sum series checks
        monkeypatch.setattr(
            symfun, "_product_key", lambda lam, mu, basis: (symfun.merge(lam, mu), 1)
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "series", "--format", "json")
        assert code == 1
        failed = [r for r in json.loads(out) if r["status"] == "fail"]
        assert {r["check"] for r in failed} == {"h-ratio-power", "eulerian-powersum-series"}
        powers = [r["params"]["power"] for r in failed if r["check"] == "h-ratio-power"]
        assert powers == [1, 2, 3]

    def series_failures(self, capsys) -> set:
        code, out, _ = run_cli(capsys, "verify", "--suite", "series", "--format", "json")
        failed = {r["check"] for r in json.loads(out) if r["status"] == "fail"}
        assert (code == 1) == bool(failed)
        return failed

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("numerator_weight", "return abc(i)[0] if", "return abc(i)[1] if"),
            ("denominator_weight", "T * t_quantum(i - 1)", "T * t_quantum(i)"),
        ],
        ids=["numerator", "denominator"],
    )
    def test_wrong_weight_fails_oracle_and_cleared_forms(
        self, capsys, monkeypatch, fresh_caches, name, old, new
    ):
        # the quotient identities read the weights on both of their sides, so
        # a wrong weight must show against the words and the cleared forms
        monkeypatch.setattr(en, name, recompiled(getattr(en, name), old, new))
        assert self.oracle_suite_exit_code(capsys) == 1
        assert "series-cleared" in self.series_failures(capsys)

    def test_wrong_multinomial_fails_geometric_inverse_and_quotient(
        self, capsys, monkeypatch, fresh_caches
    ):
        # l(mu)! orderings without dividing by the repeats: e_2 e_2 counted twice
        mutated = recompiled(
            en.geometric_form.__wrapped__, "symfun.orbit_size(mu)", "math.factorial(len(mu))"
        )
        monkeypatch.setattr(en, "geometric_form", mutated)
        assert {"series-geometric-inverse", "series-quotient"} <= self.series_failures(capsys)

    def test_stray_end_term_fails_weight_palindromic(self, monkeypatch, fresh_caches):
        # 4 at (2, 2) adds t^0 to the weight s = c / 4 and no t^4: its
        # interior coefficients stay palindromic, but its shown sides differ.
        # 1 there leaves c with no integral weight c / 4: a failed record too
        original = en.powersum_form
        for stray in (4, 1):

            def powersum_form(variant, n):
                out = original(variant, n)
                if (variant, n) == ("Wtildeneq", 4):
                    return out + SymFun("p/z", 4, {(2, 2): stray})
                return out

            monkeypatch.setattr(en, "powersum_form", powersum_form)
            [record] = [
                r
                for r in suite_powersum(1)
                if r["check"] == "powersum-weight-palindromic" and r["params"] == {"n": 4, "partition": [2, 2]}
            ]
            assert record["lhs"] != record["rhs"] and record["status"] == "fail", stray

    def test_perturbed_cyclic_form_fails_unimodal(self, capsys, monkeypatch):
        original = en.closed_form

        def closed_form(variant, n):
            out = original(variant, n)
            return out + SymFun.generator("e", n) if variant == "Wtilde" else out

        monkeypatch.setattr(en, "closed_form", closed_form)
        code, _, _ = run_cli(capsys, "verify", "--suite", "unimodal")
        assert code == 1

    def test_dropped_wrap_descent_fails_counting(self, capsys, monkeypatch):
        original = combinat.brute_enumerator
        monkeypatch.setattr(
            combinat,
            "brute_enumerator",
            lambda variant, n, k: original("W" if variant == "Wtilde" else variant, n, k),
        )
        code, _, _ = run_cli(capsys, "verify", "--suite", "counting")
        assert code == 1

    def test_counting_reads_one_word_table_per_variant_and_n(self, monkeypatch):
        # the count over m letters is read from the table in n variables
        original = combinat.brute_enumerator
        calls = []

        def counted(variant, n, k):
            calls.append((variant, n, k))
            return original(variant, n, k)

        monkeypatch.setattr(combinat, "brute_enumerator", counted)
        records = suite_counting()
        assert records and verify.all_pass(records)
        assert len(calls) == 18
        assert set(calls) == {(v, n, n) for v in ("W", "Wless", "Wtilde") for n in range(1, 7)}

    def test_counting_sweeps_no_permutation(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("the counting suite swept permutations")

        monkeypatch.setattr(qexp, "permutations_of", sweep)
        monkeypatch.setattr(qexp, "perm_stats", sweep)
        records = suite_counting()
        assert records and all(r["status"] == "pass" for r in records)

    @pytest.mark.parametrize(
        "module, table, variant, rule",
        [
            (walks, "ENDPOINT_RULES", "Wtilde", {"<": 0, ">": 0, "=": 0}),
            (walks, "F_REVERSED", "Wgreater", "Wgreater"),  # its own '>' drops walk
        ],
        ids=["wrap-t-dropped", "rises-read-as-drops"],
    )
    def test_mutated_f_walk_fails_f_suite(
        self, capsys, monkeypatch, fresh_caches, module, table, variant, rule
    ):
        # the endpoint table also feeds q_eulerian, whose cached values the
        # f suite reads; a wrong cached Atilde must not outlive this test
        monkeypatch.setitem(getattr(module, table), variant, rule)
        code, _, _ = run_cli(capsys, "verify", "--suite", "f", "--max-n", "4")
        assert code == 1

    @pytest.mark.parametrize(
        "variant, rule, failing",
        [
            ("W", {"<": 0, ">": 0}, {"refinement-all", "oracle", "chromatic-path"}),
            ("Wneq", {"<": 0, ">": 0, "=": 0}, {"refinement-distinct", "oracle"}),
        ],
        ids=["W-without-equal-ends", "Wneq-with-equal-ends"],
    )
    def test_mutated_endpoint_rule_fails_refinement(
        self, monkeypatch, fresh_caches, variant, rule, failing
    ):
        # the word tables read the endpoint table; the refinement checks sum
        # the tables of Wless, Wgreater and Wequal, which it leaves as they are
        monkeypatch.setitem(walks.ENDPOINT_RULES, variant, rule)
        records = suite_oracle(4, 4)
        assert {r["check"] for r in records if r["status"] == "fail"} == failing

    @pytest.mark.parametrize(
        "kept_only, argv, failing",
        [
            (False, ("--suite", "counting"), {"counting-des", "counting-des-first-less"}),
            (False, ("--suite", "qexp"), {"interpretation-equality"}),
            # only the keep-first walks: mutated in every walk, the f suite
            # fails only f-vs-closed, because the F walk and the q walk move
            # together and so do both sides of f-principal-numerator
            (True, ("--suite", "f", "--max-n", "5"), {"f-principal-numerator"}),
        ],
        ids=["counting", "qexp", "f-keep-first"],
    )
    def test_walk_step_middle_class_as_upper_fails(
        self, capsys, monkeypatch, fresh_caches, kept_only, argv, failing
    ):
        # the step's middle class (last = v + 1) takes the upper class's shift;
        # a keep-first walk stamps v = 1 with 1, an F walk with a class or 0
        original = walks.perm_walk

        def mutated(n, width, step):
            if step(1, 0, 1)[3] == 1 or not kept_only:
                rule = step

                def step(p, used, v):
                    below, _, above, stamp = rule(p, used, v)
                    return below, above, above, stamp

            return original(n, width, step)

        monkeypatch.setattr(walks, "perm_walk", mutated)
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 1
        assert failing <= {r["check"] for r in json.loads(out) if r["status"] == "fail"}

    def test_q_walk_stamping_no_first_value_fails_qexp(self, capsys, monkeypatch, fresh_caches):
        # the q step stamps 0 where it keeps the first value, so every
        # permutation of Aless and Atilde reads as class '<' (0 < last)
        original = walks.perm_walk

        def mutated(n, width, step):
            def lost(p, used, v):
                *shifts, stamp = step(p, used, v)
                return *shifts, 0 if isinstance(stamp, int) else stamp

            return original(n, width, lost)

        monkeypatch.setattr(walks, "perm_walk", mutated)
        code, out, _ = run_cli(capsys, "verify", "--suite", "qexp", "--format", "json")
        assert code == 1
        failed = {r["check"] for r in json.loads(out) if r["status"] == "fail"}
        assert failed == {"endpoint-at-one", "cyclic-at-one", "qexp-identity"}

    @pytest.mark.parametrize(
        "argv, failing",
        [
            (("--suite", "f", "--max-n", "5"), {"f-vs-closed", "f-principal-numerator"}),
            (("--suite", "counting"), {"counting-des-first-less", "counting-cdes"}),
        ],
        ids=["f", "counting"],
    )
    def test_f_walk_stamping_swapped_classes_fails(
        self, capsys, monkeypatch, fresh_caches, argv, failing
    ):
        # the F step stamps '>' where 1 is placed before n, and '<' where not
        original = walks.perm_walk
        swap = {"<": ">", ">": "<"}

        def mutated(n, width, step):
            def swapped(p, used, v):
                *shifts, stamp = step(p, used, v)
                return *shifts, swap.get(stamp, stamp)

            return original(n, width, swapped)

        monkeypatch.setattr(walks, "perm_walk", mutated)
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 1
        assert {r["check"] for r in json.loads(out) if r["status"] == "fail"} == failing

    def test_m_alpha_rule_as_equality_fails_f_suite(self, capsys, monkeypatch):
        # S == cuts instead of S within the cuts: F_{n,S} read as M_alpha.
        # Reading the cuts from alpha's first part instead of its last still
        # passes here, because this suite compares symmetric sums; only
        # TestFExpansion's comparison with fundamental_F pins that orientation.
        monkeypatch.setattr(walks, "_subset_sums", list)
        code, _, _ = run_cli(capsys, "verify", "--suite", "f", "--max-n", "4")
        assert code == 1

    def test_dropped_cyclic_wrap_fails_qexp(self, capsys, monkeypatch, fresh_caches):
        monkeypatch.setitem(walks.Q_RULES, "Atilde", ("W", "des"))
        code, _, _ = run_cli(capsys, "verify", "--suite", "qexp")
        assert code == 1

    def test_moved_q_weight_fails_qexp(self, capsys, monkeypatch):
        # one unit of q-weight moves up in Aless at n = 5, so the value at
        # q = 1 stays: only the identities, compared at one integer point
        # where q is a power of t, can see it
        original = en.q_eulerian

        def moved(kind, n):
            value = original(kind, n)
            if (kind, n) != ("Aless", 5):
                return value
            a = min(value.terms)
            b = min(value.coeff(a).terms)
            unit = LaurentPoly.t_power(b)
            return value + QtPoly.q_power(a + 1, unit) - QtPoly.q_power(a, unit)

        assert moved("Aless", 5).at_q_one() == original("Aless", 5).at_q_one()
        monkeypatch.setattr(en, "q_eulerian", moved)
        code, out, _ = run_cli(capsys, "verify", "--suite", "qexp", "--format", "json")
        assert code == 1
        status = {(r["check"], json.dumps(r["params"])): r["status"] for r in json.loads(out)}
        assert status["endpoint-at-one", '{"n": 5}'] == "pass"
        assert status["qexp-identity", '{"kind": "Aless", "order": 8}'] == "fail"
        assert [key for key, value in status.items() if value == "fail"] == [
            ("qexp-identity", '{"kind": "Aless", "order": 8}')
        ]

    def test_qexp_walks_once_per_n_for_aless_and_atilde(self, capsys, monkeypatch, fresh_caches):
        runs = []
        original = walks.perm_walk

        def counted(n, width, step):
            runs.append((n, step(1, 0, 1)[3] == 1))  # a keep-first walk stamps v
            return original(n, width, step)

        monkeypatch.setattr(walks, "perm_walk", counted)
        code, _, _ = run_cli(capsys, "verify", "--suite", "qexp")
        assert code == 0
        kept = sorted(n for n, keep_first in runs if keep_first)
        assert kept == list(range(1, 9))  # one for both kinds at each n

    def test_f_suite_walks_once_per_n(self, capsys, monkeypatch, fresh_caches):
        runs = []
        original = walks.perm_walk

        def counted(n, width, step):
            runs.append(n)
            return original(n, width, step)

        monkeypatch.setattr(walks, "perm_walk", counted)
        code, _, _ = run_cli(capsys, "verify", "--suite", "f", "--max-n", "8")
        assert code == 0
        # F: one walk stamped by endpoint class at each n; q: Ades and the
        # keep-first "des" walk of Aless and Atilde at each n
        assert len(runs) == 8 + 2 * 8 == 24

    def test_enumerator_caches_are_all_known(self):
        names = {fn.__name__ for fn in ENUMERATOR_CACHES}
        series = {"denominator_series", "geometric_form", "_closed_degree", "closed_series"}
        forms = {"closed_form", "_quantum_product", "powersum_form", "f_expansion"}
        words = {"_gap_moves", "_insertion_ends", "brute_enumerator"}
        assert names == series | forms | words | {"q_eulerian", "_q_walk", "_f_walk"}

    def test_all_suites_compute_each_form_once(self, capsys, monkeypatch, fresh_caches):
        # verify --suite all asks for some power sum and F forms several
        # times; each distinct argument is computed once
        calls = {"powersum_form": [], "f_expansion": []}
        cached = {name: getattr(en, name) for name in calls}
        for name, args in calls.items():
            monkeypatch.setattr(
                en, name, lambda *a, fn=cached[name], args=args: args.append(a) or fn(*a)
            )
        code, _, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        for name, args in calls.items():
            info = cached[name].cache_info()
            assert len(set(args)) < len(args)
            assert info.misses == info.currsize == len(set(args)), name
            assert info.hits == len(args) - len(set(args)), name

    def test_all_suites_build_each_word_table_once(self, fresh_caches):
        # the power sum and counting suites both read the 15 tables of W,
        # Wless and Wtilde at n <= 5 in n variables; each is built once
        records = verify.run_suites(verify.SUITES)
        assert verify.all_pass(records)
        info = combinat.brute_enumerator.cache_info()
        assert (info.misses, info.hits) == (63, 15)

    def test_all_suites_json_matches_reference_digest(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
        reference = REFERENCE_RUNS["verify --suite all --format json"]
        assert code == reference["exit"] == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:32] == reference["stdout"]

    def test_raised_caps_leave_the_default_json(self, capsys, monkeypatch, fresh_caches):
        # a cap bounds what the library may compute; no suite sweeps to it
        monkeypatch.setitem(en.LIMITS, "n", 10)
        monkeypatch.setitem(en.LIMITS, "vars", 10)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
        reference = REFERENCE_RUNS["verify --suite all --format json"]
        assert code == reference["exit"] == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:32] == reference["stdout"]

    def test_deep_oracle_json_matches_reference_digest(self, capsys):
        command = "verify --suite oracle --max-n 7 --vars 6 --format json"
        code, out, _ = run_cli(capsys, *command.split())
        reference = REFERENCE_RUNS[command]
        assert code == reference["exit"] == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:32] == reference["stdout"]

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("roots", "--max-n", "3"),
            ("transfer", "--vars", "1"),
            ("qexp", "--max-n", "4"),
            ("f", "--vars", "6"),
            ("oracle", "--max-order", "8"),
            ("series", "--max-n", "5"),
            ("unimodal", "--max-order", "4"),
            ("counting", "--vars", "3"),
            ("powersum", "--max-order", "2"),
        ],
    )
    def test_flag_the_suite_does_not_read_is_rejected(self, capsys, suite, flag, value):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", suite, flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and f"suite {suite}" in err

    def test_explicit_default_matches_implicit(self, capsys):
        implicit = run_cli(capsys, "verify", "--suite", "f", "--format", "json")
        explicit = run_cli(capsys, "verify", "--suite", "f", "--max-n", "5", "--format", "json")
        assert explicit == implicit and implicit[0] == 0

    def test_all_accepts_every_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--max-n", "2", "--vars", "2", "--max-order", "2"
        )
        assert code == 0
        assert out.endswith("checks passed\n")

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "nonsense"])
        assert info.value.code == 2


class TestRecords:
    """A record passes exactly when its shown sides are equal; only the
    checks whose condition is wider than those sides say otherwise."""

    WIDER = {
        "powersum-vs-brute",
        "f-vs-closed",
        "root-of-unity",
        "cycle-even-corrected",
        "cyclic-coefficient-smallest-part-one",
        "cyclic-coefficient-rectangle",
    }

    @pytest.fixture
    def presentations(self, monkeypatch):
        """The tables that ``records_json`` hands to ``monomial_to_e``."""
        shown = []
        original = verify.monomial_to_e
        monkeypatch.setattr(verify, "monomial_to_e", lambda x: shown.append(x) or original(x))
        return shown

    def test_status_is_the_comparison_of_the_shown_sides(self):
        records = json.loads(verify.records_json(verify.run_suites(verify.SUITES)))
        assert self.WIDER <= {r["check"] for r in records}
        narrow = [r for r in records if r["check"] not in self.WIDER]
        assert narrow
        for r in narrow:
            assert (r["status"] == "pass") == (r["lhs"] == r["rhs"]), r

    @pytest.mark.parametrize(
        "argv",
        [("--suite", "all"), ("--suite", "oracle", "--max-n", "5", "--vars", "3")],
        ids=["all", "oracle-tables"],
    )
    def test_text_status_agrees_with_json_and_presents_nothing(self, capsys, monkeypatch, argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        records = json.loads(out)

        def refuse(*args):
            raise AssertionError("a text run presented a value")

        monkeypatch.setattr(verify, "monomial_to_e", refuse)
        monkeypatch.setattr(symfun, "monomial_to_e", refuse)
        text_code, text, _ = run_cli(capsys, "verify", *argv)
        assert text_code == code == 0
        *lines, total = text.splitlines()
        assert len(lines) == len(records)
        for line, r in zip(lines, records):
            assert line.split()[:2] == [r["status"].upper(), r["check"]], line
        passed = sum(r["status"] == "pass" for r in records)
        assert total == f"{passed}/{len(records)} checks passed"

    def test_record_compares_its_sides_and_shares_equal_tables(self, presentations):
        closed = symfun.expand_at_compositions(en.closed_form("W", 3), 3)
        oracle = combinat.brute_enumerator("W", 3, 3)
        same = verify._record("oracle", {}, closed, oracle)
        assert same["status"] == "pass" and same["lhs"] is closed and same["rhs"] is oracle
        [shown] = json.loads(verify.records_json([same]))
        assert shown["lhs"] == shown["rhs"] and len(presentations) == 1
        differ = verify._record("oracle", {}, closed, oracle.scale(exact.T))
        assert differ["status"] == "fail"
        [shown] = json.loads(verify.records_json([differ]))
        assert shown["lhs"] != shown["rhs"] and len(presentations) == 3
        assert verify._record("wider", {}, 1, 2, ok=True)["status"] == "pass"
        assert verify._record("wider", {}, 1, 1, ok=False)["status"] == "fail"

    def test_record_reuses_the_presentation_of_a_value_seen(self, presentations):
        closed = symfun.expand_at_compositions(en.closed_form("W", 3), 3)
        oracle = combinat.brute_enumerator("W", 3, 3)
        path = combinat.ring_colorings(3, 3)["path", 3]
        records = [
            verify._record("oracle", {}, closed, oracle),
            # the other side equals a value seen, or the side is one
            verify._record("chromatic-path", {}, path, oracle),
            verify._record("refinement", {}, oracle, path),
            # an unequal other side is not taken for the side shown
            verify._record("oracle", {}, oracle.scale(exact.T), oracle),
        ]
        line = verify.records_json(records)
        assert line == records_line(records)
        assert presentations == [closed, records[3]["lhs"]]
        shown = json.loads(line)
        assert shown[3]["status"] == "fail" and shown[3]["lhs"] == presented(oracle.scale(exact.T))
        assert shown[3]["rhs"] == shown[0]["lhs"]

    def test_oracle_suite_presents_only_its_oracle_sides(self, presentations):
        # every later record shows a word or coloring table equal to an
        # oracle record's side, and reuses its presentation; only Wneq at
        # n = 1, which has no oracle record, is presented on its own.  Each
        # call presents afresh.
        records = suite_oracle(4, 4)
        assert verify.all_pass(records)
        tables = sum(r["check"] == "oracle" for r in records) + 1
        for calls in (1, 2):
            verify.records_json(records)
            assert len(presentations) == calls * tables

    @staticmethod
    def assert_encoded_as_json_dumps(records):
        line = verify.records_json(records)
        expected = records_line(records)
        if line != expected:  # name the first differing byte, not a diff of a megabyte
            at = len(os.path.commonprefix([line, expected]))
            pytest.fail(f"records_json differs from json.dumps at byte {at}: {line[max(at - 40, 0):at + 40]!r}")
        assert json.loads(line) == json.loads(expected)

    def test_records_json_is_json_dumps_on_every_suite(self):
        for records in (verify.run_suites(verify.SUITES), suite_oracle(7, 6)):
            assert any(r["lhs"] is not r["rhs"] and r["lhs"] == r["rhs"] for r in records)
            self.assert_encoded_as_json_dumps(records)

    def test_records_json_is_json_dumps_on_other_sides(self):
        # in 2 variables a degree-3 table is shown as a table, in 3 in the e basis
        closed = symfun.expand_at_compositions(en.closed_form("W", 3), 2)
        failing = verify._record("oracle", {"n": 3, "vars": 2}, closed, closed.scale(exact.T))
        assert failing["status"] == "fail"
        wide = symfun.expand_at_compositions(en.closed_form("W", 3), 3)
        records = [
            failing,
            verify._record("oracle", {"n": 3, "vars": 3}, wide, wide.scale(exact.T)),
            verify._record("not-symmetric", {}, QsymTable(3, {(2, 1): exact.T}), closed),
            # a table side that a later record shows again
            verify._record("again", {}, [True], closed),
            # equal sides that would present apart: rhs is shown as lhs
            verify._record("constant", {}, exact.ONE, 1),
            verify._record("flag", {"n": 1}, True, True),
            verify._record("flags", {}, [True, False], [True, True]),
            verify._record("mapping", {"set": [1, 2]}, {"a": {"1": "1/2"}}, {"a": {"1": "1/2"}}),
            verify._record("empty-e", {}, QsymTable(3), QsymTable(3)),
            verify._record("empty-table", {}, QsymTable(2), []),
        ]
        self.assert_encoded_as_json_dumps(records)
        assert verify.records_json([]) == "[]"


class TestReferenceOutputs:
    """Every single-answer command that perfbench/reference.json records, at
    n = 8, run in-process: exit code and stdout digest must match."""

    @pytest.mark.parametrize(
        "command", [c for c in REFERENCE_RUNS if not c.startswith("verify ")]
    )
    def test_stdout_matches_reference_digest(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        reference = REFERENCE_RUNS[command]
        assert code == reference["exit"]
        assert hashlib.sha256(out.encode()).hexdigest()[:32] == reference["stdout"]


class TestUsageErrors:
    def test_unknown_variant(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["expand", "--variant", "Wbogus", "--n", "3"])
        assert info.value.code == 2

    def test_out_of_range_n(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["expand", "--variant", "W", "--n", "9"])
        assert info.value.code == 2

    def test_range_error_mentions_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["expand", "--variant", "W", "--n", "99"])
        err = capsys.readouterr().err
        assert "--n" in err and "LIMITS[" in err

    def test_library_range_error_is_exit_two(self, capsys):
        # a variant's smallest n is the library's rule, named as --n
        for variant, *more in (("Wneq",), ("XC",), ("Wneq", "--vars", "3")):
            with pytest.raises(SystemExit) as info:
                cli.main(["expand", "--variant", variant, "--n", "1", *more])
            assert info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"smirnov: error: --n: {variant} requires n >= 2\n")

    def test_max_order_above_supported_range(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "qexp", "--max-order", "9"])
        assert info.value.code == 2
        assert "--max-order" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["roots", "qeuler"])
    @pytest.mark.parametrize(
        "k, message",
        [
            ("0", "k must be positive, got 0"),
            ("-1", "k must be positive, got -1"),
            ("3", "k must divide n, got k = 3 and n = 8"),
        ],
    )
    def test_bad_root_order(self, capsys, verb, k, message):
        with pytest.raises(SystemExit) as info:
            cli.main([verb, "--variant", "Ades", "--n", "8", "--q-root", k])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: --q-root: {message}\n")

    @pytest.mark.parametrize("verb", ["roots", "qeuler"])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_root_below_degree_two_names_the_flag(self, capsys, verb, n):
        with pytest.raises(SystemExit) as info:
            cli.main([verb, "--variant", "Atilde", "--n", n, "--q-root", "1"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: --n: {n} is out of range: LIMITS['n'] allows 2 to {en.LIMITS['n']}\n")

    def test_missing_verb(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2


class TestLimits:
    """The library rejects the sizes the CLI rejects, naming the LIMITS key."""

    @pytest.mark.parametrize(
        "call, key, value",
        [
            (lambda: en.closed_form("W", 9), "n", 9),
            (lambda: en.powersum_form("W", 9), "n", 9),
            (lambda: verify.run_suite("series", max_order=9), "n", 9),
            (lambda: verify.run_suite("oracle", max_n=2, vars=9), "vars", 9),
            (lambda: verify.run_suite("f", max_n=0), "n", 0),
        ],
        ids=["closed-form", "powersum-form", "series-order", "oracle-vars", "f-max-n-zero"],
    )
    def test_library_rejects_out_of_range(self, call, key, value):
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert f"LIMITS[{key!r}]" in message and str(value) in message

    def test_closed_form_reads_no_cap(self, monkeypatch, fresh_caches):
        # a closed form is built at its own degree, whatever LIMITS allows
        expected = en.closed_form("XC", 4)
        en.closed_form.cache_clear()
        monkeypatch.setitem(en.LIMITS, "n", 20)
        built = []
        original = en.geometric_form
        monkeypatch.setattr(en, "geometric_form", lambda m: built.append(m) or original(m))
        assert en.closed_form("XC", 4) == expected
        assert built and max(built) <= 3
        assert en.closed_series.cache_info().currsize == 0

    def test_unknown_bound_is_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            verify.run_suite("f", bogus=1)

    @pytest.mark.parametrize("bound", sorted(verify.BOUNDS))
    def test_cli_rejects_one_past_each_verify_limit(self, capsys, bound):
        flag = "--" + bound.replace("_", "-")
        default, key = verify.BOUNDS[bound]
        assert 1 <= default <= en.LIMITS[key]
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "all", flag, str(en.LIMITS[key] + 1)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "LIMITS[" in err


class TestTracerNames:
    def test_class_qualified_names_are_bound_in_their_class(self):
        # perfbench/tracer.py rebinds a method through vars(owner); a method
        # that is only inherited would be left unwrapped and read as zero
        path = REFERENCE.parent / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names = [("exact", dotted) for dotted in tracer.OPERATORS]
        names += [(layer, dotted) for layer, group in tracer.LAYERS.items() for dotted in group]
        qualified = [(layer, dotted.split(".")) for layer, dotted in names if "." in dotted]
        assert {"QtPoly.__mul__", "SymSeries.mul"} <= {".".join(parts) for _, parts in qualified}
        modules = {"exact": exact, "symfun": symfun}
        for layer, (owner, attr) in qualified:
            cls = getattr(modules[layer], owner)
            if hasattr(cls, attr):  # the tracer skips a name the program no longer defines
                assert attr in vars(cls), f"{owner}.{attr}"

    def test_run_suites_calls_the_module_global_with_the_name_first(self, monkeypatch):
        # the tracer wraps verify.run_suite and names each span
        # verify.suite.<name> from its first positional argument; a suite
        # reached any other way would read as zero
        calls = []

        def recorder(*args, **kwargs):
            calls.append(args)
            return []

        monkeypatch.setattr(verify, "run_suite", recorder)
        assert verify.run_suites(("transfer", "roots")) == []
        assert [args[:1] for args in calls] == [("transfer",), ("roots",)]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smirnov", "qeuler", "--variant", "Atilde",
             "--n", "3", "--q-root", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3*t^2"

    def test_readme_examples_run(self, capsys):
        # every command of the README's "Command line" block, so a renamed
        # verb or flag cannot leave the README stale
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv[1:] for argv in commands if argv[:1] == ["smirnov"]]
        assert len(commands) == 8
        for argv in commands:
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().out

    def test_cold_start_loads_no_dataclasses(self):
        # dataclasses imports inspect, about 10 ms of every process start;
        # the command line must not load either unless a bare interpreter
        # already has
        def imported(*args):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
            return {line.rsplit("|", 1)[1].strip() for line in lines}

        bare = imported("-c", "pass")
        cli = imported("-m", "smirnov", "qeuler", "--variant", "Ades", "--n", "0")
        assert "smirnov.cli" in cli
        for module in ("dataclasses", "inspect"):
            assert module not in cli or module in bare, module

    @pytest.mark.parametrize(
        "argv, ran",
        [
            (["qeuler", "--variant", "Aless", "--n", "5"], []),
            (["qeuler", "--variant", "Atilde", "--n", "4", "--q-root", "2"], []),
            (["roots", "--variant", "Ades", "--n", "4", "--q-root", "2"], []),
            (["fexpand", "--variant", "W", "--n", "4"], []),
            (["expand", "--variant", "W", "--n", "4", "--vars", "3"], ["symfun", "enumerators"]),
            (["verify", "--suite", "transfer"], ["symfun", "enumerators", "verify"]),
            (
                ["verify", "--suite", "oracle", "--max-n", "3", "--vars", "3"],
                ["symfun", "combinat", "enumerators", "verify"],
            ),
        ],
        ids=["qeuler", "qeuler-q-root", "roots", "fexpand", "expand", "verify", "verify-oracle"],
    )
    def test_a_verb_runs_only_the_modules_it_needs(self, argv, ran):
        # symfun, combinat, enumerators and verify are in sys.modules from
        # the start but run their source at first use; the walk verbs run
        # only exact and walks.  object.__getattribute__ reads a module's
        # namespace without loading it; -X importtime does not see a
        # deferred load.
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from smirnov import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main({argv!r})
            defines = {{"symfun": "SymFun", "combinat": "brute_enumerator",
                        "enumerators": "closed_form", "verify": "run_suite"}}
            ran = [m for m, name in defines.items()
                   if name in object.__getattribute__(sys.modules["smirnov." + m], "__dict__")]
            print(code, *ran)
            """
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", *ran]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "oracle", "--max-n", "2", "--vars", "2"],
            ["verify", "--suite", "powersum", "--max-n", "2"],
            ["verify", "--suite", "f", "--max-n", "2"],
            ["verify", "--suite", "qexp", "--max-order", "2"],
            ["verify", "--suite", "roots"],
            ["verify", "--suite", "unimodal"],
            ["verify", "--suite", "counting"],
            ["verify", "--suite", "series", "--max-order", "2"],
            ["verify", "--suite", "transfer"],
            ["qeuler", "--variant", "Aless", "--n", "5"],
            ["roots", "--variant", "Ades", "--n", "4", "--q-root", "2"],
            ["fexpand", "--variant", "W", "--n", "4"],
        ],
        ids=lambda argv: "-".join(argv[:3:2]),
    )
    def test_a_process_runs_only_the_suite_module_it_runs(self, argv):
        # run_suite imports a suite's module when that suite runs, so a
        # process compiles no other suite; a walk verb compiles none
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from smirnov import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main({argv!r})
            print(code, *sorted(m for m in sys.modules if m.startswith("smirnov.verify.")))
            """
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        ran = [f"smirnov.verify.{argv[2]}"] if argv[0] == "verify" else []
        assert proc.stdout.split() == ["0", *ran]

    def test_each_suite_is_one_module_of_the_package(self):
        names = sorted(m.name for m in pkgutil.iter_modules(verify.__path__))
        assert names == sorted(verify.SUITES)
        for name in verify.SUITES:
            module = importlib.import_module(f"smirnov.verify.{name}")
            assert inspect.getmodule(getattr(module, f"suite_{name}")) is module

    def test_text_output_loads_no_json(self):
        # exact.dumps loads json at its first call, so importing exact and a
        # text answer, as the benchmark's set-up command prints, load none.
        # -S: a site hook may load json before the program starts
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            sys.path.insert(0, {str(Path(exact.__file__).parents[1])!r})
            import smirnov.exact
            loaded = ["json" in sys.modules]
            from smirnov import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["qeuler", "--variant", "Ades", "--n", "0"])
            loaded.append("json" in sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["qeuler", "--variant", "Ades", "--n", "0", "--format", "json"])
            print(code, *loaded, "json" in sys.modules)
            """
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False", "True"]

    def test_integer_arithmetic_loads_no_fractions(self):
        # exact holds ints only; fractions, with decimal and numbers, costs
        # a few ms of every process start, and verify imports it only where
        # a shown center or plain p coefficient is made
        code = textwrap.dedent(
            """
            import contextlib, io, sys
            import smirnov.exact
            loaded = ["fractions" in sys.modules]
            from smirnov import cli
            qeuler = ["qeuler", "--variant", "Ades", "--n", "8"]
            for argv in (qeuler, ["verify", "--suite", "oracle", "--max-n", "3"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                loaded += [code, "fractions" in sys.modules]
            print(*loaded)
            """
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0", "False", "0", "False"]

    def test_a_module_imported_before_cli_is_kept(self):
        # one symfun module, so the values enumerators builds are instances
        # of the classes a library user imported
        code = (
            "import sys, smirnov.symfun as s; import smirnov.cli; from smirnov import enumerators as en; "
            "print(sys.modules['smirnov.symfun'] is s, smirnov.cli.symfun is s, "
            "isinstance(en.closed_form('W', 3), s.SymFun))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "True"]

    # each module and the modules it imports, which come before it here;
    # walks imports only exact, symfun only exact and walks (for LIMITS),
    # the verify package only what its records read, and each suite module
    # what its suite reads; cli also registers the four modules that it
    # defers
    LAYERS = {
        "exact": (),
        "walks": ("exact",),
        "symfun": ("exact", "walks"),
        "combinat": ("exact", "walks", "symfun"),
        "enumerators": ("exact", "walks", "symfun"),
        "verify": ("exact", "walks", "symfun"),
        **{
            f"verify.{suite}": ("exact", "walks", "symfun", "enumerators", "verify")
            for suite in ("f", "qexp", "roots", "unimodal", "series", "transfer")
        },
        **{
            f"verify.{suite}": ("exact", "walks", "symfun", "combinat", "enumerators", "verify")
            for suite in ("oracle", "powersum", "counting")
        },
        "cli": ("exact", "walks", "symfun", "combinat", "enumerators", "verify"),
    }

    @pytest.mark.parametrize("layer", LAYERS)
    def test_importing_a_module_loads_only_its_imports(self, layer):
        # the package __init__ imports nothing, so a fresh interpreter holds
        # exactly the module and those it imports
        code = f"import sys, smirnov.{layer}; print(*sorted(m for m in sys.modules if m.startswith('smirnov.')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == sorted(f"smirnov.{m}" for m in (layer, *self.LAYERS[layer]))


class TestTracerRun:
    def traced(self, capsys, mode, argv) -> dict:
        """The report of ``argv`` run through perfbench/tracer.py in
        ``mode``, which must exit 0 with the untraced CLI's stdout."""
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        proc = subprocess.run(
            [sys.executable, str(REFERENCE.parent / "tracer.py"), mode, "--", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out, report = proc.stdout.rstrip("\n").rsplit("\n", 1)
        assert out + "\n" == expected
        return json.loads(report)

    @pytest.mark.parametrize("mode", ["time", "count"])
    def test_traced_output_equals_untraced(self, capsys, mode):
        # perfbench/tracer.py wraps the modules that smirnov.cli loads; a
        # change under src/ that it cannot wrap fails here, not only in CI
        argv = ["verify", "--suite", "oracle", "--max-n", "3", "--vars", "3", "--format", "json"]
        report = self.traced(capsys, mode, argv)
        if mode == "time":
            assert report["spans"]
        else:
            assert report["counts"]["combinat.words_kept"] > 0

    @pytest.mark.parametrize("mode", ["time", "count"])
    def test_traced_qeuler_wraps_its_walk(self, capsys, mode):
        # qeuler leaves symfun and verify unrun; the tracer still reads all
        # six layers from sys.modules and wraps them
        argv = ["qeuler", "--variant", "Aless", "--n", "5", "--format", "json"]
        report = self.traced(capsys, mode, argv)
        if mode == "time":
            assert "enumerators.q_eulerian" in report["spans"]
        else:
            assert report["counts"]["enumerators.perms_swept"] == math.factorial(5)
