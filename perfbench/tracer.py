"""Run one smirnov CLI command in this interpreter with its layers wrapped.

    python perfbench/tracer.py {time|count} -- <smirnov argv...>

The program's stdout is captured and written out first; the last line of
stdout is one JSON report.  The command's exit code becomes this process's
exit code.  Nothing under ``src/`` is edited: the wrappers are installed by
rebinding names in the imported modules.

``time`` mode records one span per call into the functions listed in
``LAYERS`` (name, start, end, parent span; in process CPU time) and reports,
per span name, busy time, self time and call count, the CPU time spent
before ``main`` began, and ``cache_info()`` of every lru_cache.
``count`` mode records no times; it counts the exact-arithmetic operators and
computes the per-call work counts, so that their wrapper cost stays out of
the timed pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import sys
import time
from pathlib import Path

# Functions whose calls are timed, per layer.  Names that a later version of
# the program no longer defines are skipped and read as zero.  Hot helpers
# (per-word and per-permutation statistics, partition utilities) are left out
# on purpose: wrapping them would cost more than the work they do, so their
# time counts as self time of the layer function that calls them.
LAYERS = {
    "cli": ("main",),
    "verify": ("run_suite",),
    "enumerators": (
        "closed_form",
        "closed_series",
        "powersum_form",
        "powersum_top_coefficient",
        "f_expansion",
        "q_eulerian",
        "q_exp_identity_check",
        "q_statistic_diagnostic",
        "root_of_unity_parts",
        "root_of_unity",
        "quotient_form_check",
        "cleared_form_check",
        "counting_identities",
        "unimodality_suite",
        "transfer_matrix_check",
        "distinguished_element_check",
    ),
    "combinat": (
        "brute_enumerator",
        "chromatic_qsym",
        "fundamental_F",
        "F_principal_series",
        "F_principal_specialization",
        "inverse_q_product",
    ),
    "symfun": (
        "expand_in_variables",
        "monomial_to_e",
        "e_positivity_report",
        "SymSeries.div",
        "SymSeries.mul",
        "SymSeries.h_series_p",
    ),
    "exact": (
        "eval_at_root_of_unity",
        "qt_divmod",
        "cyclotomic",
        "q_binomial",
        "eulerian",
        "euler_series_check",
        "palindrome_unimodal",
    ),
}

CACHES = {
    "closed_series": "enumerators",
    "q_eulerian": "enumerators",
    "eulerian": "exact",
    "q_binomial": "exact",
    "cyclotomic": "exact",
    "partitions_of": "symfun",
    "_partition_table": "symfun",
    "_unit_table": "symfun",
    "_e_in_m": "symfun",
    "inverse_q_product": "combinat",
}

OPERATORS = ("LaurentPoly.__mul__", "LaurentPoly.__truediv__", "QtPoly.__mul__")


def _lookup(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, getattr(owner, attr, None)


def _rebind(modules, owner, attr: str, original, wrapper) -> None:
    """Point every name bound to ``original`` at ``wrapper``: the defining
    attribute, aliases on the same class, and ``from x import`` copies."""
    if isinstance(owner, type):
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, wrapper)
        return
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


class Spans:
    """In-memory span log.  Each span is ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def wrap(self, name, fn, name_of=None):
        # CPU time of this process: the benchmark stops it (SIGSTOP) between
        # time slices, and a wall clock would count the stops
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args) if name_of else name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Busy time (outermost calls of a name only, so recursion is not
        counted twice), self time (duration minus child spans) and calls."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            entry = out.setdefault(name, [0.0, 0.0, 0])
            outermost = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outermost = False
                    break
                p = self.spans[p][3]
            if outermost:
                entry[0] += t1 - t0
            entry[1] += t1 - t0 - child[i]
            entry[2] += 1
        return {name: {"s": s, "self_s": self_s, "calls": calls} for name, (s, self_s, calls) in out.items()}


def _install_timing(modules: dict) -> tuple[Spans, dict]:
    spans = Spans()
    caches = {}
    for cache_name, layer in CACHES.items():
        fn = getattr(modules[layer], cache_name, None)
        if fn is not None and hasattr(fn, "cache_info"):
            caches[cache_name] = fn
    for layer, names in LAYERS.items():
        for dotted in names:
            owner, attr, original = _lookup(modules[layer], dotted)
            if original is None:
                continue
            name_of = None
            if (layer, dotted) == ("verify", "run_suite"):
                name_of = lambda args: f"verify.suite.{args[0]}"
            wrapper = spans.wrap(f"{layer}.{dotted}", original, name_of)
            _rebind(modules.values(), owner, attr, original, wrapper)
    return spans, caches


def _install_counting(modules: dict) -> dict:
    counts = {name: 0 for name in OPERATORS}
    counts.update(
        {
            "combinat.words_visited": 0,
            "combinat.words_kept": 0,
            "symfun.monomials_out": 0,
            "enumerators.perms_swept": 0,
        }
    )

    def counter(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for dotted in OPERATORS:
        owner, attr, original = _lookup(modules["exact"], dotted)
        if original is not None:
            _rebind((), owner, attr, original, counter(dotted, original))

    def after(layer, name, hook):
        """Call ``hook(arguments, result, cache misses before)`` after each
        call, with the arguments bound to their parameter names."""
        owner, attr, original = _lookup(modules[layer], name)
        if original is None:
            return
        signature = inspect.signature(original)
        cached = hasattr(original, "cache_info")

        @functools.wraps(original)
        def observed(*args, **kwargs):
            misses = original.cache_info().misses if cached else 0
            result = original(*args, **kwargs)
            hook(signature.bind(*args, **kwargs).arguments, result, misses)
            return result

        _rebind(modules.values(), owner, attr, original, observed)

    def words(a, table, _):
        n, k = a["n"], a["k"]
        counts["combinat.words_visited"] += k * (k - 1) ** (n - 1)
        counts["combinat.words_kept"] += int(table.sum_coeffs().at_one())

    def monomials(a, table, _):
        counts["symfun.monomials_out"] += len(table.terms)

    q_eulerian = modules["enumerators"].q_eulerian

    def perms_cached(a, result, misses_before):
        if q_eulerian.cache_info().misses > misses_before:
            counts["enumerators.perms_swept"] += math.factorial(a["n"])

    def perms(a, result, _):
        counts["enumerators.perms_swept"] += math.factorial(a["n"])

    after("combinat", "brute_enumerator", words)
    after("symfun", "expand_in_variables", monomials)
    after("enumerators", "q_eulerian", perms_cached)
    after("enumerators", "f_expansion", perms)
    return counts


def main() -> int:
    mode = sys.argv[1]
    argv = sys.argv[3:]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import smirnov.cli

    modules = {layer: sys.modules[f"smirnov.{layer}"] for layer in LAYERS}
    report: dict = {}
    if mode == "time":
        spans, caches = _install_timing(modules)
    else:
        counts = _install_counting(modules)

    out = io.StringIO()
    report["setup_cpu_s"] = time.process_time()
    with contextlib.redirect_stdout(out):
        try:
            code = smirnov.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    code = code or 0

    if mode == "time":
        report["spans"] = spans.summary()
        report["caches"] = {
            name: {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
            for name, info in ((name, fn.cache_info()) for name, fn in caches.items())
        }
    else:
        report["counts"] = counts
    sys.stdout.write(out.getvalue())
    sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
