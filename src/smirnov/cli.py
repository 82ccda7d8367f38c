"""Command-line front end: expansion, evaluation, and verification.

Each verb runs one function, chosen through ``set_defaults``; ``powersum``
and ``fexpand`` are ``expand`` with the basis preset to p and F.  Ranges
read their upper bound from ``walks.LIMITS``, and the verify flags
and defaults come from ``verify.BOUNDS``.  Every answer is printed by
``_emit``, with JSON through the one encoder ``exact.dumps``; the JSON
line of a verify run is written by ``verify.records_json``, which owns the
record layout.

A process runs only the modules its verb needs.  ``symfun``, ``combinat``,
``enumerators`` and ``verify`` are registered in ``sys.modules`` (and on the
package) by ``_deferred`` before anything imports them, and each compiles
and runs its source when one of its attributes is first read
(``importlib.util.LazyLoader``).  ``qeuler``, ``roots`` and ``fexpand`` run
only ``exact`` and ``walks``; ``expand`` and ``powersum`` also run ``symfun``
and ``enumerators``, and ``verify`` also the ``verify`` package and the
module of each suite it runs (``run_suite`` imports it), with what it reads.
The parser reads ``verify`` only when the verb, always the first argument,
is ``verify``.

Output is byte-deterministic for fixed flags: partitions are listed in a
fixed order and JSON objects are built in insertion order.  Exit codes are 0
for success or an all-pass verification, 1 for a failed verification, and 2
for usage errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from .exact import dumps


def _deferred(name: str):
    """The module ``smirnov.<name>``: the one already imported, or else one
    registered in ``sys.modules`` and on the package whose source runs when
    an attribute of it is first read.  Binding it on the package keeps a
    later ``from . import <name>`` from loading it at once."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


# registered before any of them loads, so that enumerators leaves combinat unrun
symfun = _deferred("symfun")
_deferred("combinat")
en = _deferred("enumerators")
verify = _deferred("verify")

from .walks import (  # by name, so that a tool that rebinds names here sees each call
    F_VARIANTS, Q_EULERIAN_KINDS, ROOT_FAMILIES, VARIANTS, check_limit, check_root_order,
    f_expansion, q_eulerian, root_of_unity, root_of_unity_parts,
)

# lower-cased --variant -> tag: every tag, and the paper's symbols
VARIANT_ALIASES = {tag.lower(): tag for tag in VARIANTS} | {
    "w<": "Wless",
    "w>": "Wgreater",
    "w=": "Wequal",
    "w!=": "Wneq",
    "w~": "Wtilde",
    "w~!=": "Wtildeneq",
    "xcn": "XC",
    "x_cn": "XC",
}
QEULER_ALIASES = {kind.lower(): kind for kind in Q_EULERIAN_KINDS} | {
    "a": "Ades",
    "a<": "Aless",
    "a~": "Atilde",
}


def _alias(parser: argparse.ArgumentParser, aliases: dict, what: str, raw: str) -> str:
    tag = aliases.get(raw.lower())
    if tag is None:
        parser.error(f"--variant: unknown {what} {raw!r}")
    return tag


def _emit(args, value, obj=None) -> None:
    """Print one answer: with --format json, ``obj`` (by default
    ``value.to_json_obj()``) as one compact line, or ``obj`` as it is when it
    is that line already; otherwise ``value`` as text, through
    ``value.pretty()`` unless it is already a string."""
    if args.format == "json":
        if obj is None:
            obj = value.to_json_obj()
        print(obj if isinstance(obj, str) else dumps(obj))
    else:
        print(value if isinstance(value, str) else value.pretty())


def _flag(bound: str) -> str:
    return "--" + bound.replace("_", "-")


def build_parser(verb_name: str | None) -> argparse.ArgumentParser:
    """The parser of every verb.  The verify flags read ``verify``, so they
    are added only when ``verb_name``, the first argument, is ``verify``; no
    help, usage line or error of another verb shows them."""
    parser = argparse.ArgumentParser(
        prog="smirnov",
        description="Exact Smirnov word enumerators by descents and cyclic descents.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--variant", required=True)
        p.add_argument("--n", type=int, required=True)
        return p

    # powersum and fexpand are expand with the basis preset
    for name, basis, summary in (
        ("expand", "e", "elementary, power sum, or fundamental expansion"),
        ("powersum", "p", "power sum expansion coefficients"),
        ("fexpand", "F", "fundamental quasisymmetric expansion"),
    ):
        p = verb(name, _cmd_expand, summary)
        p.set_defaults(basis=basis, vars=None)
        if name == "expand":
            p.add_argument("--basis", choices=("e", "p", "F"), default="e")
            p.add_argument("--vars", type=int, help="also expand into this many variables")

    p = verb("qeuler", _cmd_qeuler, "q-Eulerian polynomials and evaluations")
    p.add_argument("--q-root", type=int, help="evaluate at a primitive root of unity of this order")

    p = verb("roots", _cmd_roots, "root-of-unity evaluation, both routes")
    p.add_argument("--q-root", type=int, required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.set_defaults(run=_cmd_verify)
    if verb_name == "verify":
        p.add_argument("--suite", choices=("all",) + verify.SUITES, default="all")
        for bound in verify.BOUNDS:
            p.add_argument(_flag(bound), type=int)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _check(parser: argparse.ArgumentParser, flag: str, check, *args) -> None:
    """Run a library check; its ValueError is a usage error naming the flag."""
    try:
        check(*args)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_expand(parser, args) -> int:
    variant = _alias(parser, VARIANT_ALIASES, "enumerator variant", args.variant)
    _check(parser, "--n", check_limit, "n", args.n)
    if args.vars is not None and args.basis != "e":
        parser.error(f"--vars: basis {args.basis} does not expand into variables; use --basis e")
    if args.basis == "p":
        if variant not in en.POWERSUM_VARIANTS:
            parser.error(f"--variant: no power sum expansion for {variant}")
        _emit(args, en.powersum_form(variant, args.n))
    elif args.basis == "F":
        if variant not in F_VARIANTS:
            parser.error(f"--variant: no fundamental expansion for {variant}")
        _emit(args, f_expansion(variant, args.n))
    else:
        _check(parser, "--n", en.check_degree, variant, args.n)
        if args.vars is None:
            _emit(args, en.closed_form(variant, args.n))
        else:
            _check(parser, "--vars", check_limit, "vars", args.vars)
            _emit(args, symfun.expand_at_compositions(en.closed_form(variant, args.n), args.vars))
    return 0


def _cmd_qeuler(parser, args) -> int:
    kind = _alias(parser, QEULER_ALIASES, "q-Eulerian kind", args.variant)
    _check(parser, "--n", check_limit, "n", args.n, 0 if args.q_root is None else 2)
    if args.q_root is None:
        _emit(args, q_eulerian(kind, args.n))
        return 0
    if kind not in ROOT_FAMILIES:
        parser.error(f"--q-root: no closed root-of-unity form for {kind}")
    _check(parser, "--q-root", check_root_order, args.n, args.q_root)
    value = root_of_unity(kind, args.n, args.q_root)
    _emit(args, value, {"t_polynomial": value.to_json_obj()})
    return 0


def _cmd_roots(parser, args) -> int:
    kind = _alias(parser, QEULER_ALIASES, "q-Eulerian kind", args.variant)
    if kind not in ROOT_FAMILIES:
        parser.error(f"--variant: no closed root-of-unity form for {kind}")
    _check(parser, "--n", check_limit, "n", args.n, 2)
    _check(parser, "--q-root", check_root_order, args.n, args.q_root)
    parts, agree = root_of_unity_parts(kind, args.n, args.q_root)
    obj = {"agree": agree, **{name: poly.to_json_obj() for name, poly in parts.items()}}
    lines = [f"{name}: {poly.pretty()}" for name, poly in parts.items()]
    _emit(args, "\n".join(lines + [f"agree: {str(agree).lower()}"]), obj)
    return 0 if agree else 1


def _cmd_verify(parser, args) -> int:
    reads = verify.BOUNDS if args.suite == "all" else verify.SUITE_BOUNDS[args.suite]
    bounds = {}
    for bound, (_, key) in verify.BOUNDS.items():
        value = getattr(args, bound)
        if value is None:
            continue
        if bound not in reads:
            parser.error(f"{_flag(bound)}: suite {args.suite} does not read this flag")
        _check(parser, _flag(bound), check_limit, key, value)
        bounds[bound] = value
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    records = verify.run_suites(names, **bounds)
    if args.format == "json":
        _emit(args, None, verify.records_json(records))
    else:
        lines = [
            f"{r['status'].upper():4}  {r['check']}  " + " ".join(f"{k}={v}" for k, v in r["params"].items())
            for r in records
        ]
        passed = sum(1 for r in records if r["status"] == "pass")
        _emit(args, "\n".join(lines + [f"{passed}/{len(records)} checks passed"]))
    return 0 if verify.all_pass(records) else 1


if __name__ == "__main__":
    sys.exit(main())
