"""Command-line front end: expansion, evaluation, and verification.

Output is byte-deterministic for fixed flags: partitions are listed in a
fixed order and JSON objects are built in insertion order.  Exit codes are 0
for success or an all-pass verification, 1 for a failed verification, and 2
for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import enumerators as en
from . import verify
from .symfun import MonomialTable, expand_in_variables

VARIANT_ALIASES = {
    "w": "W",
    "wless": "Wless",
    "w<": "Wless",
    "wgreater": "Wgreater",
    "w>": "Wgreater",
    "wequal": "Wequal",
    "w=": "Wequal",
    "wneq": "Wneq",
    "w!=": "Wneq",
    "wtilde": "Wtilde",
    "w~": "Wtilde",
    "wtildeneq": "Wtildeneq",
    "w~!=": "Wtildeneq",
    "xc": "XC",
    "xcn": "XC",
    "x_cn": "XC",
}

QEULER_ALIASES = {
    "a": "Ades",
    "ades": "Ades",
    "amajexc": "Amajexc",
    "aless": "Aless",
    "a<": "Aless",
    "atilde": "Atilde",
    "a~": "Atilde",
}


# verify flag -> (run_suite bound, default).  A flag given to a single suite
# that does not read it is a usage error rather than silently ignored.
VERIFY_BOUNDS = {
    "--max-n": ("max_n", 5),
    "--vars": ("nvars", 6),
    "--max-order": ("max_order", 8),
}


def _variant(parser: argparse.ArgumentParser, raw: str) -> str:
    tag = VARIANT_ALIASES.get(raw.lower())
    if tag is None:
        parser.error(f"--variant: unknown enumerator variant {raw!r}")
    return tag


def _qeuler_kind(parser: argparse.ArgumentParser, raw: str) -> str:
    kind = QEULER_ALIASES.get(raw.lower())
    if kind is None:
        parser.error(f"--variant: unknown q-Eulerian kind {raw!r}")
    return kind


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _table_text(table: MonomialTable) -> str:
    if not table.terms:
        return "0"
    rows = []
    for vec in sorted(table.terms, reverse=True):
        label = "x^(" + ",".join(map(str, vec)) + ")"
        rows.append((label, table.terms[vec].pretty()))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{label.ljust(width)}  {poly}" for label, poly in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smirnov",
        description="Exact Smirnov word enumerators by descents and cyclic descents.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_expand = sub.add_parser("expand", help="elementary, power sum, or fundamental expansion")
    p_expand.add_argument("--variant", required=True)
    p_expand.add_argument("--n", type=int, required=True)
    p_expand.add_argument("--basis", choices=("e", "p", "F"), default="e")
    p_expand.add_argument("--vars", type=int, help="also expand into this many variables")
    common(p_expand)

    p_power = sub.add_parser("powersum", help="power sum expansion coefficients")
    p_power.add_argument("--variant", required=True)
    p_power.add_argument("--n", type=int, required=True)
    common(p_power)

    p_f = sub.add_parser("fexpand", help="fundamental quasisymmetric expansion")
    p_f.add_argument("--variant", required=True)
    p_f.add_argument("--n", type=int, required=True)
    common(p_f)

    p_q = sub.add_parser("qeuler", help="q-Eulerian polynomials and evaluations")
    p_q.add_argument("--variant", required=True)
    p_q.add_argument("--n", type=int, required=True)
    p_q.add_argument("--q-root", type=int, help="evaluate at a primitive root of unity of this order")
    common(p_q)

    p_r = sub.add_parser("roots", help="root-of-unity evaluation, both routes")
    p_r.add_argument("--variant", required=True)
    p_r.add_argument("--n", type=int, required=True)
    p_r.add_argument("--q-root", type=int, required=True)
    common(p_r)

    p_v = sub.add_parser("verify", help="run verification suites")
    p_v.add_argument("--suite", choices=("all",) + verify.SUITES, default="all")
    for flag in VERIFY_BOUNDS:
        p_v.add_argument(flag, type=int)
    common(p_v)

    return parser


def _check_range(parser: argparse.ArgumentParser, flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        parser.error(f"{flag}: must be between {lo} and {hi}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "expand":
            return _cmd_expand(parser, args)
        if args.verb == "powersum":
            return _cmd_powersum(parser, args)
        if args.verb == "fexpand":
            return _cmd_fexpand(parser, args)
        if args.verb == "qeuler":
            return _cmd_qeuler(parser, args)
        if args.verb == "roots":
            return _cmd_roots(parser, args)
        return _cmd_verify(parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_expand(parser, args) -> int:
    variant = _variant(parser, args.variant)
    _check_range(parser, "--n", args.n, 1, 8)
    if args.vars is not None and args.basis != "e":
        parser.error(f"--vars: basis {args.basis} does not expand into variables; use --basis e")
    if args.basis == "p":
        return _emit_powersum(parser, args, variant)
    if args.basis == "F":
        return _emit_fexpand(parser, args, variant)
    f = en.closed_form(variant, args.n)
    if args.vars is not None:
        _check_range(parser, "--vars", args.vars, 1, 8)
        table = expand_in_variables(f, args.vars)
        if args.format == "json":
            _emit_json(table.to_json_obj())
        else:
            print(_table_text(table))
        return 0
    if args.format == "json":
        _emit_json(f.to_json_obj())
    else:
        print(f.pretty())
    return 0


def _emit_powersum(parser, args, variant: str) -> int:
    if variant not in en.POWERSUM_VARIANTS:
        parser.error(f"--variant: no power sum expansion for {variant}")
    form = en.powersum_form(variant, args.n)
    if args.format == "json":
        _emit_json(form.to_json_obj())
    else:
        print(form.pretty())
    return 0


def _emit_fexpand(parser, args, variant: str) -> int:
    if variant not in en.F_VARIANTS:
        parser.error(f"--variant: no fundamental expansion for {variant}")
    fe = en.f_expansion(variant, args.n)
    if args.format == "json":
        _emit_json(fe.to_json_obj())
    else:
        print(fe.pretty())
    return 0


def _cmd_powersum(parser, args) -> int:
    variant = _variant(parser, args.variant)
    _check_range(parser, "--n", args.n, 1, 8)
    return _emit_powersum(parser, args, variant)


def _cmd_fexpand(parser, args) -> int:
    variant = _variant(parser, args.variant)
    _check_range(parser, "--n", args.n, 1, 8)
    return _emit_fexpand(parser, args, variant)


def _cmd_qeuler(parser, args) -> int:
    kind = _qeuler_kind(parser, args.variant)
    _check_range(parser, "--n", args.n, 0, 8)
    if args.q_root is not None:
        if kind not in en.ROOT_FAMILIES:
            parser.error(f"--q-root: no closed root-of-unity form for {kind}")
        value = en.root_of_unity(kind, args.n, args.q_root)
        if args.format == "json":
            _emit_json({"t_polynomial": value.to_json_obj()})
        else:
            print(value.pretty())
        return 0
    poly = en.q_eulerian(kind, args.n)
    if args.format == "json":
        _emit_json(poly.to_json_obj())
    else:
        print(poly.pretty())
    return 0


def _cmd_roots(parser, args) -> int:
    kind = _qeuler_kind(parser, args.variant)
    if kind not in en.ROOT_FAMILIES:
        parser.error(f"--variant: no closed root-of-unity form for {kind}")
    _check_range(parser, "--n", args.n, 2, 8)
    parts = en.root_of_unity_parts(kind, args.n, args.q_root)
    agree = all(v == parts["via_eval"] for v in parts.values())
    if args.format == "json":
        _emit_json(
            {
                "agree": agree,
                **{name: poly.to_json_obj() for name, poly in parts.items()},
            }
        )
    else:
        for name, poly in parts.items():
            print(f"{name}: {poly.pretty()}")
        print(f"agree: {str(agree).lower()}")
    return 0 if agree else 1


def _cmd_verify(parser, args) -> int:
    bounds = {}
    for flag, (bound, default) in VERIFY_BOUNDS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            value = default
        elif args.suite != "all" and bound not in verify.SUITE_BOUNDS[args.suite][1]:
            parser.error(f"{flag}: suite {args.suite} does not read this flag")
        _check_range(parser, flag, value, 1, 8)
        bounds[bound] = value
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    records = verify.run_suites(names, **bounds)
    ok = verify.all_pass(records)
    if args.format == "json":
        _emit_json(records)
    else:
        for record in records:
            params = " ".join(f"{k}={v}" for k, v in record["params"].items())
            print(f"{record['status'].upper():4}  {record['check']}  {params}")
        passed = sum(1 for r in records if r["status"] == "pass")
        print(f"{passed}/{len(records)} checks passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
