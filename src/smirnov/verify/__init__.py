"""Verification suites tying every closed form to a brute-force oracle.

Each suite of ``SUITES`` is the module of that name here, with the checks
that only it reads; ``run_suite`` imports it when the suite runs, so a
process compiles only the suites it runs.  Each yields a list of records,
all built by ``_record``, that keep the two values compared and present
nothing, so a text run, which prints each record's status, check and
params, presents no value.  ``records_json``, the one place a value is
presented, writes them as the CLI's JSON line of ``{check, params, status,
lhs, rhs}``, rendering each side through the symmetric-function JSON
encoding wherever it is symmetric, so the layout here is a stable machine
contract.  Every oracle is quasisymmetric, so sides over k variables are
compared as ``QsymTable`` values, at the compositions with at most k parts,
and shown in the e basis, which certifies symmetry, when k is at least the
degree, or else as k-variable tables.

A record passes exactly when its two shown sides are equal as values.  Five
checks have a condition wider than the sides they show, and pass it as
``ok``: ``powersum-vs-brute`` and ``f-vs-closed`` show the expansion but
compare its values at compositions (``powersum-vs-brute`` n! times each
side, so that both are integral), ``root-of-unity`` also needs the recursion
route to agree, ``cycle-even-corrected`` adds the direct chain test, and
``cyclic-coefficient-*`` adds the shape's own palindromic-unimodal test.

Every value compared has integer coefficients.  A ``Fraction``, imported
where it is made, appears only in what is shown: the half-integer centers of
the unimodality params and the plain p sides (``powersum._in_plain_p``).
"""

from __future__ import annotations

from importlib import import_module

from ..exact import dumps
from ..symfun import QsymTable, monomial_to_e
from ..walks import check_limit


def _record(check: str, params: dict, lhs, rhs, ok: bool | None = None) -> dict:
    """One record of the two values compared; it passes when ``lhs == rhs``,
    or when ``ok`` for the checks whose condition is wider than the two
    sides.  It presents nothing: ``same`` keeps whether the sides are equal,
    so that ``records_json`` shows an equal rhs with lhs's text."""
    same = lhs == rhs
    return {
        "check": check,
        "params": params,
        "status": "pass" if (same if ok is None else ok) else "fail",
        "lhs": lhs,
        "rhs": rhs,
        "same": same,
    }


def records_json(records: list[dict]) -> str:
    """The records as one compact JSON line of ``{check, params, status,
    lhs, rhs}``, byte for byte ``json.dumps(..., separators=(",", ":"))`` of
    the records with each side presented: a ``QsymTable`` in the e basis
    when ``monomial_to_e`` takes it, or else as its k-variable table, written
    from its rows with each coefficient encoded once; any other value
    through its ``to_json_obj``, or as it is.  A side, or a table's exponent
    list, is presented at most once per call: its text is kept by id (the
    records, and ``kept`` for the rows, keep each alive), and an equal rhs
    takes lhs's text under both ids."""
    texts: dict[int, str] = {}
    kept = []

    def text(x) -> str:
        return texts.get(id(x)) or texts.setdefault(id(x), present(x))

    def present(x) -> str:
        if isinstance(x, QsymTable):
            try:
                x = monomial_to_e(x)
            except ValueError:  # NotSymmetricError among them
                rows = x._rows(lambda c: dumps(c.to_json_obj()))
                kept.append(rows)
                terms = ",".join(f'{{"exponents":{text(vec)},"coeff":{c}}}' for vec, c in rows)
                return f'{{"vars":{x.nvars},"terms":[{terms}]}}'
        return dumps(x.to_json_obj() if hasattr(x, "to_json_obj") else x)

    parts = []
    for r in records:
        lhs, rhs = r["lhs"], r["rhs"]
        if r["same"]:
            texts[id(lhs)] = texts[id(rhs)] = texts.get(id(lhs)) or texts.get(id(rhs)) or present(lhs)
        head = dumps({"check": r["check"], "params": r["params"], "status": r["status"]})
        parts.append(f'{head[:-1]},"lhs":{text(lhs)},"rhs":{text(rhs)}}}')
    return "[" + ",".join(parts) + "]"


# run_suite bound -> (default, the LIMITS key of its range)
BOUNDS = {
    "max_n": (5, "n"),
    "vars": (6, "vars"),
    "max_order": (8, "n"),
}

SWEEP_N = 8  # n of the power sum, roots and unimodal suites, whatever LIMITS allows

# suite, its module's name -> the bounds its suite_<name> reads, in argument order
SUITE_BOUNDS = {
    "oracle": ("max_n", "vars"),
    "powersum": ("max_n",),
    "f": ("max_n",),
    "qexp": ("max_order",),
    "roots": (),
    "unimodal": (),
    "counting": (),
    "series": ("max_order",),
    "transfer": (),
}
SUITES = tuple(SUITE_BOUNDS)


def run_suite(name: str, **bounds: int) -> list[dict]:
    """Run one suite, importing its module.  Any bound of ``BOUNDS`` may be
    given and is checked against its limit; the suite reads its own,
    defaulting the ones not given."""
    if name not in SUITE_BOUNDS:
        raise ValueError(f"unknown suite {name!r}")
    for bound, value in bounds.items():
        if bound not in BOUNDS:
            raise ValueError(f"unknown bound {bound!r}")
        check_limit(BOUNDS[bound][1], value)
    suite = getattr(import_module(f"{__name__}.{name}"), f"suite_{name}")
    return suite(*(bounds.get(b, BOUNDS[b][0]) for b in SUITE_BOUNDS[name]))


def run_suites(names, **bounds: int) -> list[dict]:
    records = []
    for name in names:
        records.extend(run_suite(name, **bounds))  # by name first: perfbench spans read it
    return records


def all_pass(records) -> bool:
    return all(r["status"] == "pass" for r in records)
