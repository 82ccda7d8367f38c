"""The JSON line of verify records as the tests expect it, written apart
from the library's ``verify.records_json``: each side presented on its own,
as a dict, and the whole list encoded by one ``json.dumps``."""

import json

from smirnov.symfun import QsymTable, monomial_to_e


def presented(value):
    """A side as the JSON line shows it: a ``QsymTable`` in the e basis when
    ``monomial_to_e`` takes it, or else as its k-variable table; any other
    value through its ``to_json_obj``, or as it is."""
    if isinstance(value, QsymTable):
        try:
            return monomial_to_e(value).to_json_obj()
        except ValueError:
            return value.to_json_obj()
    return value.to_json_obj() if hasattr(value, "to_json_obj") else value


def records_line(records) -> str:
    """``json.dumps`` of the records ``{check, params, status, lhs, rhs}``
    with each side presented; an rhs equal to its lhs is shown as the lhs."""
    shown = [
        {
            "check": r["check"],
            "params": r["params"],
            "status": r["status"],
            "lhs": presented(r["lhs"]),
            "rhs": presented(r["lhs"] if r["lhs"] == r["rhs"] else r["rhs"]),
        }
        for r in records
    ]
    return json.dumps(shown, separators=(",", ":"))
