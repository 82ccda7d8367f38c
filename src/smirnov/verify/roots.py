"""The roots suite: the q-Eulerian values at roots of unity, by every route."""

from __future__ import annotations

from .. import enumerators as en
from ..exact import divisors
from . import SWEEP_N, _record


def suite_roots() -> list[dict]:
    records = []
    for n in range(2, SWEEP_N + 1):
        for k in divisors(n):
            for kind in en.ROOT_FAMILIES:
                parts, ok = en.root_of_unity_parts(kind, n, k)
                records.append(
                    _record(
                        "root-of-unity",
                        {"kind": kind, "n": n, "k": k, "routes": sorted(parts)},
                        parts["via_eval"],
                        parts["closed"],
                        ok,
                    )
                )
    return records
