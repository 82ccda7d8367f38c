"""The permutation walk that the library ran before its three-class step,
for the tests.

``smirnov.walks.perm_walk`` keeps one row per (used set, first value), its
polynomials indexed by the last value, and asks its step only how the last
value compares with the appended v.  ``perm_walk`` here is the independent
route it replaced: a state per (used set, last value), carrying the first
value as a dict, with a step that sees the last value itself.
``three_class`` drives it with a library step, so the tests can compare the
two walks under one rule.
"""


def perm_walk(n, width, step, keep_first=False):
    """Prefix DP over the permutations of 1..n.  A state is (the values used
    so far, value v at bit v - 1; the last value, 0 when p = 1) and carries
    one polynomial packed ``width`` bits per slot, or with ``keep_first`` a
    dict first -> polynomial.  ``step(p, used, last, v)`` returns how many
    slots appending v at position p moves a polynomial up, or None to
    forbid it.  The result maps (first, last) of the complete permutations
    to their sum, first being 0 unless ``keep_first``."""
    layer = {(0, 0): {0: 1} if keep_first else 1}
    for p in range(1, n + 1):
        nxt = {}
        for (used, last), poly in layer.items():
            for v in range(1, n + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                slots = step(p, used, last, v)
                if slots is None:
                    continue
                key = (used | bit, v)
                shift = slots * width
                if not keep_first:
                    nxt[key] = nxt.get(key, 0) + (poly << shift)
                elif p == 1:  # the first value is the one value placed
                    nxt[key] = {v: poly[0] << shift}
                elif key not in nxt:
                    nxt[key] = {first: c << shift for first, c in poly.items()}
                else:
                    by_first = nxt[key]
                    for first, c in poly.items():
                        by_first[first] = by_first.get(first, 0) + (c << shift)
        layer = nxt
    if keep_first:
        return {(first, last): c for (_, last), by in layer.items() for first, c in by.items()}
    return {(0, last): poly for (_, last), poly in layer.items()}


def three_class(step):
    """A ``step(p, used, last, v)`` for ``perm_walk`` from a library step
    ``step(p, used, v)``, which returns the shifts for last < v,
    last = v + 1 and last > v + 1, or None."""

    def by_last(p, used, last, v):
        shifts = step(p, used, v)
        if shifts is None:
            return None
        return shifts[0] if last < v else shifts[1] if last == v + 1 else shifts[2]

    return by_last
