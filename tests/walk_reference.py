"""The permutation walk that the library ran before its three-class step,
for the tests.

``smirnov.walks.perm_walk`` keeps one row per (used set, tag), its
polynomials indexed by the last value, and asks its step only how the last
value compares with the appended v.  ``perm_walk`` here is the independent
route it replaced: a state per (used set, last value), carrying a dict
tag -> polynomial, with a step that sees the last value itself.
``three_class`` drives it with a library step, so the tests can compare the
two walks under one rule.
"""


def perm_walk(n, width, step):
    """Prefix DP over the permutations of 1..n.  A state is (the values used
    so far, value v at bit v - 1; the last value, 0 when p = 1) and carries
    a dict tag -> polynomial packed ``width`` bits per slot, the tag 0
    until a step stamps it.  ``step(p, used, last, v)`` returns how many
    slots appending v at position p moves a polynomial up, and the stamp
    that a polynomial tagged 0 takes.  The result maps (tag, last) of the
    complete permutations to their sum."""
    layer = {(0, 0): {0: 1}}
    for p in range(1, n + 1):
        nxt = {}
        for (used, last), by_tag in layer.items():
            for v in range(1, n + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                slots, stamp = step(p, used, last, v)
                into = nxt.setdefault((used | bit, v), {})
                for tag, poly in by_tag.items():
                    into[tag or stamp] = into.get(tag or stamp, 0) + (poly << slots * width)
        layer = nxt
    return {(tag, last): poly for (_, last), by_tag in layer.items() for tag, poly in by_tag.items()}


def three_class(step):
    """A ``step(p, used, last, v)`` for ``perm_walk`` from a library step
    ``step(p, used, v)``, which returns the shifts for last < v,
    last = v + 1 and last > v + 1, and a stamp, passed through."""

    def by_last(p, used, last, v):
        below, next_up, above, stamp = step(p, used, v)
        return below if last < v else next_up if last == v + 1 else above, stamp

    return by_last
