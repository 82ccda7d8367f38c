"""Reference enumerations of Smirnov words, for the tests.

The library reads every word enumerator from the insertion DP
``smirnov.combinat._insertion_ends`` and its endpoint rule.  Two independent
routes are kept here to check it: the per-word routines, with the endpoint
classes and filters stated here, at small n, and ``_word_ends``, the prefix
DP over (first, last, content, letters used) that the library ran before
the insertion DP, for every n <= 8 and k <= n.
"""

import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

Word = tuple[int, ...]

WORD_CLASSES = ("all", "<", ">", "=", "!=")


def endpoint_class(first: int, last: int) -> str:
    return "<" if first < last else ">" if first > last else "="


def passes(class_filter: str, cls: str) -> bool:
    """Whether a word of endpoint class ``cls`` passes the filter: "all",
    one class, or "!=" for first and last letters that differ."""
    return class_filter in ("all", cls) or (class_filter == "!=" and cls != "=")


def smirnov_words(n: int, k: int, class_filter: str = "all") -> Iterator[Word]:
    """Stream the Smirnov words of length n over the alphabet 1..k whose
    first/last letters satisfy the class filter."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if class_filter not in WORD_CLASSES:
        raise ValueError(f"unknown class filter {class_filter!r}")
    word = [0] * n

    def extend(i: int) -> Iterator[Word]:
        for c in range(1, k + 1):
            if i and c == word[i - 1]:
                continue
            word[i] = c
            if i == n - 1:
                if passes(class_filter, endpoint_class(word[0], c)):
                    yield tuple(word)
            else:
                yield from extend(i + 1)

    return extend(0)


class WordStats(NamedTuple):
    des: int
    asc: int
    cdes: int
    endpoint: str  # '<', '>', or '='


def word_stats(w: Sequence[int]) -> WordStats:
    """Descent, ascent, and cyclic descent counts of a word.

    The cyclic descent count adds the wraparound comparison of the last
    letter against the first.

    >>> word_stats((1, 2, 1))
    WordStats(des=1, asc=1, cdes=1, endpoint='=')
    >>> word_stats((1, 2))
    WordStats(des=0, asc=1, cdes=1, endpoint='<')
    """
    if not w:
        raise ValueError("word must be nonempty")
    des = sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    asc = sum(1 for i in range(len(w) - 1) if w[i] < w[i + 1])
    cdes = des + (1 if w[-1] > w[0] else 0)
    return WordStats(des, asc, cdes, endpoint_class(w[0], w[-1]))


@lru_cache(maxsize=None)
def _word_ends(n: int, k: int) -> tuple[int, dict[tuple[int, ...], dict[str, int]]]:
    """(width, alpha -> endpoint class -> descent polynomial packed ``width``
    bits per power of t) of the Smirnov words of length n with content
    exactly alpha, for the compositions alpha of n with at most k parts.

    One prefix DP over (first, last, content, letters used) per alphabet
    size l, keeping a prefix only while its unused letters fit in what is
    left of the word, so every word it completes uses all l letters.
    """
    width = math.factorial(n).bit_length()  # no coefficient exceeds n!
    base = n + 1
    ends: dict[tuple[int, ...], dict[str, int]] = {}
    for ell in range(1, min(n, k) + 1):
        unit = [base**c for c in range(ell)]
        layer = {(c, c, unit[c], 1 << c): 1 for c in range(ell)}
        for i in range(2, n + 1):
            nxt: dict[tuple[int, int, int, int], int] = {}
            for (first, last, code, used), poly in layer.items():
                down = poly << width
                for c in range(ell):
                    grown = used | 1 << c
                    if c == last or ell - grown.bit_count() > n - i:
                        continue
                    key = (first, c, code + unit[c], grown)
                    nxt[key] = nxt.get(key, 0) + (down if c < last else poly)
            layer = nxt
        for (first, last, code, _), poly in layer.items():
            alpha = tuple(code // u % base for u in unit)
            by_class = ends.setdefault(alpha, {})
            cls = endpoint_class(first, last)
            by_class[cls] = by_class.get(cls, 0) + poly
    return width, ends
