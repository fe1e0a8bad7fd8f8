"""Exhaustive cosine scan used to cross-check select_nearest.

Re-derives the pinned TF-IDF scheme from scratch and ranks candidates by
comparing squared cosines as exact fractions.  Squaring keeps every
comparison rational (all vector entries are nonnegative, so cosine order is
preserved), which means float rounding can never reorder two candidates
whose true similarities differ.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction

_WORDS = re.compile(r"[^\W_]+", re.UNICODE)


def _tokens(text: str) -> list[str]:
    return [w.lower() for w in _WORDS.findall(text)]


def scan_nearest(pool: list[tuple[str, str]], test_text: str, n: int) -> list[str]:
    """Ids of the n pool entries nearest to test_text, ties toward smaller id.

    pool holds (id, text) pairs.  idf uses the same formula as the package
    (ln((1+N)/(1+df)) + 1 over the whole pool); everything after those floats
    is exact rational arithmetic.
    """
    token_lists = {sid: _tokens(text) for sid, text in pool}
    df: Counter[str] = Counter()
    for tokens in token_lists.values():
        df.update(set(tokens))
    big_n = len(pool)
    idf = {
        term: Fraction(math.log((1 + big_n) / (1 + count)) + 1.0)
        for term, count in df.items()
    }

    def vec(tokens: list[str]) -> dict[str, Fraction]:
        counts = Counter(t for t in tokens if t in idf)
        return {term: count * idf[term] for term, count in counts.items()}

    query = vec(_tokens(test_text))
    query_sq = sum(w * w for w in query.values())
    scored: list[tuple[Fraction, str]] = []
    for sid, _ in pool:
        candidate = vec(token_lists[sid])
        cand_sq = sum(w * w for w in candidate.values())
        dot = sum(w * candidate[t] for t, w in query.items() if t in candidate)
        if query_sq == 0 or cand_sq == 0:
            key = Fraction(0)
        else:
            key = dot * dot / (query_sq * cand_sq)
        scored.append((key, sid))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:n]]
