"""Demonstration selection: TF-IDF nearest neighbours and entity-rich ranking.

The TF-IDF scheme is pinned so that selections are reproducible across
versions: lowercased unigram tokens ([^\\W_]+ runs, so unicode alphanumerics
without underscores), raw term counts, idf = ln((1+N)/(1+df)) + 1, and
L2-normalized sparse vectors.  Cosine similarity over these vectors ranks
candidates; ties break toward the lexicographically smaller sentence id.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import WORD, AnnotatedSentence
from .errors import ConfigError


def tokenize(text: str) -> list[str]:
    return [t.lower() for t in WORD.findall(text)]


@dataclass(frozen=True)
class TfidfIndex:
    ids: tuple[str, ...]
    idf: dict[str, float]
    vectors: dict[str, dict[str, float]]

    def vector_for_text(self, text: str) -> dict[str, float]:
        """Embed arbitrary text with this index's idf weights."""
        return _weighted(Counter(t for t in tokenize(text) if t in self.idf), self.idf)


def _weighted(counts: Counter[str], idf: dict[str, float]) -> dict[str, float]:
    """counts weighted by idf and L2-normalized; empty when counts are."""
    vec = {term: count * idf[term] for term, count in counts.items()}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    return {term: w / norm for term, w in vec.items()} if norm else {}


def build_index(sentences: list[AnnotatedSentence]) -> TfidfIndex:
    if not sentences:
        raise ConfigError("cannot build a TF-IDF index over zero sentences")
    ids = tuple(s.id for s in sentences)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate sentence ids in TF-IDF index")
    token_lists = {s.id: tokenize(s.text) for s in sentences}
    df: Counter[str] = Counter()
    for tokens in token_lists.values():
        df.update(set(tokens))
    n = len(sentences)
    idf = {term: math.log((1 + n) / (1 + count)) + 1.0 for term, count in df.items()}
    vectors = {sid: _weighted(Counter(tokens), idf) for sid, tokens in token_lists.items()}
    return TfidfIndex(ids=ids, idf=idf, vectors=vectors)


def cosine(a: dict[str, float], b: dict[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return sum(w * b[t] for t, w in a.items() if t in b)


def select_nearest(index: TfidfIndex, test_text: str, n: int) -> list[str]:
    """Ids of the n indexed sentences most similar to test_text.

    Ordered by descending cosine similarity, ties broken by ascending id.
    """
    if n > len(index.ids):
        raise ConfigError(
            f"asked for {n} demonstrations but only {len(index.ids)} candidates remain"
        )
    query = index.vector_for_text(test_text)
    ranked = sorted(index.ids, key=lambda sid: (-cosine(query, index.vectors[sid]), sid))
    return ranked[:n]


def select_entity_rich(
    sentences: list[AnnotatedSentence], entity_type: str, n: int
) -> list[str]:
    """Ids of the n sentences with the most gold spans of entity_type.

    Ties break toward the lexicographically smaller id, so the result is
    stable regardless of input order.
    """
    if n > len(sentences):
        raise ConfigError(
            f"asked for {n} demonstrations but only {len(sentences)} candidates remain"
        )
    ranked = sorted(sentences, key=lambda s: (-len(s.spans_of(entity_type)), s.id))
    return [s.id for s in ranked[:n]]
