import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sent, span
from fewner.errors import ConfigError
from fewner.selection import (
    build_index,
    cosine,
    select_entity_rich,
    select_nearest,
    tokenize,
)
from reference_selection import scan_nearest

_VOCAB = (
    "fever cough rash pain chest renal acute chronic left right lower upper "
    "stable severe mild onset daily dose oral iv scan biopsy culture panel "
    "admit review ward clinic night morning episode relapse baseline repeat "
    "sodium glucose insulin aspirin contrast saline".split()
)


def make_pool(rand, size=None):
    """Random (id, text) pool for nearest-neighbour cross-checks.

    Distinct sentences never share a token multiset: a permuted duplicate
    ties mathematically while taking a different float path, so only exact
    text duplicates are allowed (injected on purpose to hit the id
    tie-break).
    """
    size = size or rand.randint(3, 30)
    texts: list[str] = []
    seen: dict[tuple[str, ...], str] = {}
    while len(texts) < size:
        if texts and rand.random() < 0.2:
            texts.append(rand.choice(texts))
            continue
        words = [rand.choice(_VOCAB) for _ in range(rand.randint(2, 12))]
        key = tuple(sorted(words))
        text = seen.setdefault(key, " ".join(words))
        texts.append(text)
    rand.shuffle(texts)
    return [(f"p{i:03d}", text) for i, text in enumerate(texts)]


def make_query(rand, pool):
    roll = rand.random()
    if roll < 0.2:
        return rand.choice(pool)[1]
    if roll < 0.3:
        return "zzz qqq www"
    return " ".join(rand.choice(_VOCAB) for _ in range(rand.randint(1, 10)))


def pool_index(pool):
    return build_index([sent(sid, text) for sid, text in pool])


def test_tokenize_lowercases_and_splits_non_word():
    assert tokenize("Fever, COUGH; naïve-x2") == ["fever", "cough", "naïve", "x2"]


def test_tokenize_excludes_underscore():
    assert tokenize("a_b") == ["a", "b"]


@given(st.text())
def test_tokenize_idempotent_on_own_output(text):
    joined = " ".join(tokenize(text))
    assert tokenize(joined) == tokenize(text)


def test_build_index_idf_and_norms():
    index = pool_index([("d1", "a b"), ("d2", "a c"), ("d3", "d")])
    assert index.idf["a"] == pytest.approx(math.log(4 / 3) + 1)
    assert index.idf["b"] == pytest.approx(math.log(2) + 1)
    for vec in index.vectors.values():
        assert math.sqrt(sum(w * w for w in vec.values())) == pytest.approx(1.0)


def test_build_index_rejects_empty_and_duplicate_ids():
    with pytest.raises(ConfigError):
        build_index([])
    with pytest.raises(ConfigError, match="duplicate"):
        build_index([sent("x", "a"), sent("x", "b")])


def test_build_index_tokenless_sentence_gets_zero_vector():
    index = pool_index([("d1", "a"), ("d2", "...")])
    assert index.vectors["d2"] == {}


def test_vector_for_text_ignores_unknown_terms():
    index = pool_index([("d1", "a b")])
    assert index.vector_for_text("zzz") == {}
    vec = index.vector_for_text("a zzz")
    assert set(vec) == {"a"} and vec["a"] == pytest.approx(1.0)


def test_cosine_is_symmetric_and_zero_on_disjoint():
    a = {"x": 0.6, "y": 0.8}
    b = {"y": 1.0}
    assert cosine(a, b) == cosine(b, a) == pytest.approx(0.8)
    assert cosine(a, {"z": 1.0}) == 0
    assert cosine({}, a) == 0


def test_select_nearest_hand_example():
    index = pool_index([("d3", "d"), ("d1", "a b"), ("d2", "a c")])
    assert select_nearest(index, "a b", 3) == ["d1", "d2", "d3"]


def test_select_nearest_identity_query_ranks_itself_first():
    pool = [("d1", "fever and cough"), ("d2", "renal panel"), ("d3", "chest pain")]
    assert select_nearest(pool_index(pool), "renal panel", 1) == ["d2"]


def test_select_nearest_ties_break_by_id():
    # Identical texts are exact ties; zero-similarity rows tie at the bottom.
    pool = [("z9", "fever cough"), ("a1", "fever cough"), ("m5", "renal"), ("m4", "biopsy")]
    got = select_nearest(pool_index(pool), "fever", 4)
    assert got == ["a1", "z9", "m4", "m5"]


def test_select_nearest_rejects_overdraw():
    index = pool_index([("d1", "a"), ("d2", "b")])
    with pytest.raises(ConfigError, match="only 2"):
        select_nearest(index, "a", 3)


def test_select_nearest_matches_exhaustive_scan():
    rand = random.Random(20260819)
    for _ in range(40):
        pool = make_pool(rand)
        index = pool_index(pool)
        query = make_query(rand, pool)
        n = rand.randint(1, len(pool))
        got = select_nearest(index, query, n)
        want = scan_nearest(pool, query, n)
        assert got == want, f"pool={pool} query={query!r} n={n}"


def test_select_nearest_results_are_prefix_stable():
    rand = random.Random(7)
    pool = make_pool(rand, size=12)
    index = pool_index(pool)
    full = select_nearest(index, "fever chest pain", len(pool))
    for n in range(1, len(pool)):
        assert select_nearest(index, "fever chest pain", n) == full[:n]


def _with_spans(sid, count, type_="DISO"):
    words = ["fever"] * count or ["well"]
    text = " ".join(words)
    spans = []
    if count:
        pos = 0
        for _ in range(count):
            spans.append(span(pos, pos + 5, type_, "fever"))
            pos += 6
    return sent(sid, text, spans)


def test_select_entity_rich_orders_by_count_then_id():
    pool = [
        _with_spans("b2", 1),
        _with_spans("a9", 3),
        _with_spans("a1", 1),
        _with_spans("c0", 0),
    ]
    assert select_entity_rich(pool, "DISO", 4) == ["a9", "a1", "b2", "c0"]
    # Input order must not matter.
    assert select_entity_rich(pool[::-1], "DISO", 4) == ["a9", "a1", "b2", "c0"]


def test_select_entity_rich_counts_only_requested_type():
    pool = [_with_spans("a", 2, type_="CHEM"), _with_spans("b", 1, type_="DISO")]
    assert select_entity_rich(pool, "DISO", 2) == ["b", "a"]


def test_select_entity_rich_rejects_overdraw():
    pool = [_with_spans("a", 1), _with_spans("b", 2)]
    with pytest.raises(ConfigError, match="only 2"):
        select_entity_rich(pool, "DISO", 3)
