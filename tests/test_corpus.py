import json
import logging

import pytest
from hypothesis import given, strategies as st

from fewner.corpus import (
    AnnotatedSentence,
    EntitySpan,
    load_corpus,
    load_entity_types,
    sample_fewshot,
    save_corpus,
    validate_corpus,
    validate_sentence,
)
from fewner.errors import ConfigError, DataError, ParseError, SpanValidationError

from conftest import sent, span


# ---------------------------------------------------------------------------
# Validation


def test_validate_sentence_accepts_good_spans():
    validate_sentence(sent("s1", "fever and chills", [span(0, 5, "DISO", "fever")]))


def test_validate_sentence_rejects_out_of_range():
    with pytest.raises(SpanValidationError, match="s1"):
        validate_sentence(sent("s1", "short", [span(0, 99, "DISO", "short")]))


def test_validate_sentence_rejects_mention_mismatch():
    with pytest.raises(SpanValidationError, match="s1"):
        validate_sentence(sent("s1", "fever and chills", [span(0, 5, "DISO", "chill")]))


def test_validate_sentence_rejects_duplicate_span_keys():
    dup = [span(0, 5, "DISO", "fever"), span(0, 5, "DISO", "fever")]
    with pytest.raises(SpanValidationError, match="s1"):
        validate_sentence(sent("s1", "fever etc", dup))


def test_validate_corpus_rejects_duplicate_ids():
    with pytest.raises(DataError):
        validate_corpus([sent("a", "x"), sent("a", "y")])


# ---------------------------------------------------------------------------
# Entity type registry


def test_registry_has_forty_types_with_names():
    registry = load_entity_types()
    assert len(registry) == 40
    diso = registry["DISO"]
    assert diso.singular("en") == "a disorder"
    assert diso.plural("en") == "disorders"
    assert diso.domain == "clinical"
    assert "en" in diso.names


def test_registry_language_errors():
    registry = load_entity_types()
    ncbi = registry["SpecificDisease"]  # English-only annotations
    with pytest.raises(ConfigError):
        ncbi.singular("fr")


_NAMES = {"en": {"singular": "a thing", "plural": "things"}}


@pytest.mark.parametrize(
    "payload, culprit",
    [
        pytest.param([1], "top level", id="top-level-list"),
        pytest.param("X", "top level", id="top-level-string"),
        pytest.param({"X": 1}, "'X'", id="entry-number"),
        pytest.param({"X": ["names"]}, "'X'", id="entry-list"),
        pytest.param({"X": {}}, "'X'", id="names-missing"),
        pytest.param({"X": {"names": ["en"]}}, "'X'", id="names-list"),
        pytest.param({"X": {"names": {"en": "a thing"}}}, "'X'", id="name-string"),
        pytest.param(
            {"X": {"names": {"en": {"singular": "a thing", "plural": 2}}}}, "'X'",
            id="name-number",
        ),
        pytest.param({"X": {"names": {"en": {"singular": "a thing"}}}}, "'X'", id="no-plural"),
        pytest.param({"X": {"names": _NAMES, "definitions": ["en"]}}, "'X'", id="definitions-list"),
        pytest.param(
            {"X": {"names": _NAMES, "definitions": {"en": "Things."}, "domain": "law"}}, "'X'",
            id="unknown-domain",
        ),
        pytest.param(
            {"X": {"names": _NAMES, "definitions": {"fr": "Des choses."}}}, "'X'",
            id="languages-differ",
        ),
    ],
)
def test_malformed_registry_raises_a_data_error_naming_path_and_entry(
    tmp_path, payload, culprit
):
    path = tmp_path / "types.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_entity_types(path)
    assert str(path) in str(caught.value) and culprit in str(caught.value)


def test_registry_entry_with_names_and_definitions_loads(tmp_path):
    path = tmp_path / "types.json"
    payload = {"X": {"names": _NAMES, "definitions": {"en": "Things."}, "domain": "clinical"}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    (thing,) = load_entity_types(path).values()
    assert (thing.id, thing.plural("en"), thing.definition("en")) == ("X", "things", "Things.")
    assert thing.domain == "clinical"


# ---------------------------------------------------------------------------
# JSONL


JSONL_LINES = [
    {"id": "d0:0", "language": "en", "text": "fever after ibuprofen",
     "spans": [
         {"start": 0, "end": 5, "type": "DISO", "mention": "fever"},
         {"start": 12, "end": 21, "type": "CHEM", "mention": "ibuprofen"},
     ]},
    {"id": "d0:1", "language": "en", "text": "no complaints", "spans": []},
]


def test_jsonl_load_and_roundtrip(tmp_path):
    path = tmp_path / "mini.jsonl"
    path.write_text("\n".join(json.dumps(row) for row in JSONL_LINES) + "\n", encoding="utf-8")
    corpus = load_corpus(path, "jsonl")
    assert [s.id for s in corpus] == ["d0:0", "d0:1"]
    assert corpus[0].spans[1].mention == "ibuprofen"

    out = tmp_path / "copy.jsonl"
    save_corpus(corpus, out, "jsonl")
    assert load_corpus(out, "jsonl") == corpus


def test_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "spans": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(path, "jsonl")
    assert err.value.line == 2


GOOD_SPAN = {"start": 0, "end": 5, "type": "DISO", "mention": "fever"}


@pytest.mark.parametrize(
    "record, field",
    [
        ({"text": 5}, "text"),
        ({"text": "fever", "spans": 5}, "spans"),
        (["text"], "object"),
        ({"text": "fever", "language": ["en"]}, "language"),
        ({"text": "fever", "spans": [["a"]]}, "object"),
        ({"text": "fever", "spans": [{k: v for k, v in GOOD_SPAN.items() if k != "end"}]}, "end"),
        ({"text": "fever", "spans": [{**GOOD_SPAN, "start": "0"}]}, "start"),
        ({"text": "fever", "spans": [{**GOOD_SPAN, "end": True}]}, "end"),
        ({"text": "fever", "spans": [{**GOOD_SPAN, "type": 1}]}, "type"),
        ({"text": "fever", "spans": [{**GOOD_SPAN, "mention": None}]}, "mention"),
    ],
    ids=[
        "text-int", "spans-int", "record-list", "language-list", "span-list",
        "end-missing", "start-str", "end-bool", "type-int", "mention-null",
    ],
)
def test_jsonl_rejects_a_record_of_another_shape(tmp_path, record, field):
    path = tmp_path / "bad.jsonl"
    good = {"id": "a", "text": "fever", "spans": [GOOD_SPAN]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=field) as err:
        load_corpus(path, "jsonl")
    assert err.value.path == str(path) and err.value.line == 2


def test_load_corpus_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        load_corpus(tmp_path / "x.txt", "tsv")


def test_load_corpus_rejects_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_corpus(tmp_path / "absent.jsonl", "jsonl")


@pytest.mark.parametrize("format", ["jsonl", "conll"])
def test_load_corpus_rejects_a_directory_naming_it(tmp_path, format):
    folder = tmp_path / f"corpus.{format}"
    folder.mkdir()
    with pytest.raises(DataError, match="cannot read corpus") as err:
        load_corpus(folder, format)
    assert str(folder) in str(err.value)


@pytest.mark.parametrize("format", ["jsonl", "conll", "brat"])
def test_load_corpus_rejects_text_that_is_not_utf8_naming_it(tmp_path, format):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"\xff\xfef\x00e\x00v\x00e\x00r\x00")  # UTF-16 with its byte-order mark
    with pytest.raises(DataError, match="cannot read corpus") as err:
        load_corpus(path, format)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# CoNLL


CONLL_IOB2 = """\
-DOCSTART- O

fever B-DISO
and O
night B-DISO
sweats I-DISO
. O

took O
ibuprofen B-CHEM
. O
"""


def test_conll_load_iob2(tmp_path):
    path = tmp_path / "c.conll"
    path.write_text(CONLL_IOB2, encoding="utf-8")
    corpus = load_corpus(path, "conll")
    assert len(corpus) == 2  # -DOCSTART- dropped
    first = corpus[0]
    assert first.text == "fever and night sweats ."
    assert [s.mention for s in first.spans] == ["fever", "night sweats"]
    assert first.spans[1] == EntitySpan(10, 22, "DISO", "night sweats")


CONLL_IOB1 = """\
fever I-DISO
chills I-DISO
then O
rash I-DISO
burn B-DISO
"""


def test_conll_iob1_adjacent_chunks(tmp_path):
    path = tmp_path / "c1.conll"
    path.write_text(CONLL_IOB1, encoding="utf-8")
    (sentence,) = load_corpus(path, "conll")
    assert [s.mention for s in sentence.spans] == ["fever chills", "rash", "burn"]


def test_conll_roundtrip(tmp_path):
    path = tmp_path / "c.conll"
    path.write_text(CONLL_IOB2, encoding="utf-8")
    corpus = load_corpus(path, "conll")
    out = tmp_path / "copy.conll"
    save_corpus(corpus, out, "conll")
    reloaded = load_corpus(out, "conll")
    # Ids embed the source filename; text and spans must survive exactly.
    assert [(s.text, s.spans) for s in reloaded] == [(s.text, s.spans) for s in corpus]
    # Output is IOB2 two-column.
    lines = [l for l in out.read_text(encoding="utf-8").split("\n") if l]
    assert all(len(l.split(" ")) == 2 for l in lines)


def test_conll_rejects_bad_tag(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("fever X-DISO\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(path, "conll")
    assert err.value.line == 1


def test_conll_rejects_single_column(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("fever B-DISO\nalone\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(path, "conll")
    assert err.value.line == 2


def test_conll_save_refuses_overlap(tmp_path):
    text = "acute renal failure"
    refused = [
        [span(0, 19, "DISO", text), span(6, 19, "DISO", "renal failure")],
        # Across two types, a nested span, and one span under two types.
        [span(0, 11, "DISO", "acute renal"), span(6, 19, "CHEM", "renal failure")],
        [span(0, 19, "DISO", text), span(6, 11, "CHEM", "renal")],
        [span(6, 11, "DISO", "renal"), span(6, 11, "CHEM", "renal")],
    ]
    for spans in refused:
        with pytest.raises(DataError, match="overlapping or nested"):
            save_corpus([sent("s", text, spans)], tmp_path / "o.conll", "conll")
    # Spans that only touch (one ends where the next starts) are written.
    touching = sent("s", "overdose", [span(0, 4, "DISO", "over"), span(4, 8, "CHEM", "dose")])
    save_corpus([touching], tmp_path / "t.conll", "conll")
    (reloaded,) = load_corpus(tmp_path / "t.conll", "conll")
    assert [(s.mention, s.type) for s in reloaded.spans] == [("over", "DISO"), ("dose", "CHEM")]


def test_conll_save_splits_tokens_at_span_boundaries(tmp_path):
    # A sub-token span is written by cutting the token at the boundary; the
    # mention survives even though the whitespace tokenization changes.
    inner = sent("s", "overdose", [span(4, 8, "DISO", "dose")])
    out = tmp_path / "b.conll"
    save_corpus([inner], out, "conll")
    assert out.read_text(encoding="utf-8").startswith("over O\ndose B-DISO")
    (reloaded,) = load_corpus(out, "conll")
    assert [s.mention for s in reloaded.spans] == ["dose"]


def test_conll_save_refuses_whitespace_only_span(tmp_path):
    bad = sent("s", "a  b", [span(1, 3, "DISO", "  ")])
    with pytest.raises(DataError):
        save_corpus([bad], tmp_path / "w.conll", "conll")


# ---------------------------------------------------------------------------
# BRAT


def test_brat_document_roundtrip(tmp_path):
    doc = tmp_path / "doc1.txt"
    ann = tmp_path / "doc1.ann"
    doc.write_text("fever after ibuprofen", encoding="utf-8")
    ann.write_text(
        "T1\tDISO 0 5\tfever\nT2\tCHEM 12 21\tibuprofen\n#1\tAnnotatorNotes T1\tnote\n",
        encoding="utf-8",
    )
    corpus = load_corpus(doc, "brat")
    assert len(corpus) == 1
    assert corpus[0].id == "doc1"
    assert [s.type for s in corpus[0].spans] == ["DISO", "CHEM"]

    out = tmp_path / "out"
    save_corpus(corpus, out, "brat")
    again = load_corpus(out, "brat")
    assert [s.spans for s in again] == [corpus[0].spans]


def test_brat_directory_load_sorted(tmp_path):
    for name, text in [("b.txt", "chills"), ("a.txt", "fever")]:
        (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / name).with_suffix(".ann").write_text("", encoding="utf-8")
    corpus = load_corpus(tmp_path, "brat")
    assert [s.id for s in corpus] == ["a", "b"]


def test_brat_discontinuous_becomes_fragments(tmp_path, caplog):
    doc = tmp_path / "d.txt"
    doc.write_text("left and right arm", encoding="utf-8")
    doc.with_suffix(".ann").write_text(
        "T1\tANAT 0 4;15 18\tleft arm\n", encoding="utf-8"
    )
    with caplog.at_level(logging.WARNING):
        corpus = load_corpus(doc, "brat")
    assert [(s.start, s.end) for s in corpus[0].spans] == [(0, 4), (15, 18)]
    assert any("discontinuous" in r.message for r in caplog.records)


def test_brat_rejects_surface_mismatch(tmp_path):
    doc = tmp_path / "d.txt"
    doc.write_text("fever", encoding="utf-8")
    doc.with_suffix(".ann").write_text("T1\tDISO 0 5\tchill\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_corpus(doc, "brat")


def test_brat_directory_with_a_document_that_is_not_utf8_is_a_data_error(tmp_path):
    (tmp_path / "a.txt").write_text("fever", encoding="utf-8")
    (tmp_path / "b.txt").write_bytes(b"\xff\xfef\x00")
    with pytest.raises(DataError, match="cannot read corpus") as err:
        load_corpus(tmp_path, "brat")
    assert str(tmp_path) in str(err.value)


def test_brat_rejects_empty_directory(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(DataError):
        load_corpus(empty, "brat")


def test_brat_save_sanitizes_filenames(tmp_path):
    weird = sent("a/b:c d", "fever", [span(0, 5, "DISO", "fever")])
    out = tmp_path / "out"
    save_corpus([weird], out, "brat")
    files = sorted(p.name for p in out.glob("*.txt"))
    assert len(files) == 1
    assert "/" not in files[0] and ":" not in files[0]


# ---------------------------------------------------------------------------
# Sampling and folds


def make_numbered(n):
    return [sent(f"s{i:03d}", f"text number {i}") for i in range(n)]


def test_sample_fewshot_regression():
    from fewner.synthetic import synthetic_corpus

    sents, _ = synthetic_corpus(20, seed=1)
    picked = sample_fewshot(sents, 5, 7)
    # Frozen: the (k=5, p=7) deal over this corpus. A change here means the
    # sampling algorithm changed and published samples are no longer
    # recoverable.
    assert picked.sentence_ids == (
        "syn-en-0007", "syn-en-0015", "syn-en-0002", "syn-en-0014", "syn-en-0003",
    )
    assert picked.k == 5 and picked.p == 7


def test_sample_fewshot_is_seed_sensitive_and_order_insensitive():
    corpus = make_numbered(30)
    a = sample_fewshot(corpus, 6, 1).sentence_ids
    b = sample_fewshot(corpus, 6, 2).sentence_ids
    assert a != b
    shuffled_input = list(reversed(corpus))
    assert sample_fewshot(shuffled_input, 6, 1).sentence_ids == a


def test_sample_fewshot_bounds():
    corpus = make_numbered(4)
    with pytest.raises(ConfigError, match="k=9"):
        sample_fewshot(corpus, 9, 0)
    with pytest.raises(ConfigError, match="at least 1"):
        sample_fewshot(corpus, 0, 0)


# ---------------------------------------------------------------------------
# Properties


texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    min_size=1,
    max_size=60,
)


@given(st.lists(texts, min_size=1, max_size=8, unique=True))
def test_jsonl_roundtrip_property(tmp_path_factory, raw_texts):
    corpus = [sent(f"s{i}", t) for i, t in enumerate(raw_texts)]
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    save_corpus(corpus, path, "jsonl")
    assert load_corpus(path, "jsonl") == corpus
