"""Corpus data model, file formats and deterministic sampling.

An annotated corpus is a list of sentences with character-offset entity
spans.  Three interchange formats are supported:

* ``conll``: whitespace-separated columns, token in the first column and a
  BIO tag in the last, blank line between sentences.  Both IOB1 (``I-X``
  opens a chunk) and IOB2 (``B-X`` opens a chunk) are accepted on input;
  output is always IOB2.
* ``brat``: standoff ``.txt`` + ``.ann`` pairs; only ``T`` lines are read.
  Discontinuous annotations are split into their contiguous fragments.
* ``jsonl``: one JSON object per line with explicit character offsets; this
  is the only format that loses nothing on a round trip.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from . import rng
from .errors import ConfigError, DataError, ParseError, SpanValidationError

logger = logging.getLogger(__name__)

CORPUS_FORMATS = ("conll", "brat", "jsonl")


@dataclass(frozen=True)
class EntityType:
    """One entity type: identifier, localized names and definitions.

    ``names`` maps a language code to ``{"singular": ..., "plural": ...}``.
    The singular form carries its indefinite article ("a disorder",
    "un trastorno") so templates can splice it into a sentence; the plural
    form composes with the language's "mentions of ..." phrasing.
    """

    id: str
    names: dict[str, dict[str, str]]
    definitions: dict[str, str]
    domain: str = "general"

    def __post_init__(self):
        if self.domain not in ("general", "clinical"):
            raise ConfigError(f"unknown domain {self.domain!r} for entity type {self.id!r}")
        if set(self.names) != set(self.definitions):
            raise ConfigError(
                f"entity type {self.id!r}: languages of names {sorted(self.names)} "
                f"and definitions {sorted(self.definitions)} differ"
            )

    def languages(self) -> set[str]:
        return set(self.names)

    def singular(self, language: str) -> str:
        return self._name(language)["singular"]

    def plural(self, language: str) -> str:
        return self._name(language)["plural"]

    def definition(self, language: str) -> str:
        try:
            return self.definitions[language]
        except KeyError:
            raise ConfigError(f"entity type {self.id!r} has no definition for language {language!r}")

    def _name(self, language: str) -> dict[str, str]:
        try:
            return self.names[language]
        except KeyError:
            raise ConfigError(f"entity type {self.id!r} has no names for language {language!r}")


@dataclass(frozen=True)
class EntitySpan:
    """A typed entity mention located by character offsets."""

    start: int
    end: int
    type: str
    mention: str

    def key(self) -> tuple[int, int, str]:
        return (self.start, self.end, self.type)


@dataclass(frozen=True)
class AnnotatedSentence:
    id: str
    text: str
    spans: tuple[EntitySpan, ...] = ()
    language: str = "en"

    def spans_of(self, type_id: str) -> tuple[EntitySpan, ...]:
        return tuple(s for s in self.spans if s.type == type_id)


@dataclass(frozen=True)
class FewShotSample:
    """The identifiers of a k-sentence sample drawn with seed p."""

    k: int
    p: int
    sentence_ids: tuple[str, ...]
    source_corpus: str = ""


def validate_sentence(sentence: AnnotatedSentence) -> None:
    """Check span offsets against the sentence; raise SpanValidationError."""
    n = len(sentence.text)
    seen: set[tuple[int, int, str]] = set()
    for span in sentence.spans:
        if not (0 <= span.start < span.end <= n):
            raise SpanValidationError(
                f"sentence {sentence.id!r}: span {span.start}..{span.end} "
                f"outside text of length {n}"
            )
        actual = sentence.text[span.start:span.end]
        if actual != span.mention:
            raise SpanValidationError(
                f"sentence {sentence.id!r}: span {span.start}..{span.end} reads "
                f"{actual!r} but is annotated as {span.mention!r}"
            )
        if span.key() in seen:
            raise SpanValidationError(
                f"sentence {sentence.id!r}: duplicate span {span.key()}"
            )
        seen.add(span.key())


def validate_corpus(sentences: Iterable[AnnotatedSentence]) -> None:
    ids: set[str] = set()
    for sentence in sentences:
        if sentence.id in ids:
            raise DataError(f"duplicate sentence id {sentence.id!r}")
        ids.add(sentence.id)
        validate_sentence(sentence)


def has_overlapping_spans(sentence: AnnotatedSentence) -> bool:
    ordered = sorted(sentence.spans, key=lambda s: (s.start, s.end))
    last_end = -1
    for span in ordered:
        if span.start < last_end:
            return True
        last_end = max(last_end, span.end)
    return False


# --------------------------------------------------------------------------
# Entity type registry

def load_entity_types(path: str | Path | None = None) -> dict[str, EntityType]:
    """Load an entity type registry; the bundled registry when path is None.
    A path that cannot be read, or is not UTF-8, raises DataError naming it."""
    if path is None:
        raw = resources.files("fewner").joinpath("data/entity_types.json").read_text("utf-8")
    else:
        try:
            raw = Path(path).read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read entity type registry {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"entity type registry is not valid JSON: {exc}", path=str(path))
    registry = {}
    for type_id, entry in data.items():
        registry[type_id] = EntityType(
            id=type_id,
            names=entry["names"],
            definitions=entry.get("definitions", {}),
            domain=entry.get("domain", "general"),
        )
    return registry


# --------------------------------------------------------------------------
# CoNLL

_BIO_TAG = re.compile(r"^(O|[BI]-\S+)$")


def _bio_chunks(tags: list[str]) -> list[tuple[int, int, str]]:
    """Token-index chunks from a BIO tag sequence (IOB1 and IOB2 accepted)."""
    chunks: list[tuple[int, int, str]] = []
    open_start = None
    open_type = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if open_start is not None:
                chunks.append((open_start, i, open_type))
                open_start = open_type = None
            continue
        prefix, type_id = tag.split("-", 1)
        starts = prefix == "B" or open_type != type_id
        if starts:
            if open_start is not None:
                chunks.append((open_start, i, open_type))
            open_start, open_type = i, type_id
    if open_start is not None:
        chunks.append((open_start, len(tags), open_type))
    return chunks


def _load_conll(path: Path, language: str) -> list[AnnotatedSentence]:
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        nonlocal tokens, tags
        if not tokens:
            return
        text = " ".join(tokens)
        offsets = []
        pos = 0
        for tok in tokens:
            offsets.append((pos, pos + len(tok)))
            pos += len(tok) + 1
        spans = []
        for tok_start, tok_end, type_id in _bio_chunks(tags):
            start = offsets[tok_start][0]
            end = offsets[tok_end - 1][1]
            spans.append(EntitySpan(start, end, type_id, text[start:end]))
        sentences.append(
            AnnotatedSentence(
                id=f"{path.name}:{len(sentences)}",
                text=text,
                spans=tuple(spans),
                language=language,
            )
        )
        tokens, tags = [], []

    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                flush()
                continue
            columns = stripped.split()
            if columns[0] == "-DOCSTART-":
                flush()
                continue
            if len(columns) < 2:
                raise ParseError(
                    f"expected at least two columns, got {stripped!r}",
                    path=str(path), line=line_no,
                )
            tag = columns[-1]
            if not _BIO_TAG.match(tag):
                raise ParseError(
                    f"unknown BIO tag {tag!r}", path=str(path), line=line_no
                )
            tokens.append(columns[0])
            tags.append(tag)
    flush()
    return sentences


def _conll_token_offsets(sentence: AnnotatedSentence) -> list[tuple[int, int]]:
    """Token offsets: whitespace runs split further at span boundaries."""
    cuts = set()
    for span in sentence.spans:
        cuts.add(span.start)
        cuts.add(span.end)
    offsets: list[tuple[int, int]] = []
    for match in re.finditer(r"\S+", sentence.text):
        start, end = match.start(), match.end()
        inner = sorted(c for c in cuts if start < c < end)
        for cut in inner + [end]:
            offsets.append((start, cut))
            start = cut
    return offsets


def _save_conll(sentences: Sequence[AnnotatedSentence], path: Path) -> None:
    lines: list[str] = []
    for sentence in sentences:
        if has_overlapping_spans(sentence):
            raise DataError(
                f"sentence {sentence.id!r} has overlapping or nested spans, "
                "which the CoNLL format cannot represent"
            )
        offsets = _conll_token_offsets(sentence)
        tags = ["O"] * len(offsets)
        for span in sorted(sentence.spans, key=lambda s: s.start):
            covered = [
                i for i, (a, b) in enumerate(offsets)
                if a < span.end and b > span.start
            ]
            if not covered:
                raise DataError(
                    f"sentence {sentence.id!r}: span {span.start}..{span.end} "
                    "covers no token and cannot be written as CoNLL"
                )
            tags[covered[0]] = f"B-{span.type}"
            for i in covered[1:]:
                tags[i] = f"I-{span.type}"
        for (start, end), tag in zip(offsets, tags):
            lines.append(f"{sentence.text[start:end]} {tag}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


# --------------------------------------------------------------------------
# BRAT standoff

_FRAGMENT = re.compile(r"^(\d+) (\d+)$")


def _load_brat_document(txt_path: Path, language: str) -> AnnotatedSentence:
    text = txt_path.read_text(encoding="utf-8")
    ann_path = txt_path.with_suffix(".ann")
    spans: list[EntitySpan] = []
    if ann_path.exists():
        with open(ann_path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line or not line.startswith("T"):
                    continue
                parts = line.split("\t", 2)
                if len(parts) < 2:
                    raise ParseError(
                        "annotation line has no tab-separated body",
                        path=str(ann_path), line=line_no,
                    )
                ann_id = parts[0]
                body = parts[1]
                surface = parts[2] if len(parts) > 2 else None
                type_id, _, offsets_part = body.partition(" ")
                if not type_id or not offsets_part:
                    raise ParseError(
                        f"malformed annotation body {body!r}",
                        path=str(ann_path), line=line_no,
                    )
                fragments = offsets_part.split(";")
                if len(fragments) > 1:
                    logger.warning(
                        "%s:%d: discontinuous annotation %s split into %d fragments",
                        ann_path, line_no, ann_id, len(fragments),
                    )
                for fragment in fragments:
                    match = _FRAGMENT.match(fragment.strip())
                    if not match:
                        raise ParseError(
                            f"malformed offsets {fragment!r}",
                            path=str(ann_path), line=line_no,
                        )
                    start, end = int(match.group(1)), int(match.group(2))
                    if not (0 <= start < end <= len(text)):
                        raise SpanValidationError(
                            f"{ann_path}:{line_no}: offsets {start}..{end} outside "
                            f"document of length {len(text)}"
                        )
                    mention = text[start:end]
                    if len(fragments) == 1 and surface is not None and surface != mention:
                        raise SpanValidationError(
                            f"{ann_path}:{line_no}: annotation text {surface!r} does "
                            f"not match document text {mention!r}"
                        )
                    spans.append(EntitySpan(start, end, type_id, mention))
    return AnnotatedSentence(id=txt_path.stem, text=text, spans=tuple(spans), language=language)


def _load_brat(path: Path, language: str) -> list[AnnotatedSentence]:
    if path.is_dir():
        docs = sorted(path.glob("*.txt"))
        if not docs:
            raise DataError(f"no .txt documents found in {path}")
        return [_load_brat_document(doc, language) for doc in docs]
    return [_load_brat_document(path, language)]


_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]+")


def _save_brat(sentences: Sequence[AnnotatedSentence], path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for sentence in sentences:
        stem = _UNSAFE_FILENAME.sub("_", sentence.id) or "doc"
        if stem in used:
            raise DataError(f"sentence ids collide as filenames: {stem!r}")
        used.add(stem)
        (path / f"{stem}.txt").write_text(sentence.text, encoding="utf-8")
        lines = []
        for i, span in enumerate(sentence.spans, start=1):
            lines.append(f"T{i}\t{span.type} {span.start} {span.end}\t{span.mention}")
        (path / f"{stem}.ann").write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )


# --------------------------------------------------------------------------
# JSONL

def _load_jsonl(path: Path, language: str) -> list[AnnotatedSentence]:
    sentences: list[AnnotatedSentence] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", path=str(path), line=line_no)
            if "text" not in record:
                raise ParseError("record has no 'text' field", path=str(path), line=line_no)
            spans = tuple(
                EntitySpan(
                    start=raw["start"], end=raw["end"],
                    type=raw["type"], mention=raw["mention"],
                )
                for raw in record.get("spans", [])
            )
            sentences.append(
                AnnotatedSentence(
                    id=str(record.get("id", f"{path.name}:{len(sentences)}")),
                    text=record["text"],
                    spans=spans,
                    language=record.get("language", language),
                )
            )
    return sentences


def _save_jsonl(sentences: Sequence[AnnotatedSentence], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            record = {
                "id": sentence.id,
                "language": sentence.language,
                "text": sentence.text,
                "spans": [
                    {"start": s.start, "end": s.end, "type": s.type, "mention": s.mention}
                    for s in sentence.spans
                ],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


# --------------------------------------------------------------------------
# Public I/O entry points

def load_corpus(path: str | Path, format: str, language: str = "en") -> list[AnnotatedSentence]:
    """Load and validate a corpus file (or BRAT directory); a path that
    cannot be read, or is not UTF-8, raises DataError naming it."""
    path = Path(path)
    if format not in CORPUS_FORMATS:
        raise ConfigError(f"unknown corpus format {format!r}; expected one of {CORPUS_FORMATS}")
    if not path.exists():
        raise DataError(f"corpus path does not exist: {path}")
    try:
        if format == "conll":
            sentences = _load_conll(path, language)
        elif format == "brat":
            sentences = _load_brat(path, language)
        else:
            sentences = _load_jsonl(path, language)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    validate_corpus(sentences)
    return sentences


def save_corpus(sentences: Sequence[AnnotatedSentence], path: str | Path, format: str) -> None:
    """Write a corpus in the given format (a directory for BRAT)."""
    path = Path(path)
    if format not in CORPUS_FORMATS:
        raise ConfigError(f"unknown corpus format {format!r}; expected one of {CORPUS_FORMATS}")
    if format == "conll":
        _save_conll(sentences, path)
    elif format == "brat":
        _save_brat(sentences, path)
    else:
        _save_jsonl(sentences, path)


# --------------------------------------------------------------------------
# Sampling and validation folds

def sample_fewshot(
    corpus: Sequence[AnnotatedSentence], k: int, p: int, source_corpus: str = ""
) -> FewShotSample:
    """Draw a deterministic k-sentence sample using seed p.

    The corpus is sorted by sentence id, then a partial Fisher-Yates shuffle
    driven by splitmix64 seeded with p picks the first k; the same (corpus,
    k, p) always reproduces the same sample, in the same order.
    """
    ids = sorted(s.id for s in corpus)
    if len(set(ids)) != len(ids):
        raise DataError("corpus has duplicate sentence ids; cannot sample")
    if k < 1:
        raise ConfigError(f"sample size k must be at least 1, got {k}")
    if k > len(ids):
        raise ConfigError(
            f"cannot sample k={k} sentences from a corpus of {len(ids)}"
        )
    picked = rng.pick_first_k(ids, k, seed=p)
    return FewShotSample(k=k, p=p, sentence_ids=tuple(picked), source_corpus=source_corpus)

