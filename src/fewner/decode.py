"""Turn model completions back into entity spans.

Completions are treated as untrusted text: decoding never raises on
arbitrary input, and anything that cannot be mapped back onto the original
sentence is dropped and counted instead.

Only the text before the first stop-like boundary is decoded (a blank line,
a line starting with the input label of any prompt language, or, for
dialogue prompts, a later line starting a "- " turn), which guards against
servers that ignore stop sequences and hallucinate further exchanges.

A tagged completion that echoes the sentence (its tags balance, and its
decodable prefix with the tags removed is the sentence, less any part of
its leading whitespace, which the prefix strips) is decoded by position:
each span is where its mention sits in the untagged text, shifted past the
whitespace that was stripped, so a tagged later occurrence of a repeated
word lands on that occurrence.

Every other completion, and every listing-mode one, is decoded by surface
matching.  Each extracted mention is located in the original sentence
starting one character past the previous successful match's start, so
repeated surface forms map to successive occurrences.  Localization has
three stages of increasing leniency: (a) exact substring search, (b)
case-insensitive search on casefolded text, with offsets mapped back to the
original characters, (c) whitespace-normalized case-insensitive search via
an escaped-token regex.  The recorded mention is always the original text
between the found offsets, so span invariants hold by construction.

A consequence of surface matching: when a completion that rewrites the
sentence, or lists mentions, names a later occurrence of a word whose
earlier occurrences it does not name, the span lands on the first
occurrence.  Such a completion gives no other evidence of which occurrence
it meant.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, replace

from .corpus import WORD, EntitySpan
from .errors import DataError
from .templates import TagPair, fragments

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"
VERDICT_UNPARSEABLE = "unparseable"

_AFFIRMATIVE = {"yes", "oui", "sí"}
_NEGATIVE = {"no", "non"}

# Stripped from both ends of listed mentions, after whitespace.
_EDGE_PUNCT = ".,;:!?\"'()[]{}«»¡¿…·-"


@dataclass
class DecodeDiagnostics:
    unbalanced_tags: int = 0
    unmatched_mentions: int = 0
    duplicate_mentions: int = 0
    unverified_kept: int = 0

    def __add__(self, other: "DecodeDiagnostics") -> "DecodeDiagnostics":
        return DecodeDiagnostics(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class DecodeResult:
    spans: tuple[EntitySpan, ...]
    diagnostics: DecodeDiagnostics


def decodable_prefix(completion: str, dialogue: bool = False) -> str:
    """Text before the first blank line or line that starts with an input
    label of any prompt language; with dialogue, also before the first line
    after the first that starts a "- " turn."""
    labels = tuple(frags["input_label"] for frags in fragments().values())
    kept = []
    for line in completion.lstrip().split("\n"):
        if (
            line.strip() == ""
            or line.startswith(labels)
            or (dialogue and kept and line.startswith("- "))
        ):
            break
        kept.append(line)
    return "\n".join(kept)


def _find_casefolded(original: str, mention: str, search_from: int) -> tuple[int, int] | None:
    """Offsets of the first substring of original, starting at or after
    search_from, whose casefold equals mention's.

    Casefolding can change a character's length ("ß" folds to "ss"), so the
    search runs on the folded text and a match counts only when both of its
    ends fall on original character boundaries.
    """
    target = mention.casefold()
    folded = [c.casefold() for c in original]
    starts = [0]
    for piece in folded:
        starts.append(starts[-1] + len(piece))
    char_at = {offset: i for i, offset in enumerate(starts)}
    text = "".join(folded)
    at = text.find(target, starts[search_from])
    while at != -1:
        start, end = char_at.get(at), char_at.get(at + len(target))
        if start is not None and end is not None:
            return start, end
        at = text.find(target, at + 1)
    return None


def _locate_mention(original: str, mention: str, search_from: int) -> tuple[int, int] | None:
    idx = original.find(mention, search_from)
    if idx != -1:
        return idx, idx + len(mention)
    found = _find_casefolded(original, mention, search_from)
    if found is not None:
        return found
    tokens = mention.lower().split()
    if tokens:
        pattern = re.compile(r"\s+".join(re.escape(t) for t in tokens), re.IGNORECASE)
        found = pattern.search(original, search_from)
        if found is not None and found.start() < found.end():
            return found.start(), found.end()
    return None


def _localize_all(
    mentions: list[str], original: str, entity_type: str, diagnostics: DecodeDiagnostics
) -> list[EntitySpan]:
    spans: list[EntitySpan] = []
    located_surfaces: set[str] = set()
    search_from = 0
    for mention in mentions:
        if mention.strip() == "":
            diagnostics.unmatched_mentions += 1
            continue
        place = _locate_mention(original, mention, search_from)
        if place is None:
            if mention in located_surfaces:
                diagnostics.duplicate_mentions += 1
            else:
                diagnostics.unmatched_mentions += 1
            continue
        start, end = place
        spans.append(EntitySpan(start, end, entity_type, original[start:end]))
        located_surfaces.add(mention)
        search_from = start + 1
    return spans


def decode_tagged(
    completion: str, original: str, tags: TagPair, entity_type: str, dialogue: bool = False
) -> DecodeResult:
    """Extract tag-wrapped mentions from a completion and map them to spans.

    A completion that echoes the sentence is decoded by position, any other
    by surface matching (see the module docstring).

    dialogue says the prompt used the dash-turn layout (see decodable_prefix).
    """
    diagnostics = DecodeDiagnostics()
    text = decodable_prefix(completion, dialogue)
    mentions: list[str] = []
    # The text with each extracted mention's tags removed, and the offsets
    # of each mention in it; both hold only while no tag was unbalanced.
    untagged: list[str] = []
    places: list[tuple[int, int]] = []
    at = 0
    cursor = 0
    while True:
        i = text.find(tags.open, cursor)
        if i == -1:
            break
        after = i + len(tags.open)
        close_at = text.find(tags.close, after)
        next_open = text.find(tags.open, after)
        if close_at == -1:
            diagnostics.unbalanced_tags += 1
            cursor = after
            continue
        if next_open != -1 and next_open < close_at:
            diagnostics.unbalanced_tags += 1
            cursor = next_open
            continue
        mention = text[after:close_at]
        mentions.append(mention)
        untagged += (text[cursor:i], mention)
        at += i - cursor
        places.append((at, at + len(mention)))
        at += len(mention)
        cursor = close_at + len(tags.close)
    untagged.append(text[cursor:])
    joined = "".join(untagged)
    # decodable_prefix strips the whitespace before the first tag, so an
    # echo may lack some of the sentence's leading whitespace.
    shift = len(original) - len(joined)
    if diagnostics.unbalanced_tags or not original.endswith(joined) or original[:shift].strip():
        spans = _localize_all(mentions, original, entity_type, diagnostics)
    else:
        spans = [
            EntitySpan(start + shift, end + shift, entity_type, mention)
            for mention, (start, end) in zip(mentions, places)
            if mention.strip()
        ]
        diagnostics.unmatched_mentions += len(mentions) - len(spans)
    return DecodeResult(spans=tuple(spans), diagnostics=diagnostics)


def decode_listing(
    completion: str, original: str, separator: str, entity_type: str, dialogue: bool = False
) -> DecodeResult:
    """Split a listed completion into mentions and map them to spans.

    separator is "comma" or "newline"; items are trimmed of surrounding
    whitespace and punctuation, empties dropped.  dialogue is as in
    decode_tagged.
    """
    diagnostics = DecodeDiagnostics()
    text = decodable_prefix(completion, dialogue)
    raw_items = text.split("," if separator == "comma" else "\n")
    mentions = []
    for item in raw_items:
        cleaned = item.strip().strip(_EDGE_PUNCT).strip()
        if cleaned:
            mentions.append(cleaned)
    spans = _localize_all(mentions, original, entity_type, diagnostics)
    return DecodeResult(spans=tuple(spans), diagnostics=diagnostics)


def parse_verification(completion: str, mention: str = "") -> str:
    """Map a verification completion to accept/reject/unparseable.

    Only the first non-empty line is considered.  Affirmative and negative
    word tokens are matched case-insensitively in English, French and
    Spanish; a line containing both (or neither) is unparseable.  Long
    answers end in ", yes."/", no." and so parse like short ones; the
    mention they restate, which may hold a verdict word of its own, is left
    out where its words first run, unless they are the whole line.
    """
    first_line = ""
    for line in completion.lstrip().split("\n"):
        if line.strip():
            first_line = line
            break
    # Words never hold a space, so a run of the mention's words is a
    # substring of the line's words padded and joined by spaces.
    words = " %s " % " ".join(WORD.findall(first_line)).lower()
    restated = " %s " % " ".join(WORD.findall(mention)).lower()
    if words != restated:
        words = words.replace(restated, " ", 1)
    tokens = set(words.split())
    saw_yes = bool(tokens & _AFFIRMATIVE)
    saw_no = bool(tokens & _NEGATIVE)
    if saw_yes == saw_no:
        return VERDICT_UNPARSEABLE
    return VERDICT_ACCEPT if saw_yes else VERDICT_REJECT


def apply_verification(result: DecodeResult, verdicts: list[str]) -> DecodeResult:
    """Filter decoded spans by their verification verdicts.

    Accepted and unparseable spans are kept (unparseable conservatively, and
    counted); rejected spans are dropped.  The verdict list must align
    one-to-one with result.spans.
    """
    if len(verdicts) != len(result.spans):
        raise ValueError(
            f"got {len(verdicts)} verdicts for {len(result.spans)} spans"
        )
    kept = []
    diagnostics = replace(result.diagnostics)
    for span, verdict in zip(result.spans, verdicts):
        if verdict == VERDICT_REJECT:
            continue
        if verdict == VERDICT_UNPARSEABLE:
            diagnostics.unverified_kept += 1
        elif verdict != VERDICT_ACCEPT:
            raise ValueError(f"unknown verdict {verdict!r}")
        kept.append(span)
    return DecodeResult(spans=tuple(kept), diagnostics=diagnostics)


@dataclass
class PredictionSet:
    """Decoded spans per sentence per entity type, with pooled diagnostics."""

    spans: dict[str, dict[str, tuple[EntitySpan, ...]]] = field(default_factory=dict)
    diagnostics: DecodeDiagnostics = field(default_factory=DecodeDiagnostics)

    def add(self, sentence_id: str, entity_type: str, result: DecodeResult) -> None:
        per_type = self.spans.setdefault(sentence_id, {})
        per_type[entity_type] = result.spans
        self.diagnostics = self.diagnostics + result.diagnostics

    def spans_for(self, sentence_id: str, entity_type: str) -> tuple[EntitySpan, ...]:
        return self.spans.get(sentence_id, {}).get(entity_type, ())

    def total_spans(self) -> int:
        return sum(
            len(spans) for per_type in self.spans.values() for spans in per_type.values()
        )

    def to_json(self) -> str:
        payload = {
            "diagnostics": self.diagnostics.to_dict(),
            "sentences": {
                sid: {
                    type_id: [s.to_row() for s in spans]
                    for type_id, spans in sorted(per_type.items())
                }
                for sid, per_type in sorted(self.spans.items())
            },
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "PredictionSet":
        """The set that to_json's JSON object, once parsed, describes;
        DataError when the object is not shaped that way."""
        out = cls()
        try:
            out.diagnostics = DecodeDiagnostics(**payload.get("diagnostics", {}))
            for sid, per_type in payload.get("sentences", {}).items():
                out.spans[sid] = {
                    type_id: tuple(EntitySpan.from_row(row) for row in rows)
                    for type_id, rows in per_type.items()
                }
        except (AttributeError, TypeError) as exc:
            raise DataError(
                f"predictions are not shaped as predict writes them ({type(exc).__name__}: {exc})"
            ) from exc
        return out
