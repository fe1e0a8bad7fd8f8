"""Independent reference implementation of tagged-completion decoding.

Written against the decoding contract before the production decoder, and
kept deliberately different in structure: tag occurrences are enumerated up
front (including overlapping ones, via lookahead regex) and walked with
bisect, instead of scanning with a moving cursor.  The fuzz suite asserts
byte-for-byte agreement between this module and fewner.decode.

Contract being implemented:

* Only text before the first stop-like boundary is decoded: leading
  whitespace is stripped, then lines are kept up to (excluding) the first
  line that is blank or starts with an input label ("Input:", "Entrée :",
  "Entrada:").  For dialogue prompts a line after the first that starts
  with "- " is a boundary too.
* An open tag with no close before the next open counts as unbalanced and
  is skipped.  A trailing open with no close at all is unbalanced too.
* Extracted mentions that are empty or whitespace-only are unmatched.
* When no tag was unbalanced and the decoded text with every extracted
  mention's tag pair removed equals the original sentence less a prefix of
  its leading whitespace (none, some or all of it), the span of each
  mention that is not empty or whitespace-only is its offsets in that
  untagged text plus the length of that prefix, and nothing counts as a
  duplicate.  Otherwise the rules below apply.
* Each mention is located in the original sentence searching from one past
  the previous successful match's start: (a) exact substring, then
  (b) the first substring whose casefold equals the mention's, then
  (c) whitespace-normalized and case-insensitive via an escaped-token regex.
* A mention that cannot be located counts as a duplicate when an identical
  extracted string was located before, as unmatched otherwise.
"""

from __future__ import annotations

import bisect
import re


def _all_positions(haystack: str, needle: str) -> list[int]:
    """Every occurrence position, overlapping ones included."""
    return [m.start() for m in re.finditer(f"(?=({re.escape(needle)}))", haystack)]


_INPUT_LABELS = ("Input:", "Entrée :", "Entrada:")


def _decodable_prefix(completion: str, dialogue: bool) -> str:
    lines = completion.lstrip().split("\n")
    for i, line in enumerate(lines):
        if not line.strip() or any(line.startswith(label) for label in _INPUT_LABELS):
            return "\n".join(lines[:i])
        if dialogue and i > 0 and line.startswith("- "):
            return "\n".join(lines[:i])
    return "\n".join(lines)


def _extract_mentions(
    text: str, open_tag: str, close_tag: str
) -> tuple[list[tuple[int, str]], int]:
    """(open tag position, mention) pairs in order, and the unbalanced count."""
    opens = _all_positions(text, open_tag)
    closes = _all_positions(text, close_tag)
    mentions: list[tuple[int, str]] = []
    unbalanced = 0
    cursor = 0
    while True:
        oi = bisect.bisect_left(opens, cursor)
        if oi == len(opens):
            break
        start = opens[oi]
        after = start + len(open_tag)
        ci = bisect.bisect_left(closes, after)
        ni = bisect.bisect_left(opens, after)
        close_at = closes[ci] if ci < len(closes) else None
        next_open = opens[ni] if ni < len(opens) else None
        if close_at is None:
            unbalanced += 1
            cursor = after
            continue
        if next_open is not None and next_open < close_at:
            unbalanced += 1
            cursor = next_open
            continue
        mentions.append((start, text[after:close_at]))
        cursor = close_at + len(close_tag)
    return mentions, unbalanced


def _echo_places(
    text: str, found: list[tuple[int, str]], open_tag: str, close_tag: str, original: str
) -> list[tuple[int, int]] | None:
    """Each mention's offsets in text with the found tag pairs cut out, or
    None when that untagged text is not the original."""
    untagged = text
    for position, mention in reversed(found):
        after_close = position + len(open_tag) + len(mention) + len(close_tag)
        untagged = untagged[:position] + mention + untagged[after_close:]
    indent = re.match(r"\s*", original).end()
    cut = next((n for n in range(indent + 1) if original[n:] == untagged), None)
    if cut is None:
        return None
    # The k-th mention follows k complete tag pairs and its own open tag,
    # and the untagged text starts cut characters into the sentence.
    pair = len(open_tag) + len(close_tag)
    return [
        (cut + position - k * pair, cut + position - k * pair + len(mention))
        for k, (position, mention) in enumerate(found)
    ]


def _locate(original: str, mention: str, search_from: int) -> tuple[int, int] | None:
    idx = original.find(mention, search_from)
    if idx != -1:
        return idx, idx + len(mention)
    # Brute force over every (start, end) pair: at most one end per start
    # can fold to the mention, since no character folds to nothing.
    target = mention.casefold()
    for start in range(search_from, len(original)):
        for end in range(start + 1, len(original) + 1):
            if original[start:end].casefold() == target:
                return start, end
    tokens = mention.lower().split()
    if tokens:
        pattern = re.compile(r"\s+".join(re.escape(t) for t in tokens), re.IGNORECASE)
        found = pattern.search(original, search_from)
        if found is not None and found.start() < found.end():
            return found.start(), found.end()
    return None


def reference_decode_tagged(
    completion: str, original: str, open_tag: str, close_tag: str, dialogue: bool = False
) -> dict:
    """Returns {"spans": [(start, end)], "unbalanced": n, "unmatched": n,
    "duplicates": n} for comparison against the production decoder."""
    text = _decodable_prefix(completion, dialogue)
    found, unbalanced = _extract_mentions(text, open_tag, close_tag)
    mentions = [mention for _, mention in found]
    places = None if unbalanced else _echo_places(text, found, open_tag, close_tag, original)
    if places is not None:
        kept = [place for place, mention in zip(places, mentions) if mention.strip() != ""]
        return {
            "spans": kept,
            "unbalanced": 0,
            "unmatched": len(mentions) - len(kept),
            "duplicates": 0,
        }
    spans: list[tuple[int, int]] = []
    located_surfaces: set[str] = set()
    unmatched = 0
    duplicates = 0
    search_from = 0
    for mention in mentions:
        if mention.strip() == "":
            unmatched += 1
            continue
        place = _locate(original, mention, search_from)
        if place is None:
            if mention in located_surfaces:
                duplicates += 1
            else:
                unmatched += 1
            continue
        spans.append(place)
        located_surfaces.add(mention)
        search_from = place[0] + 1
    return {
        "spans": spans,
        "unbalanced": unbalanced,
        "unmatched": unmatched,
        "duplicates": duplicates,
    }
