"""Prompt configuration and rendering.

A prompt targets exactly one entity type.  In tagging mode the model is asked
to repeat the sentence with every mention wrapped in a tag pair; in listing
mode it is asked for the bare mention list.  Nine binary features control the
wording:

1.  prompt_language_native   prompt in the corpus language instead of English
2.  additional_sentences     10 demonstrations instead of 5
3.  self_verification        entity-rich demo selection plus a yes/no
                             verification pass over decoded spans
4.  alt_taggers              << and >> instead of @@ and ##
5.  specialist_persona       the header becomes a "you are an excellent
                             linguist/clinician" sentence
6.  label_definitions        a one-sentence definition of the entity type is
                             added after the header
7.  intro_sentence           an extra instruction between the demonstrations
                             and the test sentence
8.  long_verification_answer verification answers restate the mention
                             instead of a bare yes/no
9.  dialogue_template        dash-prefixed turns instead of Input:/Output:

Nested or overlapping same-type gold spans cannot be expressed with flat
tag pairs, so demonstrations show outermost spans only.

Main and verification prompts are built by one assembler from a head, a
block of demonstration turns and a tail, and fit the token budget through
one loop, fit_demos.  A PromptParts store keeps each part with its token
count and JSON escape under the function that builds it and exactly the
values that function reads, so its template fragments are filled only
when those values are new.
"""

from __future__ import annotations

import json
import logging
import re
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from typing import Iterable, NamedTuple, Sequence

from . import rng
from .corpus import AnnotatedSentence, EntitySpan, EntityType, outermost_spans
from .errors import ConfigError

logger = logging.getLogger(__name__)

FEATURE_NAMES = (
    "prompt_language_native",
    "additional_sentences",
    "self_verification",
    "alt_taggers",
    "specialist_persona",
    "label_definitions",
    "intro_sentence",
    "long_verification_answer",
    "dialogue_template",
)

PROMPT_MODES = ("tagging", "listing")
LISTING_SEPARATORS = ("comma", "newline")


@lru_cache(maxsize=None)
def fragments() -> dict[str, dict[str, str]]:
    raw = resources.files("fewner").joinpath("data/templates.json").read_text("utf-8")
    return json.loads(raw)


def fragments_for(language: str) -> dict[str, str]:
    table = fragments()
    if language not in table:
        raise ConfigError(
            f"unsupported prompt language {language!r}; "
            f"supported: {', '.join(sorted(table))}"
        )
    return table[language]


class TagPair(namedtuple("TagPair", "open close")):
    """The tags wrapped around a mention.  A named tuple, so that a memo
    key holding one hashes it as fast as its two strings."""

    __slots__ = ()

    def __new__(cls, open: str, close: str):
        if not open or not close:
            raise ConfigError("tag pair strings must be non-empty")
        if open == close:
            raise ConfigError("open and close tags must differ")
        return super().__new__(cls, open, close)


DEFAULT_TAGS = TagPair("@@", "##")
ALT_TAGS = TagPair("<<", ">>")


@dataclass(frozen=True)
class PromptConfig:
    """The nine feature flags plus mode, separator and base demo count."""

    prompt_language_native: bool = False
    additional_sentences: bool = False
    self_verification: bool = False
    alt_taggers: bool = False
    specialist_persona: bool = False
    label_definitions: bool = False
    intro_sentence: bool = False
    long_verification_answer: bool = False
    dialogue_template: bool = False
    mode: str = "tagging"
    listing_separator: str = "comma"
    base_demo_count: int = 5

    def __post_init__(self):
        for name in FEATURE_NAMES:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"prompt.{name} must be true or false, got {value!r}")
        count = self.base_demo_count
        if not isinstance(count, int) or isinstance(count, bool):
            raise ConfigError(f"prompt.base_demo_count must be an integer, got {count!r}")
        if self.mode not in PROMPT_MODES:
            raise ConfigError(f"unknown prompt mode {self.mode!r}; expected one of {PROMPT_MODES}")
        if self.listing_separator not in LISTING_SEPARATORS:
            raise ConfigError(
                f"unknown listing separator {self.listing_separator!r}; "
                f"expected one of {LISTING_SEPARATORS}"
            )
        if self.base_demo_count < 1:
            raise ConfigError(f"base_demo_count must be positive, got {self.base_demo_count}")

    def feature(self, name: str) -> bool:
        if name not in FEATURE_NAMES:
            raise ConfigError(f"unknown feature {name!r}")
        return getattr(self, name)

    def with_features(self, **flags: bool) -> "PromptConfig":
        for name in flags:
            if name not in FEATURE_NAMES:
                raise ConfigError(f"unknown feature {name!r}")
        return replace(self, **flags)

    def enabled_features(self) -> tuple[str, ...]:
        return tuple(name for name in FEATURE_NAMES if getattr(self, name))

    @property
    def bitmask(self) -> int:
        mask = 0
        for i, name in enumerate(FEATURE_NAMES):
            if getattr(self, name):
                mask |= 1 << i
        return mask

    @classmethod
    def from_bitmask(cls, mask: int, **rest) -> "PromptConfig":
        if not 0 <= mask < (1 << len(FEATURE_NAMES)):
            raise ConfigError(f"feature bitmask out of range: {mask}")
        flags = {name: bool(mask & (1 << i)) for i, name in enumerate(FEATURE_NAMES)}
        return cls(**flags, **rest)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PromptConfig":
        if not isinstance(payload, dict):
            raise ConfigError(f"the prompt config must be an object, got {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown prompt config keys: {sorted(unknown)}")
        return cls(**payload)

    @property
    def effective_demo_count(self) -> int:
        return self.base_demo_count * (2 if self.additional_sentences else 1)

    @property
    def tag_pair(self) -> TagPair:
        return ALT_TAGS if self.alt_taggers else DEFAULT_TAGS

    def separator_string(self) -> str:
        return _separator_string(self.listing_separator)


def _separator_string(name: str) -> str:
    return ", " if name == "comma" else "\n"


@dataclass(frozen=True)
class RenderedPrompt:
    """A prompt and what it was built from.

    escaped is escape_json(text), joined from the escapes of its parts
    (see PromptParts), or None for a prompt built without them.  It takes
    no part in equality or repr.
    """

    text: str
    entity_type: str
    demonstrations: tuple[str, ...]
    stop_sequences: tuple[str, ...]
    estimated_tokens: int
    kind: str  # "main" or "self_verification"
    dropped_demos: int = 0
    escaped: str | None = field(default=None, compare=False, repr=False)


# --------------------------------------------------------------------------
# Token estimation and JSON escapes

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def estimate_tokens(text: str) -> int:
    """Approximate token count by whitespace-and-punctuation segmentation."""
    return len(_TOKEN_RE.findall(text))


def escape_json(text: str) -> str:
    """text as the canonical JSON of a request writes it between the
    quotes of a string.  The escape of texts joined by "\\n" is their
    escapes joined by "\\\\n", so a prompt's escape can be joined from
    the escapes of its parts."""
    return encode_basestring(text)[1:-1]


# --------------------------------------------------------------------------
# Span tagging helpers

def tag_sentence(text: str, spans: Iterable[EntitySpan], tags: TagPair) -> str:
    """Wrap the given (non-overlapping) spans of the text in the tag pair."""
    pieces: list[str] = []
    cursor = 0
    for span in sorted(spans, key=lambda s: s.start):
        pieces.append(text[cursor:span.start])
        pieces.append(tags.open + text[span.start:span.end] + tags.close)
        cursor = span.end
    pieces.append(text[cursor:])
    return "".join(pieces)


# --------------------------------------------------------------------------
# Prompt assembly

# A prompt is joined from parts kept in a PromptParts store, each built by
# a function of the store and exactly what the part reads.  marks is the
# config's tag pair in tagging mode and its listing separator in listing
# mode: what the task and intro fragments and the demo answers read.

def _fill(
    language: str, key: str, entity_type: EntityType, marks: TagPair | str | None = None,
    **values: str,
) -> str:
    """The fragment named key with its fields filled from what is given:
    entity_type's names and specialist, marks' open and close tags or
    separator name, and values.  A field it names that is not given
    raises KeyError."""
    frags = fragments_for(language)
    values.update(
        plural=entity_type.plural(language),
        singular=entity_type.singular(language),
        specialist=frags["specialist_" + entity_type.domain],
    )
    if isinstance(marks, TagPair):
        values.update(open=marks.open, close=marks.close)
    elif marks is not None:
        values["separator"] = frags["separator_" + marks]
    return frags[key].format(**values)


def _turn(language: str, dialogue: bool, input_text: str, output_text: str | None) -> list[str]:
    """One Input/Output exchange; an empty or None output leaves the slot open."""
    if dialogue:
        return [f"- {input_text}", f"- {output_text}" if output_text else "-"]
    frags = fragments_for(language)
    output = f"{frags['output_label']} {output_text}" if output_text else frags["output_label"]
    return [f"{frags['input_label']} {input_text}", output]


def stop_sequences_for(dialogue: bool, prompt_language: str) -> tuple[str, ...]:
    if dialogue:
        return ("\n-",)
    return ("\n" + fragments_for(prompt_language)["input_label"],)


class PromptParts:
    """A memo of values kept under their builder and its arguments.

    get(build, *args) returns build(store, *args), built on the first call
    with equal arguments and kept for the store's lifetime.  A builder is
    a module-level function that reads nothing but its arguments and
    constants, so its key names everything its value depends on, and no
    more.  The store is passed, not keyed, so a builder may get other
    values through it, and no key refers back to a store.

    This module keeps prompt parts here: each head, demo turn, demo block
    and tail as its text (its lines joined by "\\n"), its token count and
    its JSON escape (see escape_json), or None when it has no lines, and
    the positions of each demo shuffle.  fewner.search keeps its own
    values in the same store.  Sentences and entity types hash by id and
    compare by value, so a sentence edited under its id is built anew.
    """

    def __init__(self):
        self._values: dict[tuple, object] = {}

    def get(self, build, *args):
        """build(self, *args), built once per distinct args."""
        key = (build, args)
        try:
            return self._values[key]
        except KeyError:
            pass
        value = self._values[key] = build(self, *args)
        return value


def _part(lines: list[str]) -> tuple[str, int, str] | None:
    """lines as one part: their text joined by "\\n", its token count and
    its JSON escape; None when there are no lines."""
    if not lines:
        return None
    text = "\n".join(lines)
    return text, estimate_tokens(text), escape_json(text)


def _joined(parts) -> tuple[str, int, str] | None:
    """parts, skipping those that are None, as one part: their texts
    joined by "\\n", as a part joins its lines, their escapes by "\\\\n"
    (see escape_json) and their token counts summed, since no token spans
    whitespace; None when every part is."""
    parts = [part for part in parts if part is not None]
    if not parts:
        return None
    texts, counts, escapes = zip(*parts)
    return "\n".join(texts), sum(counts), "\\n".join(escapes)


def _assemble(
    kind: str, entity_type: EntityType, demonstrations: tuple[str, ...],
    stop_sequences: tuple[str, ...], *parts,
) -> RenderedPrompt:
    """The prompt of a head part, a block of demo turns and a tail part,
    joined as one part."""
    text, count, escaped = _joined(parts) or ("", 0, "")
    return RenderedPrompt(
        text=text,
        entity_type=entity_type.id,
        demonstrations=demonstrations,
        stop_sequences=stop_sequences,
        estimated_tokens=count,
        kind=kind,
        escaped=escaped,
    )


def _permutation(_, count: int, seed: int):
    """The positions that rng.shuffled(items, seed) puts count items in:
    the shuffle depends on nothing but their number and the seed."""
    return tuple(rng.shuffled(range(count), seed))


def _block(parts: PromptParts, turn, shape: tuple, demos: tuple) -> tuple | None:
    """The turns parts.get(turn, *shape, demo) of demos as one part, so a
    prompt costs one lookup instead of one per demo."""
    return _joined([parts.get(turn, *shape, demo) for demo in demos])


def _head(_, language: str, key: str, entity_type: EntityType, marks, definition: bool):
    """The fragment named key, then the type's definition if asked for."""
    lines = [_fill(language, key, entity_type, marks)]
    if definition:
        lines.append(entity_type.definition(language))
    return _part(lines)


def _main_demo(_, language: str, type_id: str, marks, dialogue: bool, demo: AnnotatedSentence):
    """demo's turn: its text, answered with its outermost spans of the
    type wrapped in marks, a tag pair, or their mentions joined by the
    listing separator that marks names."""
    spans = outermost_spans(demo.spans_of(type_id))
    if isinstance(marks, TagPair):
        answer = tag_sentence(demo.text, spans, marks)
    else:
        answer = _separator_string(marks).join(s.mention for s in spans)
    return _part(_turn(language, dialogue, demo.text, answer))


def _main_tail(_, language: str, intro: str | None, entity_type, marks, dialogue: bool, text: str):
    """The intro fragment, if any, then text's turn with an open answer."""
    lines = [] if intro is None else [_fill(language, intro, entity_type, marks)]
    return _part(lines + _turn(language, dialogue, text, None))


class MainShape(NamedTuple):
    """Everything a main prompt reads of its config, with the prompt
    language: two configs of one shape, demo set and test sentence render
    the same prompt.  A config field left out here is one no main prompt
    reads, such as long_verification_answer."""

    language: str
    header: str  # the head fragment: "persona" or "task_<mode>"
    marks: TagPair | str  # the tag pair in tagging mode, else the separator name
    definition: bool
    intro: str | None  # the intro fragment, "intro_<mode>", or None
    dialogue: bool


def main_shape(config: PromptConfig, language: str) -> MainShape:
    """What render_main_prompt reads of config, rendering in language."""
    mode = config.mode
    return MainShape(
        language,
        "persona" if config.specialist_persona else "task_" + mode,
        config.tag_pair if mode == "tagging" else config.listing_separator,
        config.label_definitions,
        "intro_" + mode if config.intro_sentence else None,
        config.dialogue_template,
    )


def render_main_prompt(
    config: PromptConfig,
    entity_type: EntityType,
    demos: Sequence[AnnotatedSentence],
    test_text: str,
    prompt_language: str,
    allow_empty_demos: bool = False,
    parts: PromptParts | None = None,
) -> RenderedPrompt:
    """Assemble the main prompt for one test sentence and one entity type.

    Layout: header (task description or persona), optional definition,
    demonstrations in the order given, optional introductory sentence, then
    the test sentence with an open output slot.  Of config it reads only
    main_shape(config, prompt_language).

    parts, when given, keeps the header with its definition, each
    demonstration, the demonstration block and the intro with the test
    turn across calls (see PromptParts).
    """
    if not demos and not allow_empty_demos:
        raise ConfigError("cannot render a prompt with an empty demonstration set")
    parts = PromptParts() if parts is None else parts
    language, header, marks, definition, intro, dialogue = main_shape(config, prompt_language)
    # A persona names no marks, and a tail without an intro reads neither
    # the type nor the marks.
    tail = (None, None, None) if intro is None else (intro, entity_type, marks)
    demos = tuple(demos)
    return _assemble(
        "main", entity_type, tuple(d.id for d in demos), stop_sequences_for(dialogue, language),
        parts.get(
            _head, language, header, entity_type, None if header == "persona" else marks,
            definition,
        ),
        parts.get(_block, _main_demo, (language, entity_type.id, marks, dialogue), demos),
        parts.get(_main_tail, language, *tail, dialogue, test_text),
    )


VerificationDemo = tuple[AnnotatedSentence, str, bool]


def _verification_demo(
    _, language: str, entity_type: EntityType, long_answer: bool, dialogue: bool,
    demo: VerificationDemo,
):
    """demo's question, answered yes or no, at length if long_answer."""
    sentence, mention, is_positive = demo
    key = ("long_answer_" if long_answer else "answer_") + ("yes" if is_positive else "no")
    question = _fill(
        language, "verification_question", entity_type, sentence=sentence.text, mention=mention
    )
    answer = _fill(language, key, entity_type, mention=mention)
    return _part(_turn(language, dialogue, question, answer))


def _verification_tail(
    _, language: str, entity_type: EntityType, dialogue: bool, sentence: str, mention: str
):
    """The question whether mention in sentence is of the type, open."""
    question = _fill(
        language, "verification_question", entity_type, sentence=sentence, mention=mention
    )
    return _part(_turn(language, dialogue, question, None))


def render_verification_prompt(
    config: PromptConfig,
    entity_type: EntityType,
    candidate_mention: str,
    context_sentence: str,
    demos: Sequence[VerificationDemo],
    prompt_language: str,
    parts: PromptParts | None = None,
) -> RenderedPrompt:
    """A yes/no prompt asking whether the candidate really is of the type.

    demos are (sentence, mention, is_positive) triples; at least one positive
    and one negative example are required so both answers are demonstrated.
    parts, as in render_main_prompt, keeps the task line, each demo turn,
    the block of demo turns and the final question.
    """
    if not config.self_verification:
        raise ConfigError("verification prompts require the self_verification feature")
    positives = sum(1 for _, _, pos in demos if pos)
    if positives == 0 or positives == len(demos):
        raise ConfigError(
            "verification demos must include at least one positive and one negative"
        )
    parts = PromptParts() if parts is None else parts
    dialogue = config.dialogue_template
    shape = (prompt_language, entity_type, config.long_verification_answer, dialogue)
    return _assemble(
        "self_verification", entity_type, tuple(s.id for s, _, _ in demos),
        stop_sequences_for(dialogue, prompt_language),
        parts.get(_head, prompt_language, "verification_task", entity_type, None, False),
        parts.get(_block, _verification_demo, shape, tuple(demos)),
        parts.get(
            _verification_tail, prompt_language, entity_type, dialogue, context_sentence,
            candidate_mention,
        ),
    )


def fit_demos(render, count: int, least: int, budget: int) -> RenderedPrompt | None:
    """The first of render(count), render(count - 1), ..., render(least)
    whose estimated tokens fit the budget, with dropped_demos set to the
    demos it left out; None when none fits.

    render(keep) is the prompt with the first keep demos, so demos drop
    from the end.  Main and verification prompts both fit through here.
    """
    for keep in range(count, least - 1, -1):
        prompt = render(keep)
        if prompt.estimated_tokens <= budget:
            dropped = count - keep
            return replace(prompt, dropped_demos=dropped) if dropped else prompt
    return None


def fit_to_budget(
    config: PromptConfig,
    entity_type: EntityType,
    ranked_demos: Sequence[AnnotatedSentence],
    test_text: str,
    prompt_language: str,
    budget: int,
    shuffle_seed: int | None = None,
    parts: PromptParts | None = None,
) -> RenderedPrompt:
    """Render the main prompt, dropping demos until it fits the token budget.

    Demonstrations are dropped from the end of the selection-ranked list; the
    kept demos are then shuffled (when a seed is given) to fix prompt order.
    Raises ConfigError when even the scaffold without demonstrations exceeds
    the budget.  parts, as in render_main_prompt, also keeps each
    shuffled order.
    """
    if budget < 1:
        raise ConfigError(f"token budget must be positive, got {budget}")
    parts = PromptParts() if parts is None else parts

    def render(keep: int) -> RenderedPrompt:
        kept = tuple(ranked_demos[:keep])
        if shuffle_seed is not None:
            kept = tuple(map(kept.__getitem__, parts.get(_permutation, keep, shuffle_seed)))
        return render_main_prompt(
            config, entity_type, kept, test_text, prompt_language,
            allow_empty_demos=True, parts=parts,
        )

    prompt = fit_demos(render, len(ranked_demos), 0, budget)
    if prompt is None:
        raise ConfigError(
            f"token budget {budget} is too small even for the prompt scaffold "
            f"(entity type {entity_type.id})"
        )
    if prompt.dropped_demos == len(ranked_demos):
        logger.warning(
            "token budget %d leaves no room for demonstrations (entity type %s)",
            budget, entity_type.id,
        )
    return prompt
