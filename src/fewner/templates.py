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
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from . import rng
from .corpus import AnnotatedSentence, EntitySpan, EntityType
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


@dataclass(frozen=True)
class TagPair:
    open: str
    close: str

    def __post_init__(self):
        if not self.open or not self.close:
            raise ConfigError("tag pair strings must be non-empty")
        if self.open == self.close:
            raise ConfigError("open and close tags must differ")


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
        return ", " if self.listing_separator == "comma" else "\n"


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    entity_type: str
    demonstrations: tuple[str, ...]
    stop_sequences: tuple[str, ...]
    estimated_tokens: int
    kind: str  # "main" or "self_verification"
    dropped_demos: int = 0


# --------------------------------------------------------------------------
# Token estimation

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def estimate_tokens(text: str) -> int:
    """Approximate token count by whitespace-and-punctuation segmentation."""
    return len(_TOKEN_RE.findall(text))


# --------------------------------------------------------------------------
# Span tagging helpers

def outermost_spans(spans: Iterable[EntitySpan]) -> tuple[EntitySpan, ...]:
    """Drop spans nested in (or overlapping) an earlier-starting span.

    Sorting by (start, -end) and sweeping keeps, for each overlap cluster,
    the span that starts first and extends furthest.
    """
    kept: list[EntitySpan] = []
    last_end = -1
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        if span.start >= last_end:
            kept.append(span)
            last_end = span.end
    return tuple(kept)


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


def _demo_output(
    sentence: AnnotatedSentence, entity_type: EntityType, config: PromptConfig
) -> str:
    spans = outermost_spans(sentence.spans_of(entity_type.id))
    if config.mode == "tagging":
        return tag_sentence(sentence.text, spans, config.tag_pair)
    return config.separator_string().join(s.mention for s in spans)


# --------------------------------------------------------------------------
# Prompt assembly

def _turn(frags: dict[str, str], config: PromptConfig, input_text: str, output_text: str | None) -> list[str]:
    """One Input/Output exchange; output_text None leaves the slot open."""
    if config.dialogue_template:
        lines = [f"- {input_text}"]
        lines.append("-" if output_text is None else (f"- {output_text}" if output_text else "-"))
        return lines
    lines = [f"{frags['input_label']} {input_text}"]
    if output_text is None or output_text == "":
        lines.append(frags["output_label"])
    else:
        lines.append(f"{frags['output_label']} {output_text}")
    return lines


def stop_sequences_for(config: PromptConfig, prompt_language: str) -> tuple[str, ...]:
    if config.dialogue_template:
        return ("\n-",)
    return ("\n" + fragments_for(prompt_language)["input_label"],)


def _header(frags: dict[str, str], config: PromptConfig, entity_type: EntityType, language: str) -> str:
    plural = entity_type.plural(language)
    if config.specialist_persona:
        key = "specialist_clinical" if entity_type.domain == "clinical" else "specialist_general"
        return frags["persona"].format(specialist=frags[key], plural=plural)
    if config.mode == "tagging":
        return frags["task_tagging"].format(
            plural=plural, open=config.tag_pair.open, close=config.tag_pair.close
        )
    separator = frags["separator_comma" if config.listing_separator == "comma" else "separator_newline"]
    return frags["task_listing"].format(plural=plural, separator=separator)


def _intro(frags: dict[str, str], config: PromptConfig, entity_type: EntityType, language: str) -> str:
    plural = entity_type.plural(language)
    if config.mode == "tagging":
        return frags["intro_tagging"].format(
            plural=plural, open=config.tag_pair.open, close=config.tag_pair.close
        )
    separator = frags["separator_comma" if config.listing_separator == "comma" else "separator_newline"]
    return frags["intro_listing"].format(plural=plural, separator=separator)


def _counted_turn(memo: dict, key: tuple, build) -> tuple[tuple[str, ...], int]:
    """The lines build() returns and their token count, memoized under key.

    A prompt part's key names what shapes its lines, so one entry serves
    every configuration that agrees on those parts.
    """
    turn = memo.get(key)
    if turn is None:
        lines = tuple(build())
        turn = memo[key] = (lines, estimate_tokens("\n".join(lines)))
    return turn


def _counted_block(memo: dict, key: tuple, turns) -> tuple[tuple[str, ...], int]:
    """The lines of consecutive turns and their summed token count,
    memoized under key; turns() yields each (lines, count) pair and runs
    only when key is new."""
    block = memo.get(key)
    if block is None:
        parts = list(turns())
        block = memo[key] = (
            tuple(line for lines, _ in parts for line in lines),
            sum(count for _, count in parts),
        )
    return block


def render_main_prompt(
    config: PromptConfig,
    entity_type: EntityType,
    demos: Sequence[AnnotatedSentence],
    test_text: str,
    prompt_language: str,
    allow_empty_demos: bool = False,
    memo: dict | None = None,
) -> RenderedPrompt:
    """Assemble the main prompt for one test sentence and one entity type.

    Layout: header (task description or persona), optional definition,
    demonstrations in the order given, optional introductory sentence, then
    the test sentence with an open output slot.

    memo, when given, keeps the lines and token count of each part across
    calls: the header with its definition, each demonstration (keyed by
    sentence id), the whole demonstration block (keyed by the ordered ids),
    and the intro with the test turn.  Share one only among calls whose
    sentences of one id are the same sentence.
    """
    if not demos and not allow_empty_demos:
        raise ConfigError("cannot render a prompt with an empty demonstration set")
    memo = {} if memo is None else memo
    frags = fragments_for(prompt_language)
    # What shapes every part but the demo sentence and the test turn;
    # alt_taggers stands for the tag pair, which it decides.
    variant = (
        entity_type.id, config.mode, config.alt_taggers, config.listing_separator, prompt_language,
    )

    def head():
        yield _header(frags, config, entity_type, prompt_language)
        if config.label_definitions:
            yield entity_type.definition(prompt_language)

    def tail():
        if config.intro_sentence:
            yield _intro(frags, config, entity_type, prompt_language)
        yield from _turn(frags, config, test_text, None)

    # Lines are joined by "\n" and no token spans whitespace, so the
    # prompt's count is the sum of the counts of its parts.
    head_lines, head_tokens = _counted_turn(
        memo, ("head", variant, config.specialist_persona, config.label_definitions), head
    )
    tail_lines, tail_tokens = _counted_turn(
        memo, ("tail", variant, test_text, config.intro_sentence, config.dialogue_template), tail
    )

    def turns():
        for demo in demos:
            yield _counted_turn(
                memo,
                ("demo", demo.id, variant, config.dialogue_template),
                lambda: _turn(frags, config, demo.text, _demo_output(demo, entity_type, config)),
            )

    demo_ids = tuple(d.id for d in demos)
    block_lines, block_tokens = _counted_block(
        memo, ("demo_block", demo_ids, variant, config.dialogue_template), turns
    )
    return RenderedPrompt(
        text="\n".join((*head_lines, *block_lines, *tail_lines)),
        entity_type=entity_type.id,
        demonstrations=demo_ids,
        stop_sequences=stop_sequences_for(config, prompt_language),
        estimated_tokens=head_tokens + block_tokens + tail_tokens,
        kind="main",
    )


VerificationDemo = tuple[AnnotatedSentence, str, bool]


def _verification_answer(
    frags: dict[str, str], config: PromptConfig, entity_type: EntityType,
    language: str, mention: str, is_positive: bool,
) -> str:
    if config.long_verification_answer:
        key = "long_answer_yes" if is_positive else "long_answer_no"
        return frags[key].format(mention=mention, singular=entity_type.singular(language))
    return frags["answer_yes" if is_positive else "answer_no"]


def render_verification_prompt(
    config: PromptConfig,
    entity_type: EntityType,
    candidate_mention: str,
    context_sentence: str,
    demos: Sequence[VerificationDemo],
    prompt_language: str,
    memo: dict | None = None,
) -> RenderedPrompt:
    """A yes/no prompt asking whether the candidate really is of the type.

    demos are (sentence, mention, is_positive) triples; at least one positive
    and one negative example are required so both answers are demonstrated.
    memo is as in render_main_prompt.
    """
    if not config.self_verification:
        raise ConfigError("verification prompts require the self_verification feature")
    positives = sum(1 for _, _, pos in demos if pos)
    if positives == 0 or positives == len(demos):
        raise ConfigError(
            "verification demos must include at least one positive and one negative"
        )
    memo = {} if memo is None else memo
    frags = fragments_for(prompt_language)
    singular = entity_type.singular(prompt_language)
    head_lines, head_tokens = _counted_turn(
        memo,
        ("verify_head", entity_type.id, prompt_language),
        lambda: [frags["verification_task"].format(singular=singular)],
    )
    tail_lines, tail_tokens = _counted_turn(
        memo,
        (
            "verify_tail", entity_type.id, prompt_language, context_sentence,
            candidate_mention, config.dialogue_template,
        ),
        lambda: _turn(
            frags,
            config,
            frags["verification_question"].format(
                sentence=context_sentence, mention=candidate_mention, singular=singular
            ),
            None,
        ),
    )
    shape = (
        entity_type.id, config.long_verification_answer, config.dialogue_template,
        prompt_language,
    )

    def turns():
        for sentence, mention, is_positive in demos:
            yield _counted_turn(
                memo,
                ("verify", sentence.id, mention, is_positive, *shape),
                lambda: _turn(
                    frags,
                    config,
                    frags["verification_question"].format(
                        sentence=sentence.text, mention=mention, singular=singular
                    ),
                    _verification_answer(
                        frags, config, entity_type, prompt_language, mention, is_positive
                    ),
                ),
            )

    block_lines, block_tokens = _counted_block(
        memo, ("verify_block", tuple((s.id, m, pos) for s, m, pos in demos), shape), turns
    )
    return RenderedPrompt(
        text="\n".join((*head_lines, *block_lines, *tail_lines)),
        entity_type=entity_type.id,
        demonstrations=tuple(s.id for s, _, _ in demos),
        stop_sequences=stop_sequences_for(config, prompt_language),
        estimated_tokens=head_tokens + block_tokens + tail_tokens,
        kind="self_verification",
    )


def fit_to_budget(
    config: PromptConfig,
    entity_type: EntityType,
    ranked_demos: Sequence[AnnotatedSentence],
    test_text: str,
    prompt_language: str,
    budget: int,
    shuffle_seed: int | None = None,
    memo: dict | None = None,
) -> RenderedPrompt:
    """Render the main prompt, dropping demos until it fits the token budget.

    Demonstrations are dropped from the end of the selection-ranked list; the
    kept demos are then shuffled (when a seed is given) to fix prompt order.
    Raises ConfigError when even the scaffold without demonstrations exceeds
    the budget.  memo, as in render_main_prompt, also keeps each shuffled
    order.
    """
    if budget < 1:
        raise ConfigError(f"token budget must be positive, got {budget}")
    memo = {} if memo is None else memo
    for keep in range(len(ranked_demos), -1, -1):
        kept = tuple(ranked_demos[:keep])
        if shuffle_seed is not None:
            key = ("order", tuple(d.id for d in kept), shuffle_seed)
            if key not in memo:
                memo[key] = tuple(rng.shuffled(kept, shuffle_seed))
            kept = memo[key]
        prompt = render_main_prompt(
            config, entity_type, kept, test_text, prompt_language,
            allow_empty_demos=True, memo=memo,
        )
        if prompt.estimated_tokens <= budget:
            dropped = len(ranked_demos) - keep
            if keep == 0:
                logger.warning(
                    "token budget %d leaves no room for demonstrations (entity type %s)",
                    budget, entity_type.id,
                )
            if dropped:
                return replace(prompt, dropped_demos=dropped)
            return prompt
    raise ConfigError(
        f"token budget {budget} is too small even for the prompt scaffold "
        f"(entity type {entity_type.id})"
    )
