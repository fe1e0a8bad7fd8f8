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
block of demonstration turns and a tail.  Each part is memoized with its
token count, and its template fragments are filled, from the one table of
fields a fragment may name, only when its memo key is new.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, field, fields, replace
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
        return ", " if self.listing_separator == "comma" else "\n"


@dataclass(frozen=True)
class RenderedPrompt:
    """A prompt and what it was built from.

    parts holds the (head, demo block, tail) memo entries whose lines the
    text joins, so equal parts mean equal text; prompts rendered from one
    memo share the entry objects, so comparing their parts is cheap.  It
    takes no part in equality or repr.
    """

    text: str
    entity_type: str
    demonstrations: tuple[str, ...]
    stop_sequences: tuple[str, ...]
    estimated_tokens: int
    kind: str  # "main" or "self_verification"
    dropped_demos: int = 0
    parts: tuple = field(default=(), compare=False, repr=False)


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

# A prompt is rendered for one scope: (config, entity_type, language).
# Each of its parts is built by a function build(scope, arg) that returns
# the part's lines, and runs only when the part's memo key is new.

def _fill(scope: tuple, key: str, **values: str) -> str:
    """The scope's fragment named key with its fields filled; values are
    what only a turn knows (its sentence and mention)."""
    config, entity_type, language = scope
    frags = fragments_for(language)
    fields = {
        "plural": entity_type.plural(language),
        "singular": entity_type.singular(language),
        "open": config.tag_pair.open,
        "close": config.tag_pair.close,
        "separator": frags["separator_" + config.listing_separator],
        "specialist": frags["specialist_" + entity_type.domain],
    }
    return frags[key].format(**fields, **values)


def _turn(scope: tuple, input_text: str, output_text: str | None) -> list[str]:
    """One Input/Output exchange; an empty or None output leaves the slot open."""
    config, _, language = scope
    if config.dialogue_template:
        return [f"- {input_text}", f"- {output_text}" if output_text else "-"]
    frags = fragments_for(language)
    output = f"{frags['output_label']} {output_text}" if output_text else frags["output_label"]
    return [f"{frags['input_label']} {input_text}", output]


def stop_sequences_for(config: PromptConfig, prompt_language: str) -> tuple[str, ...]:
    if config.dialogue_template:
        return ("\n-",)
    return ("\n" + fragments_for(prompt_language)["input_label"],)


def _counted(memo: dict, scope: tuple, key: tuple, build, arg) -> tuple[tuple[str, ...], int]:
    """The lines build(scope, arg) returns and their token count,
    memoized under key."""
    part = memo.get(key)
    if part is None:
        lines = tuple(build(scope, arg))
        part = memo[key] = (lines, estimate_tokens("\n".join(lines)))
    return part


def _assemble(
    memo: dict | None, scope: tuple, kind: str, head: tuple, demos: tuple, tail: tuple,
    demonstrations: tuple[str, ...],
) -> RenderedPrompt:
    """The prompt of a head part, a block of demo turns and a tail part.

    head and tail are (memo key, build, arg) triples.  demos is (block key,
    turn kind, args, build) with block key (block kind, ids, shape): one
    turn per arg, memoized under (turn kind, id, shape), and the whole
    block under its key, so a prompt costs one lookup instead of one per
    demo.
    A key names what shapes its part, so one entry serves every
    configuration that agrees on it.  Lines are joined by "\\n" and no
    token spans whitespace, so the prompt's count is the sum of its parts'.
    The prompt keeps the three entries it joined as its parts.
    """
    memo = {} if memo is None else memo
    head_lines, head_tokens = head_part = _counted(memo, scope, *head)
    tail_lines, tail_tokens = tail_part = _counted(memo, scope, *tail)
    block_key, turn_kind, args, build = demos
    block = memo.get(block_key)
    if block is None:
        _, ids, shape = block_key
        turns = [
            _counted(memo, scope, (turn_kind, id_, shape), build, arg)
            for id_, arg in zip(ids, args)
        ]
        block = memo[block_key] = (
            tuple(line for lines, _ in turns for line in lines),
            sum(count for _, count in turns),
        )
    config, entity_type, language = scope
    return RenderedPrompt(
        text="\n".join((*head_lines, *block[0], *tail_lines)),
        entity_type=entity_type.id,
        demonstrations=demonstrations,
        stop_sequences=stop_sequences_for(config, language),
        estimated_tokens=head_tokens + block[1] + tail_tokens,
        kind=kind,
        parts=(head_part, block, tail_part),
    )


def _main_head(scope: tuple, _) -> Iterable[str]:
    config, entity_type, language = scope
    yield _fill(scope, "persona" if config.specialist_persona else "task_" + config.mode)
    if config.label_definitions:
        yield entity_type.definition(language)


def _main_demo(scope: tuple, demo: AnnotatedSentence) -> list[str]:
    config, entity_type, _ = scope
    return _turn(scope, demo.text, _demo_output(demo, entity_type, config))


def _main_tail(scope: tuple, test_text: str) -> Iterable[str]:
    config = scope[0]
    if config.intro_sentence:
        yield _fill(scope, "intro_" + config.mode)
    yield from _turn(scope, test_text, None)


def render_main_prompt(
    config: PromptConfig,
    entity_type: EntityType,
    demos: Sequence[AnnotatedSentence],
    test_text: str,
    prompt_language: str,
    allow_empty_demos: bool = False,
    memo: dict | None = None,
    demo_ids: tuple[str, ...] | None = None,
) -> RenderedPrompt:
    """Assemble the main prompt for one test sentence and one entity type.

    Layout: header (task description or persona), optional definition,
    demonstrations in the order given, optional introductory sentence, then
    the test sentence with an open output slot.

    memo, when given, keeps the lines and token count of each part across
    calls (see _assemble): the header with its definition, each
    demonstration, the demonstration block and the intro with the test
    turn.  Share one only among calls whose sentences of one id are the
    same sentence.  demo_ids, when given, are the ids of demos in order.
    """
    if not demos and not allow_empty_demos:
        raise ConfigError("cannot render a prompt with an empty demonstration set")
    # What shapes every part but the demo sentence and the test turn;
    # alt_taggers stands for the tag pair, which it decides.
    variant = (
        entity_type.id, config.mode, config.alt_taggers, config.listing_separator, prompt_language,
    )
    if demo_ids is None:
        demo_ids = tuple(d.id for d in demos)
    return _assemble(
        memo, (config, entity_type, prompt_language), "main",
        (("head", variant, config.specialist_persona, config.label_definitions), _main_head, None),
        (("demo_block", demo_ids, (variant, config.dialogue_template)), "demo", demos, _main_demo),
        (
            ("tail", variant, test_text, config.intro_sentence, config.dialogue_template),
            _main_tail, test_text,
        ),
        demo_ids,
    )


VerificationDemo = tuple[AnnotatedSentence, str, bool]


def _verification_head(scope: tuple, _) -> list[str]:
    return [_fill(scope, "verification_task")]


def _verification_demo(scope: tuple, demo: VerificationDemo) -> list[str]:
    sentence, mention, is_positive = demo
    answer = "long_answer_" if scope[0].long_verification_answer else "answer_"
    answer += "yes" if is_positive else "no"
    return _turn(
        scope,
        _fill(scope, "verification_question", sentence=sentence.text, mention=mention),
        _fill(scope, answer, mention=mention),
    )


def _verification_tail(scope: tuple, candidate: tuple[str, str]) -> list[str]:
    sentence, mention = candidate
    return _turn(
        scope, _fill(scope, "verification_question", sentence=sentence, mention=mention), None
    )


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
    memo is as in render_main_prompt: it keeps the task line, each demo
    turn, the block of demo turns (keyed by the ordered triples) and the
    final question.
    """
    if not config.self_verification:
        raise ConfigError("verification prompts require the self_verification feature")
    positives = sum(1 for _, _, pos in demos if pos)
    if positives == 0 or positives == len(demos):
        raise ConfigError(
            "verification demos must include at least one positive and one negative"
        )
    shape = (
        entity_type.id, config.long_verification_answer, config.dialogue_template,
        prompt_language,
    )
    triples = tuple((s.id, m, pos) for s, m, pos in demos)
    return _assemble(
        memo, (config, entity_type, prompt_language), "self_verification",
        (("verify_head", entity_type.id, prompt_language), _verification_head, None),
        (("verify_block", triples, shape), "verify", demos, _verification_demo),
        (
            (
                "verify_tail", entity_type.id, prompt_language, context_sentence,
                candidate_mention, config.dialogue_template,
            ),
            _verification_tail, (context_sentence, candidate_mention),
        ),
        tuple(s.id for s, _, _ in demos),
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
    ranked_ids: tuple[str, ...] | None = None,
) -> RenderedPrompt:
    """Render the main prompt, dropping demos until it fits the token budget.

    Demonstrations are dropped from the end of the selection-ranked list; the
    kept demos are then shuffled (when a seed is given) to fix prompt order.
    Raises ConfigError when even the scaffold without demonstrations exceeds
    the budget.  memo, as in render_main_prompt, also keeps each shuffled
    order with its ids.  ranked_ids, when given, are the ids of
    ranked_demos in order.
    """
    if budget < 1:
        raise ConfigError(f"token budget must be positive, got {budget}")
    memo = {} if memo is None else memo
    if ranked_ids is None:
        ranked_ids = tuple(d.id for d in ranked_demos)
    for keep in range(len(ranked_demos), -1, -1):
        kept, ids = tuple(ranked_demos[:keep]), ranked_ids[:keep]
        if shuffle_seed is not None:
            key = ("order", ids, shuffle_seed)
            order = memo.get(key)
            if order is None:
                shuffled = tuple(rng.shuffled(kept, shuffle_seed))
                order = memo[key] = (shuffled, tuple(d.id for d in shuffled))
            kept, ids = order
        prompt = render_main_prompt(
            config, entity_type, kept, test_text, prompt_language,
            allow_empty_demos=True, memo=memo, demo_ids=ids,
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
