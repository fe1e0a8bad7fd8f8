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
count and JSON escape, and its template fragments are filled, from the
one table of fields a fragment may name, only when its key is new.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring
from typing import Iterable, Sequence

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
# the part's lines, and runs only when the part's key is new.

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


class PromptParts:
    """Prompt parts kept across renders: each head, demo turn, demo block
    and tail as its text (its lines joined by "\\n"), its token count and
    its JSON escape (see escape_json), or None when it has no lines, and
    each shuffled demo order.  Each is kept under a key of this module's
    own that names what shapes it, so one entry serves every
    configuration that agrees on it.

    Keys name demo sentences by id: share one store only among renders
    whose sentences of one id are the same sentence.
    """

    def __init__(self):
        self._entries: dict[tuple, tuple | None] = {}

    def part(self, scope: tuple, key: tuple, build, arg) -> tuple[str, int, str] | None:
        """The text, token count and escape of the lines build(scope, arg)
        returns, or None when it returns none."""
        part = self._entries.get(key, _NEW)
        if part is _NEW:
            lines = list(build(scope, arg))
            text = "\n".join(lines)
            part = self._entries[key] = (
                (text, estimate_tokens(text), escape_json(text)) if lines else None
            )
        return part

    def block(self, scope: tuple, key: tuple, turn_kind: str, args, build) -> tuple | None:
        """The turns build(scope, arg) of args as one part.  key is (block
        kind, ids, shape), and each turn is kept under (turn kind, id,
        shape), so a prompt costs one lookup instead of one per demo."""
        block = self._entries.get(key, _NEW)
        if block is _NEW:
            _, ids, shape = key
            block = self._entries[key] = _joined(
                [self.part(scope, (turn_kind, i, shape), build, a) for i, a in zip(ids, args)]
            )
        return block

    def order(self, demos: tuple, ids: tuple[str, ...], seed: int) -> tuple:
        """demos, whose ids are ids, shuffled by seed."""
        key = ("order", ids, seed)
        order = self._entries.get(key)
        if order is None:
            order = self._entries[key] = tuple(rng.shuffled(demos, seed))
        return order


# Marks a PromptParts key not yet built; a built part with no lines is None.
_NEW = object()


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
    parts: PromptParts | None, scope: tuple, kind: str, head: tuple, demos: tuple, tail: tuple,
    demonstrations: tuple[str, ...],
) -> RenderedPrompt:
    """The prompt of a head part, a block of demo turns and a tail part,
    given as PromptParts.part and .block take them, joined as one part."""
    parts = PromptParts() if parts is None else parts
    text, count, escaped = _joined(
        (parts.part(scope, *head), parts.block(scope, *demos), parts.part(scope, *tail))
    ) or ("", 0, "")
    config, entity_type, language = scope
    return RenderedPrompt(
        text=text,
        entity_type=entity_type.id,
        demonstrations=demonstrations,
        stop_sequences=stop_sequences_for(config, language),
        estimated_tokens=count,
        kind=kind,
        escaped=escaped,
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
    parts: PromptParts | None = None,
) -> RenderedPrompt:
    """Assemble the main prompt for one test sentence and one entity type.

    Layout: header (task description or persona), optional definition,
    demonstrations in the order given, optional introductory sentence, then
    the test sentence with an open output slot.

    parts, when given, keeps the header with its definition, each
    demonstration, the demonstration block and the intro with the test
    turn across calls (see PromptParts).
    """
    if not demos and not allow_empty_demos:
        raise ConfigError("cannot render a prompt with an empty demonstration set")
    # What shapes every part but the demo sentence and the test turn;
    # alt_taggers stands for the tag pair, which it decides.
    variant = (
        entity_type.id, config.mode, config.alt_taggers, config.listing_separator, prompt_language,
    )
    demo_ids = tuple(d.id for d in demos)
    return _assemble(
        parts, (config, entity_type, prompt_language), "main",
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
    parts: PromptParts | None = None,
) -> RenderedPrompt:
    """A yes/no prompt asking whether the candidate really is of the type.

    demos are (sentence, mention, is_positive) triples; at least one positive
    and one negative example are required so both answers are demonstrated.
    parts, as in render_main_prompt, keeps the task line, each demo turn,
    the block of demo turns (keyed by the ordered triples) and the final
    question.
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
        parts, (config, entity_type, prompt_language), "self_verification",
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
    ranked_ids = tuple(d.id for d in ranked_demos)

    def render(keep: int) -> RenderedPrompt:
        kept = tuple(ranked_demos[:keep])
        if shuffle_seed is not None:
            kept = parts.order(kept, ranked_ids[:keep], shuffle_seed)
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
