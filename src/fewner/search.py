"""Prompt pipeline, leave-one-out scoring, and feature search.

With only k annotated sentences there is no development set, so feature
combinations are scored by leave-one-out cross-validation over those k
sentences: each fold holds one sentence out, prompts are built from the
remaining k-1, and the pooled span counts across all folds and entity types
give one micro-F1 per configuration.

Two searches share that scorer.  The greedy search toggles the nine binary
features one at a time in their fixed order and keeps a toggle only when it
strictly improves micro-F1, costing at most ten evaluations.  The exhaustive
grid scores all 512 combinations and is therefore gated behind an explicit
acknowledgement flag.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import backend, rng, selection
from .backend import CompletionBackend, GenerationRequest
from .corpus import WORD, AnnotatedSentence, EntityType
from .decode import (
    VERDICT_UNPARSEABLE,
    DecodeResult,
    PredictionSet,
    apply_verification,
    decode_listing,
    decode_tagged,
    parse_verification,
)
from .errors import ConfigError
from .evaluation import f1_from_counts, span_match_counts
from .selection import TfidfIndex
from .templates import (
    FEATURE_NAMES,
    PromptConfig,
    PromptParts,
    RenderedPrompt,
    VerificationDemo,
    estimate_tokens,
    fit_demos,
    fit_to_budget,
    fragments_for,
    main_shape,
    render_verification_prompt,
)

_WORD_LIMIT_PAD = 32

# Most requests one pipeline has in flight once its backend is seen waiting.
MAX_IN_FLIGHT = 8
# (sentence, type) items that predict plans and sends together.
PREDICT_WAVE = 64
# Inline wall seconds between two readings of the thread clock, and the
# least a reading must cover to find the backend waiting.
_CLOCK_WINDOW_S = 0.005


@dataclass(frozen=True)
class PipelineSettings:
    """Knobs that stay fixed while configurations vary.

    prompt_language is the corpus's native language; prompts render in it
    only when a configuration enables prompt_language_native, and in English
    otherwise.
    """

    prompt_language: str = "en"
    model_name: str = ""
    token_budget: int = 4096
    max_new_tokens: int | None = None  # None: sized from the test sentence
    seed: int = 0  # ties demo ordering and verification picks to the sample

    def __post_init__(self):
        def require(ok: bool, name: str, expected: str) -> None:
            if not ok:
                value = getattr(self, name)
                raise ConfigError(f"pipeline.{name} must be {expected}, got {value!r}")

        require(isinstance(self.prompt_language, str), "prompt_language", "a string")
        require(isinstance(self.model_name, str), "model_name", "a string")
        require(_is_int(self.seed), "seed", "an integer")
        require(
            _is_int(self.token_budget) and self.token_budget >= 1,
            "token_budget", "an integer of at least 1",
        )
        require(
            self.max_new_tokens is None
            or (_is_int(self.max_new_tokens) and self.max_new_tokens >= 1),
            "max_new_tokens", "null or an integer of at least 1",
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TraceEntry:
    bitmask: int
    features: tuple[str, ...]
    micro_f1: float


@dataclass
class SearchTrace:
    """What a search tried and what it cost.

    wall_clock_seconds is deliberately excluded from to_json so the artifact
    is byte-identical across reruns; timing belongs in run metadata.
    """

    evaluations: list[TraceEntry] = field(default_factory=list)
    accepted_features: tuple[str, ...] = ()
    total_backend_calls: int = 0
    wall_clock_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "evaluations": [
                {
                    "bitmask": e.bitmask,
                    "features": list(e.features),
                    "micro_f1": e.micro_f1,
                }
                for e in self.evaluations
            ],
            "accepted_features": list(self.accepted_features),
            "total_backend_calls": self.total_backend_calls,
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)


@dataclass(eq=False)
class _Fold:
    """The demonstrations of one held-out id: pool, the annotated sample
    without that sentence, by id in id order; index, its TF-IDF index,
    built on first use; and the pipeline's settings.

    A pipeline makes one fold per held-out id and never changes it, so a
    fold is a memo argument that hashes by identity.  It holds no store.
    """

    held_out_id: str | None
    pool: dict[str, AnnotatedSentence]
    settings: PipelineSettings

    @cached_property
    def index(self) -> TfidfIndex:
        return selection.build_index(list(self.pool.values()))


class _Item(NamedTuple):
    """One sentence and entity type to annotate: the unit a wave plans."""

    entity_type: EntityType
    text: str
    test_id: str
    fold: _Fold  # the demonstrations, without the held-out sentence
    shuffle_seed: int  # orders the kept demonstrations
    max_new_tokens: int  # room for the answer


class _Fixed(tuple):
    """A tuple made once and never changed: a wave's items, its results or
    the LOOCV gold.  It is a memo argument that hashes and compares by
    identity, as _Fold does, so a lookup hashes none of its elements."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


class _Wave(NamedTuple):
    """One wave: its plan and the results computed from it.

    observed and requests are the plan, in item order: the main prompt
    the observer was shown and its request.  results is the wave's
    answer, verified under self_verification, a memo value (see
    _decoded and _verified).  A wave is never changed once built, so a
    replay sends its requests as they are.
    """

    observed: list[RenderedPrompt]
    requests: list[GenerationRequest]
    results: _Fixed


# The builders of the pipeline's memo values (see PromptParts): each
# reads nothing but its arguments.  n is a demo count already clamped to
# the pool, so counts that select the same demos share one entry.

def _rich(_, fold: _Fold, type_id: str, n: int) -> tuple[AnnotatedSentence, ...]:
    """The n sentences of the pool with the most gold spans of the type."""
    ids = selection.select_entity_rich(list(fold.pool.values()), type_id, n)
    return tuple(fold.pool[i] for i in ids)


def _nearest(_, fold: _Fold, text: str, n: int) -> tuple[AnnotatedSentence, ...]:
    """The n sentences of the pool nearest to text by TF-IDF."""
    return tuple(fold.pool[i] for i in selection.select_nearest(fold.index, text, n))


def _verification_demos(
    store: PromptParts, fold: _Fold, type_id: str, n: int
) -> list[VerificationDemo] | None:
    """Alternating yes/no examples drawn from the n entity-rich demos.

    Positives quote a gold mention, negatives a word of the sentence
    outside any gold span of the type; both picks are seeded.  Returns
    None when either side has no example to offer.
    """
    demos = store[_rich, fold, type_id, n]
    p = fold.settings.seed
    positives: list[VerificationDemo] = []
    negatives: list[VerificationDemo] = []
    for s in demos:
        golds = s.spans_of(type_id)
        if golds:
            pick = rng.SplitMix64(rng.stable_seed(p, "vpos", s.id, type_id)).randrange(len(golds))
            positives.append((s, golds[pick].mention, True))
        gold_surfaces = {sp.mention for sp in golds}
        tokens = [
            (m.start(), m.group())
            for m in WORD.finditer(s.text)
            if not any(sp.start <= m.start() < sp.end for sp in golds)
            and m.group() not in gold_surfaces
        ]
        if tokens:
            pick = rng.SplitMix64(rng.stable_seed(p, "vneg", s.id, type_id)).randrange(len(tokens))
            negatives.append((s, tokens[pick][1], False))
    if not positives or not negatives:
        return None
    out: list[VerificationDemo] = []
    for pos, neg in zip(positives, negatives):
        out.extend((pos, neg))
    longer = positives[len(negatives):] or negatives[len(positives):]
    out.extend(longer)
    return out[: max(2, len(demos))]


def _verification(
    store: PromptParts, fold: _Fold, entity_type: EntityType, n: int, language: str,
    long_answer: bool, dialogue: bool, text: str, mention: str, max_new_tokens: int,
) -> tuple[RenderedPrompt, GenerationRequest] | tuple[None, None]:
    """The verification prompt for mention in text, fitted to the token
    budget, and its request; (None, None) when there are no verification
    demos or none fits."""
    vdemos = store[_verification_demos, fold, entity_type.id, n]
    if vdemos is None:
        return None, None
    # The fields of a config that a verification prompt reads.
    config = PromptConfig(
        self_verification=True, long_verification_answer=long_answer, dialogue_template=dialogue
    )
    # vdemos open with a positive and a negative, so every prefix of two or
    # more shows both answers.
    prompt = fit_demos(
        lambda keep: render_verification_prompt(
            config, entity_type, mention, text, vdemos[:keep], language, store
        ),
        len(vdemos), 2, fold.settings.token_budget,
    )
    if prompt is None:
        return None, None
    return prompt, _request(prompt, max_new_tokens, fold.settings.model_name)


def _request(prompt: RenderedPrompt, max_new_tokens: int, model_name: str) -> GenerationRequest:
    """The request for prompt, carrying its digest, hashed from the
    prompt's escape, which its parts carry (see PromptParts)."""
    request = GenerationRequest(prompt.text, max_new_tokens, 0.0, prompt.stop_sequences, model_name)
    digest = backend.request_digest(request, prompt.escaped)
    # Set in place rather than by building the frozen request again: it is
    # not shared yet, and the digest is of its own fields.
    object.__setattr__(request, "digest", digest)
    return request


def _call(_, fn, *args):
    """fn(*args), kept under fn and args.  Callers pass fn as this module
    names it when they call, so a function replaced there is called."""
    return fn(*args)


# The outcome of a wave, kept under what it is computed from: the items,
# their main completions and, under self_verification, their verification
# completions.  decode is decode_tagged or decode_listing as this module
# names it when the wave runs, and marks the tag pair or the separator it
# reads.  n is the demo count clamped to the largest pool of the items.

def _decoded(
    store: PromptParts, decode, items: _Fixed, completions: tuple[str, ...], marks,
    dialogue: bool,
) -> _Fixed:
    """The spans each item's main completion decodes to, in item order."""
    return _Fixed(
        store[_call, decode, completion, item.text, marks, item.entity_type.id, dialogue]
        for item, completion in zip(items, completions)
    )


def _verification_plan(
    store: PromptParts, decode, items: _Fixed, completions: tuple[str, ...], marks,
    dialogue: bool, n: int, language: str, long_answer: bool,
) -> tuple[list[list[bool]], list[tuple[RenderedPrompt, _Item]], list[GenerationRequest]]:
    """The verification of the decoded wave: for each item, whether each
    of its spans is asked about; the prompts to show, each with its item;
    and their requests, in item and span order.  A span with no
    verification demos, or whose prompt cannot fit the token budget, is
    not asked (see _verification)."""
    asked, shown, requests = [], [], []
    for item, result in zip(items, store[_decoded, decode, items, completions, marks, dialogue]):
        item_asked, count = [], min(n, len(item.fold.pool))
        for span in result.spans:
            prompt, request = store[
                _verification, item.fold, item.entity_type, count, language, long_answer,
                dialogue, item.text, span.mention, item.max_new_tokens,
            ]
            if prompt is not None:
                shown.append((prompt, item))
                requests.append(request)
            item_asked.append(prompt is not None)
        asked.append(item_asked)
    return asked, shown, requests


def _verified(
    store: PromptParts, decode, items: _Fixed, completions: tuple[str, ...], marks,
    dialogue: bool, n: int, language: str, long_answer: bool, answers: tuple[str, ...],
) -> _Fixed:
    """The decoded wave with each asked span verified by its answer, in
    the plan's order.  A span not asked is kept unverified, counted as an
    unparseable answer is.  The results are new: the store shares the
    decoded ones."""
    decoded = store[_decoded, decode, items, completions, marks, dialogue]
    asked, _, _ = store[
        _verification_plan, decode, items, completions, marks, dialogue, n, language,
        long_answer,
    ]
    replies = iter(answers)
    return _Fixed(
        apply_verification(result, [
            store[_call, parse_verification, next(replies), span.mention]
            if ask else VERDICT_UNPARSEABLE
            for span, ask in zip(result.spans, item_asked)
        ])
        if item_asked else result
        for result, item_asked in zip(decoded, asked)
    )


def _counts(_, results: _Fixed, gold: _Fixed) -> tuple[int, int, int]:
    """(tp, fp, fn) of results against the gold spans of their items,
    pooled over the items."""
    tp = fp = fn = 0
    for result, spans in zip(results, gold):
        dtp, dfp, dfn = span_match_counts(result.spans, spans)
        tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
    return tp, fp, fn


class PromptingPipeline:
    """Select demos, render prompts, call the backend, decode spans.

    corpus is the k-sentence annotated sample; every prompt for a held-out
    or unseen sentence draws its demonstrations from it.  backend_calls
    counts every request the pipeline issued, equal ones included, so
    searches can report them.

    Requests go out in waves: every prompt of a wave is planned first, on
    the calling thread, then the wave is sent and decoded in item order.
    Calls run inline until the backend is seen waiting rather than
    computing; from then on requests go through a thread pool of
    MAX_IN_FLIGHT workers, the only place where requests are in flight at
    once.  Either way each distinct request of a send goes to the backend
    once and its completion to every copy (see _send), so a cache behind
    the pool needs no lock.  Outputs do not depend on which path ran.

    observer, when set, is called as observer(rendered_prompt, held_out_id)
    for every prompt before it is sent; tests use it to check that held-out
    text never appears among demonstrations.

    The LOOCV items and their gold spans are made once, with the
    pipeline, and each fold (see _Fold) once per held-out id; predict and
    annotate make the items of each wave.  Work that depends on the items
    and not on the feature flags is memoized in a templates.PromptParts
    store, each value under its builder and the values it reads: prompt
    parts and shuffled orders, ranked and verification demos, fitted
    verification prompts with their requests, decoded results and parsed
    verdicts.  So is each wave's outcome, under its items and completions:
    the decoded wave, its verification plan, the verified wave and, for
    LOOCV, its span counts.  An evaluation whose completions were seen
    before still sends every request and shows the observer every prompt.
    Main prompts are not memoized whole: a grid has too many distinct
    ones.  LOOCV keeps one store for the pipeline's lifetime, since its
    folds are the same for every configuration; any other wave gets a
    fresh one that ends with it.  So planning entries stay bounded by k x
    types x the few selection and render variants, and the others by the
    distinct requests and completions of the folds.

    LOOCV also keeps its last wave, whose plan a config of the same main
    key takes as it is and sends again (see evaluate_loocv); the requests,
    their order and backend_calls are the same either way.
    grid_search scans its configs grouped by main key, so that configs of
    one key run back to back.
    """

    def __init__(
        self,
        corpus: list[AnnotatedSentence],
        entity_types: list[EntityType],
        backend: CompletionBackend,
        settings: PipelineSettings | None = None,
        observer=None,
    ):
        if not corpus:
            raise ConfigError("the pipeline needs at least one annotated sentence")
        if not entity_types:
            raise ConfigError("the pipeline needs at least one entity type")
        self.corpus = sorted(corpus, key=lambda s: s.id)
        self.corpus_by_id = {s.id: s for s in self.corpus}
        if len(self.corpus_by_id) != len(corpus):
            raise ConfigError("duplicate sentence ids in the annotated sample")
        self.entity_types = list(entity_types)
        self.backend = backend
        self.backend_calls = 0
        self.settings = settings or PipelineSettings()
        self.observer = observer
        # One fold per held-out id (None: the full corpus), made on first use.
        self._folds: dict[str | None, _Fold] = {}
        # The LOOCV items and their store; see the class docstring.
        self._loocv = _Fixed(
            item for s in self.corpus for item in self._items(s.text, s.id, s.id, self.entity_types)
        )
        # The gold spans of each LOOCV item, in item order.
        self._gold = _Fixed(
            self.corpus_by_id[i.test_id].spans_of(i.entity_type.id) for i in self._loocv
        )
        self._store = PromptParts()
        # The last LOOCV evaluation: (its _main_key, wave).
        self._last: tuple[tuple | None, _Wave | None] = (None, None)
        # Wall and CPU seconds of the backend calls made inline so far, and
        # the thread-clock readings in a row that found the backend waiting.
        self._inline_wall_s = 0.0
        self._inline_cpu_s = 0.0
        self._waiting_windows = 0
        self._threads: ThreadPoolExecutor | None = None

    def _language(self, config: PromptConfig) -> str:
        return self.settings.prompt_language if config.prompt_language_native else "en"

    def _items(
        self, text: str, test_id: str, held_out_id: str | None, entity_types: list[EntityType]
    ) -> list[_Item]:
        fold = self._folds.get(held_out_id)
        if fold is None:
            pool = {s.id: s for s in self.corpus if s.id != held_out_id}
            fold = self._folds[held_out_id] = _Fold(held_out_id, pool, self.settings)
        # Room for the answer: a tagged copy of the test sentence plus slack.
        room = self.settings.max_new_tokens or 2 * estimate_tokens(text) + _WORD_LIMIT_PAD
        seed = self.settings.seed
        return [
            _Item(t, text, test_id, fold, rng.stable_seed(seed, test_id, t.id), room)
            for t in entity_types
        ]

    def _main_key(self, config: PromptConfig) -> tuple:
        """What config's main requests depend on: its main prompt's shape
        (see templates.main_shape), demo count and demo selection.  Configs
        of one main key plan the same main prompts and requests."""
        language = self._language(config)
        return main_shape(config, language), config.effective_demo_count, config.self_verification

    def _show(self, prompt: RenderedPrompt, item: _Item) -> None:
        """Show the observer prompt with item's held-out id."""
        if self.observer is not None:
            self.observer(prompt, item.fold.held_out_id)

    def _send(self, requests: list[GenerationRequest]) -> list[str]:
        """Completions in request order.  Each distinct request, by digest,
        goes to the backend once, in the order first seen, and its
        completion to every copy.  The merge covers this send only: one
        evaluation's main or verification requests, or one predict wave's;
        equal requests of two sends are each sent.

        Calls run inline until the backend is seen waiting: the last two
        thread-clock readings each found over _CLOCK_WINDOW_S of wall time
        since the one before, more than half of it off the CPU, and so did
        all inline calls so far.  So neither one stall of an in-process
        backend nor a burst of preemptions late in a long run starts the
        pool.  The clock is read at the start of the inline run, after each
        call that ends over _CLOCK_WINDOW_S past its last reading, and after
        the last call; the totals grow only at readings, so wall and CPU
        time cover the same calls.  The remaining distinct requests then go
        to the pool, created on first use.
        """
        self.backend_calls += len(requests)
        distinct = {r.digest: r for r in requests}
        completions: list[str] = []
        wall, cpu = time.perf_counter(), time.thread_time()
        last = len(distinct) - 1
        for i, request in enumerate(distinct.values()):
            if self._waiting_windows >= 2 and 2 * self._inline_cpu_s < self._inline_wall_s:
                if self._threads is None:
                    self._threads = ThreadPoolExecutor(
                        MAX_IN_FLIGHT, thread_name_prefix="fewner-request"
                    )
                rest = list(distinct.values())[i:]
                completions.extend(self._threads.map(self.backend.generate, rest))
                break
            completions.append(self.backend.generate(request))
            now = time.perf_counter()
            if now - wall > _CLOCK_WINDOW_S or i == last:
                now_cpu = time.thread_time()
                self._inline_wall_s += now - wall
                self._inline_cpu_s += now_cpu - cpu
                waited = now - wall > _CLOCK_WINDOW_S and 2 * (now_cpu - cpu) < now - wall
                self._waiting_windows = self._waiting_windows + 1 if waited else 0
                wall, cpu = now, now_cpu
        if len(distinct) == len(requests):  # no copies: already in request order
            return completions
        sent = dict(zip(distinct, completions))
        return [sent[r.digest] for r in requests]

    def _annotate_wave(
        self, config: PromptConfig, items: _Fixed, store: PromptParts,
        last: _Wave | None = None,
    ) -> _Wave:
        """The wave of items: plan every main prompt in item order and send
        them; under self_verification, show the observer every planned
        verification prompt and send their requests as a second, dependent
        send.

        The decoded results, the verification plan and the verified results
        are memo values keyed by the items and their completions (see
        _decoded, _verification_plan and _verified).  So a wave whose
        completions equal an earlier wave's of the same items, under the
        same marks, dialogue_template and verification settings, decodes,
        plans and verifies nothing; it still sends every request, in the
        same order, and shows the observer every prompt.

        last, when given, is a wave of the same items under a config of the
        same main key (see _main_key): its plan is taken as it is and its
        requests sent again, after the observer is shown their prompts
        again.
        """
        if last is None:
            observed, requests = self._plan(config, items, store)
        else:
            observed, requests, _ = last
            for prompt, item in zip(observed, items):
                self._show(prompt, item)
        if config.mode == "tagging":
            decode, marks = decode_tagged, config.tag_pair
        else:
            decode, marks = decode_listing, config.listing_separator
        key = (decode, items, tuple(self._send(requests)), marks, config.dialogue_template)
        if not config.self_verification:
            return _Wave(observed, requests, store[(_decoded, *key)])
        n = min(config.effective_demo_count, max(len(item.fold.pool) for item in items))
        key += (n, self._language(config), config.long_verification_answer)
        _, shown, verify = store[(_verification_plan, *key)]
        for prompt, item in shown:
            self._show(prompt, item)
        return _Wave(observed, requests, store[(_verified, *key, tuple(self._send(verify)))])

    def _plan(
        self, config: PromptConfig, items: _Fixed, store: PromptParts
    ) -> tuple[list[RenderedPrompt], list[GenerationRequest]]:
        """The main prompts and requests of items, in item order; the
        observer is shown each prompt.  Demos are entity-rich for the type
        under self_verification, else TF-IDF nearest to the text."""
        language, count = self._language(config), config.effective_demo_count
        rich = config.self_verification
        budget, model_name = self.settings.token_budget, self.settings.model_name
        observed, requests = [], []
        for item in items:
            n = min(count, len(item.fold.pool))
            if rich:
                ranked = store[_rich, item.fold, item.entity_type.id, n]
            else:
                ranked = store[_nearest, item.fold, item.text, n]
            prompt = fit_to_budget(
                config, item.entity_type, ranked, item.text, language, budget,
                shuffle_seed=item.shuffle_seed, parts=store,
            )
            requests.append(_request(prompt, item.max_new_tokens, model_name))
            self._show(prompt, item)
            observed.append(prompt)
        return observed, requests

    def annotate(
        self,
        config: PromptConfig,
        entity_type: EntityType,
        test_text: str,
        test_id: str,
        held_out_id: str | None = None,
    ) -> DecodeResult:
        """Predict spans of one type for one sentence.

        held_out_id removes that sentence from the demonstration pool (the
        LOOCV case); the returned spans refer to offsets in test_text.
        """
        items = _Fixed(self._items(test_text, test_id, held_out_id, [entity_type]))
        return self._annotate_wave(config, items, PromptParts()).results[0]

    def evaluate_loocv(self, config: PromptConfig) -> float:
        """Micro-F1 of config under leave-one-out over the annotated sample.

        The last evaluation's wave is kept with its main key (see
        _main_key).  When config has the same main key, that wave's main
        requests are sent again rather than planned (see _annotate_wave).
        The counts are a memo value under the wave's results, so results
        seen before are not scored again.
        """
        if len(self.corpus) < 2:
            raise ConfigError("leave-one-out needs at least two annotated sentences")
        key = self._main_key(config)
        last_key, last = self._last
        # Dropped first, so that two planned waves are never held at once.
        self._last = (None, None)
        wave = self._annotate_wave(
            config, self._loocv, self._store, last if last_key == key else None
        )
        self._last = (key, wave)
        return f1_from_counts(*self._store[_counts, wave.results, self._gold])[2]

    def predict(
        self, config: PromptConfig, test_sentences: list[AnnotatedSentence]
    ) -> PredictionSet:
        """Annotate unseen sentences with every entity type, pooling demos
        from the annotated sample; a test sentence that is also in the
        sample is held out of its own demonstrations."""
        predictions = PredictionSet()
        items: list[_Item] = []
        for s in test_sentences:
            held_out = s.id if s.id in self.corpus_by_id else None
            items += self._items(s.text, s.id, held_out, self.entity_types)
        for start in range(0, len(items), PREDICT_WAVE):
            wave = _Fixed(items[start : start + PREDICT_WAVE])
            for item, result in zip(wave, self._annotate_wave(config, wave, PromptParts()).results):
                predictions.add(item.test_id, item.entity_type.id, result)
        return predictions


def _run_search(kind: str, pipeline, score_fn, search) -> tuple[PromptConfig, SearchTrace]:
    """The driver both searches share.

    search(evaluate) walks its candidates, scoring each with evaluate(config),
    which also records it in the trace, and returns the winning config and
    its accepted features.  The trace gets the wall time and, with a
    pipeline, the backend requests the search issued.

    With a pipeline, a prompt language that has no template fragments, or
    in which an entity type has no names, raises ConfigError before the
    first request: a search toggles prompt_language_native.
    """
    if pipeline is None and score_fn is None:
        raise ConfigError(f"{kind} search needs a pipeline or an explicit scorer")
    if pipeline is not None:
        language = pipeline.settings.prompt_language
        fragments_for(language)
        for entity_type in pipeline.entity_types:
            entity_type.singular(language)
    score_fn = score_fn or pipeline.evaluate_loocv
    calls_before = pipeline.backend_calls if pipeline is not None else 0
    started = time.monotonic()
    trace = SearchTrace()

    def evaluate(config: PromptConfig) -> float:
        micro = score_fn(config)
        trace.evaluations.append(TraceEntry(config.bitmask, config.enabled_features(), micro))
        return micro

    best, trace.accepted_features = search(evaluate)
    trace.wall_clock_seconds = time.monotonic() - started
    if pipeline is not None:
        trace.total_backend_calls = pipeline.backend_calls - calls_before
    return best, trace


def greedy_search(
    pipeline: PromptingPipeline | None,
    base: PromptConfig | None = None,
    score_fn=None,
    second_pass: bool = False,
) -> tuple[PromptConfig, SearchTrace]:
    """Feature-by-feature hill climb from the base configuration.

    Each of the nine features is toggled once, in their fixed order, and the
    toggle is kept only when micro-F1 strictly improves: ties and losses
    roll back.  At most 1 + 9 evaluations (plus up to 9 more with
    second_pass, which retries the features rejected in the first sweep).
    """
    base = base or PromptConfig()

    def climb(evaluate):
        current, best = base, evaluate(base)
        for sweep in range(2 if second_pass else 1):
            for name in FEATURE_NAMES:
                # The second sweep retries only the features still at base.
                if sweep and current.feature(name) != base.feature(name):
                    continue
                candidate = current.with_features(**{name: not current.feature(name)})
                micro = evaluate(candidate)
                if micro > best:
                    current, best = candidate, micro
        accepted = tuple(
            name for name in FEATURE_NAMES if current.feature(name) != base.feature(name)
        )
        return current, accepted

    return _run_search("greedy", pipeline, score_fn, climb)


def grid_search(
    pipeline: PromptingPipeline | None,
    base: PromptConfig | None = None,
    score_fn=None,
    acknowledge_cost: bool = False,
) -> tuple[PromptConfig, SearchTrace]:
    """Exhaustive scan of all 512 feature combinations.

    The trace lists the bitmasks in ascending order, and the best is the
    first maximum in that order, so ties resolve to the smallest mask.
    The cost is 512 full leave-one-out evaluations; pass
    acknowledge_cost=True to confirm that is intended.

    The 512 configs are built once and held for the scan.  With a
    pipeline they are grouped by main key (see PromptingPipeline._main_key)
    in mask order, and the groups scored in turn, so that configs of one
    key run back to back and send one another's main requests again (see
    evaluate_loocv): groups come in the order of their lowest mask, each
    ascending.  Without one each mask is its own group, so the masks are
    scored in ascending order.  The requests sent are the same either way;
    only their order across evaluations differs.
    """
    if not acknowledge_cost:
        raise ConfigError(
            "grid search evaluates all 512 feature combinations; "
            "pass acknowledge_cost=True (or --acknowledge-cost) to proceed"
        )
    base = base or PromptConfig()
    rest = {
        "mode": base.mode,
        "listing_separator": base.listing_separator,
        "base_demo_count": base.base_demo_count,
    }

    def scan(evaluate):
        configs = [PromptConfig.from_bitmask(m, **rest) for m in range(1 << len(FEATURE_NAMES))]
        groups: dict[object, list[PromptConfig]] = {}
        for config in configs:
            key = config.bitmask if pipeline is None else pipeline._main_key(config)
            groups.setdefault(key, []).append(config)
        scores = {config: evaluate(config) for group in groups.values() for config in group}
        best = max(configs, key=scores.__getitem__)
        return best, best.enabled_features()

    best, trace = _run_search("grid", pipeline, score_fn, scan)
    trace.evaluations.sort(key=lambda entry: entry.bitmask)
    return best, trace
