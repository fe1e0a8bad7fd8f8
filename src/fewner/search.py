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

# The feature bits _main_key clears.
_NATIVE, _ALT_TAGGERS, _LONG_ANSWER = (
    1 << FEATURE_NAMES.index(name)
    for name in ("prompt_language_native", "alt_taggers", "long_verification_answer")
)


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


class _Item(NamedTuple):
    """One sentence and entity type to annotate: the unit a wave plans."""

    entity_type: EntityType
    text: str
    test_id: str
    held_out_id: str | None  # removed from the demonstration pool
    shuffle_seed: int  # orders the kept demonstrations
    max_new_tokens: int  # room for the answer


# Ranked demonstrations and the tuple of their ids, built together once.
_Ranked = tuple[tuple[AnnotatedSentence, ...], tuple[str, ...]]


@dataclass
class _Memos:
    """The planning work one scope keeps: prompt parts and shuffled orders
    in parts, and one dict per kind of the pipeline's own, each keyed by
    what its values are built from: ranked demos (see _demos),
    verification demos, fitted verification prompts with their requests
    and parsed verdicts (see _verified), decoded results (see _decode)."""

    parts: PromptParts = field(default_factory=PromptParts)
    ranked: dict = field(default_factory=dict)
    verification_demos: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)
    decoded: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)


class _Wave(NamedTuple):
    """One wave: its plan and the results computed from it.

    demos, observed and requests are the plan, in item order: each item's
    ranked demos, the main prompt the observer was shown and its request.
    results is the wave's answer, verified under self_verification.  A
    wave is never changed once built, so a replay sends its requests as
    they are.
    """

    demos: list[_Ranked]
    observed: list[RenderedPrompt]
    requests: list[GenerationRequest]
    results: list[DecodeResult]


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

    The LOOCV items are made once, with the pipeline.  Work that depends
    on the item and not on the feature flags is memoized in a _Memos:
    templates.PromptParts owns the prompt parts and shuffled orders, and
    this module the rest.  Main prompts are not memoized whole: a grid has
    too many distinct ones.  LOOCV keeps one _Memos for the pipeline's
    lifetime, since its folds are the same for every configuration; any
    other wave gets a fresh one that ends with it.  So planning entries
    stay bounded by k x types x the few selection and render variants, and
    the others by the distinct requests and completions of the folds.

    LOOCV also keeps its last wave, whose plan a config of the same main
    key takes as it is and sends again (see evaluate_loocv); the requests,
    their order and backend_calls are the same either way.
    grid_search orders its masks so that configs of one main key run back
    to back.
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
        # One TF-IDF index per held-out id (None: the full corpus), built on
        # first use; fold pools never change within a pipeline's lifetime.
        self._indexes: dict[str | None, TfidfIndex] = {}
        # The LOOCV items and the memos of their folds; see the class docstring.
        self._loocv: list[_Item] = []
        for s in self.corpus:
            self._loocv += self._items(s.text, s.id, s.id, self.entity_types)
        # The gold spans of each LOOCV item, in item order.
        self._gold = [self.corpus_by_id[i.test_id].spans_of(i.entity_type.id) for i in self._loocv]
        self._folds = _Memos()
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

    def _pool(self, held_out_id: str | None) -> list[AnnotatedSentence]:
        return [s for s in self.corpus if s.id != held_out_id]

    def _index(self, held_out_id: str | None) -> TfidfIndex:
        index = self._indexes.get(held_out_id)
        if index is None:
            index = selection.build_index(self._pool(held_out_id))
            self._indexes[held_out_id] = index
        return index

    def _items(
        self, text: str, test_id: str, held_out_id: str | None, entity_types: list[EntityType]
    ) -> list[_Item]:
        # Room for the answer: a tagged copy of the test sentence plus slack.
        room = self.settings.max_new_tokens or 2 * estimate_tokens(text) + _WORD_LIMIT_PAD
        seed = self.settings.seed
        return [
            _Item(t, text, test_id, held_out_id, rng.stable_seed(seed, test_id, t.id), room)
            for t in entity_types
        ]

    def _main_key(
        self, mask: int, mode: str, listing_separator: str, base_demo_count: int
    ) -> tuple:
        """The main key of the config of these fields, equal for configs
        that send the same main requests: the feature mask with every
        feature cleared that no main prompt reads under the config, then
        the mode, the separator (listing mode only) and base_demo_count.
        Taking fields, not a config, lets grid_search order its masks
        without building their configs.

        - long_verification_answer: only templates._verification_demo
          reads it, for verification prompts.
        - prompt_language_native, when settings.prompt_language is "en":
          _language returns "en" either way.
        - alt_taggers in listing mode: it only picks config.tag_pair, which
          is read by decode_tagged, by the tagging branch of
          templates._demo_output and by the {open} and {close} fields that
          only the task_tagging and intro_tagging fragments name.
        - listing_separator in tagging mode: likewise read only by
          decode_listing, the listing branch of _demo_output and the
          {separator} field of task_listing and intro_listing.
        """
        mask &= ~_LONG_ANSWER
        if self.settings.prompt_language == "en":
            mask &= ~_NATIVE
        separator = None
        if mode == "listing":
            mask &= ~_ALT_TAGGERS
            separator = listing_separator
        return mask, mode, separator, base_demo_count

    def _request(self, prompt: RenderedPrompt, item: _Item) -> GenerationRequest:
        """The request for prompt, carrying its digest, hashed from the
        prompt's escape, which its parts carry (see PromptParts)."""
        request = GenerationRequest(
            prompt.text, item.max_new_tokens, 0.0, prompt.stop_sequences, self.settings.model_name,
        )
        digest = backend.request_digest(request, prompt.escaped)
        # Set in place rather than by building the frozen request again:
        # it is not shared yet, and the digest is of its own fields.
        object.__setattr__(request, "digest", digest)
        return request

    def _show(self, prompt: RenderedPrompt, item: _Item) -> None:
        """Show the observer prompt with item's held-out id."""
        if self.observer is not None:
            self.observer(prompt, item.held_out_id)

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

    def _demos(self, config: PromptConfig, item: _Item, memos: _Memos) -> _Ranked:
        """Ranked demos and their ids: entity-rich for the type under
        self_verification, else TF-IDF nearest to the text."""
        rich = config.self_verification
        key = (
            item.held_out_id, None if rich else item.text,
            item.entity_type.id if rich else None, config.effective_demo_count,
        )
        demos = memos.ranked.get(key)
        if demos is None:
            pool = self._pool(item.held_out_id)
            n = min(config.effective_demo_count, len(pool))
            if rich:
                demo_ids = selection.select_entity_rich(pool, item.entity_type.id, n)
            else:
                demo_ids = selection.select_nearest(self._index(item.held_out_id), item.text, n)
            demos = memos.ranked[key] = (
                tuple(self.corpus_by_id[sid] for sid in demo_ids), tuple(demo_ids)
            )
        return demos

    def _verification_demos(
        self, demos: tuple[AnnotatedSentence, ...], entity_type: EntityType
    ) -> list[VerificationDemo] | None:
        """Alternating yes/no examples drawn from the main demonstrations.

        Positives quote a gold mention, negatives a word of the sentence
        outside any gold span of the type; both picks are seeded.  Returns
        None when either side has no example to offer.
        """
        p = self.settings.seed
        positives: list[VerificationDemo] = []
        negatives: list[VerificationDemo] = []
        for s in demos:
            golds = s.spans_of(entity_type.id)
            if golds:
                pick = rng.SplitMix64(
                    rng.stable_seed(p, "vpos", s.id, entity_type.id)
                ).randrange(len(golds))
                positives.append((s, golds[pick].mention, True))
            gold_surfaces = {sp.mention for sp in golds}
            tokens = [
                (m.start(), m.group())
                for m in WORD.finditer(s.text)
                if not any(sp.start <= m.start() < sp.end for sp in golds)
                and m.group() not in gold_surfaces
            ]
            if tokens:
                pick = rng.SplitMix64(
                    rng.stable_seed(p, "vneg", s.id, entity_type.id)
                ).randrange(len(tokens))
                negatives.append((s, tokens[pick][1], False))
        if not positives or not negatives:
            return None
        out: list[VerificationDemo] = []
        for pos, neg in zip(positives, negatives):
            out.extend((pos, neg))
        longer = positives[len(negatives):] or negatives[len(positives):]
        out.extend(longer)
        return out[: max(2, len(demos))]

    def _verified(
        self, config: PromptConfig, items: list[_Item], demos: list[_Ranked],
        decoded: list[DecodeResult], memos: _Memos,
    ) -> list[DecodeResult]:
        """decoded with every span verified: one yes/no request per span,
        planned in item and span order and sent as one dependent wave.

        A span with no verification demos, or whose prompt cannot fit the
        token budget, is kept unverified, counted as an unparseable answer
        is.

        Each span's fitted prompt and request, or (None, None) when none
        is sent, are memoized under exactly what they read: the type, the
        language, long_verification_answer and dialogue_template (the
        answers, turns and stop sequences), the main demo ids (which with
        the type fix the verification demos), the text, the mention and
        max_new_tokens; the token budget and model name are the
        pipeline's.  A hit fits, renders and hashes nothing: the observer
        is shown the memoized prompt with this item's held-out id.  Each
        verdict is parsed from its completion and mention and memoized
        under both.  The results are new: memos share decoded.
        """
        shape = (self._language(config), config.long_verification_answer, config.dialogue_template)
        asked, requests = [], []
        for item, ranked, result in zip(items, demos, decoded):
            item_asked = []
            for span in result.spans:
                key = (
                    item.entity_type.id, *shape, ranked[1], item.text, span.mention,
                    item.max_new_tokens,
                )
                planned = memos.verification.get(key)
                if planned is None:
                    prompt = self._fit_verification(config, item, span.mention, ranked, memos)
                    request = None if prompt is None else self._request(prompt, item)
                    planned = memos.verification[key] = (prompt, request)
                prompt, request = planned
                if prompt is not None:
                    self._show(prompt, item)
                    requests.append(request)
                item_asked.append(prompt is not None)
            asked.append(item_asked)
        completions, parsed = iter(self._send(requests)), memos.verdicts

        def verdict(mention: str) -> str:
            key = (next(completions), mention)
            found = parsed.get(key)
            if found is None:
                found = parsed[key] = parse_verification(*key)
            return found

        return [
            apply_verification(result, [
                verdict(s.mention) if ask else VERDICT_UNPARSEABLE
                for s, ask in zip(result.spans, item_asked)
            ])
            if item_asked else result
            for result, item_asked in zip(decoded, asked)
        ]

    def _fit_verification(
        self, config: PromptConfig, item: _Item, mention: str, demos: _Ranked, memos: _Memos
    ) -> RenderedPrompt | None:
        """The verification prompt for mention fitted to the token budget,
        or None when there are no verification demos or none fits."""
        key = (demos[1], item.entity_type.id)
        if key not in memos.verification_demos:
            memos.verification_demos[key] = self._verification_demos(demos[0], item.entity_type)
        vdemos = memos.verification_demos[key]
        if vdemos is None:
            return None
        # vdemos open with a positive and a negative, so every prefix of
        # two or more shows both answers.
        return fit_demos(
            lambda keep: render_verification_prompt(
                config, item.entity_type, mention, item.text, vdemos[:keep],
                self._language(config), memos.parts,
            ),
            len(vdemos), 2, self.settings.token_budget,
        )

    def _annotate_wave(
        self, config: PromptConfig, items: list[_Item], memos: _Memos, last: _Wave | None = None
    ) -> _Wave:
        """The wave of items: plan every main prompt in item order, send
        them, decode in item order, then verify under self_verification
        (see _verified).

        last, when given, is a wave of the same items under a config of the
        same main key (see _main_key): its plan is taken as it is and its
        requests sent again, after the observer is shown their prompts
        again.  Decoding and verification go through memos either way, so
        the same requests go out, in the same order.
        """
        if last is None:
            demos, observed, requests = self._plan(config, items, memos)
        else:
            demos, observed, requests, _ = last
            for prompt, item in zip(observed, items):
                self._show(prompt, item)
        results = self._decode(config, items, self._send(requests), memos)
        if config.self_verification:
            results = self._verified(config, items, demos, results, memos)
        return _Wave(demos, observed, requests, results)

    def _plan(
        self, config: PromptConfig, items: list[_Item], memos: _Memos
    ) -> tuple[list[_Ranked], list[RenderedPrompt], list[GenerationRequest]]:
        """The ranked demos, main prompts and main requests of items, in
        item order; the observer is shown each prompt."""
        language = self._language(config)
        demos, observed, requests = [], [], []
        for item in items:
            ranked = self._demos(config, item, memos)
            prompt = fit_to_budget(
                config, item.entity_type, ranked[0], item.text, language,
                self.settings.token_budget, shuffle_seed=item.shuffle_seed, parts=memos.parts,
            )
            requests.append(self._request(prompt, item))
            self._show(prompt, item)
            demos.append(ranked)
            observed.append(prompt)
        return demos, observed, requests

    def _decode(
        self, config: PromptConfig, items: list[_Item], completions: list[str], memos: _Memos
    ) -> list[DecodeResult]:
        """The spans each item's main completion decodes to, memoized."""
        tagging = config.mode == "tagging"
        # What picks the decoder and shapes its output, besides the item.
        decoder = (
            config.mode,
            config.alt_taggers if tagging else config.listing_separator,
            config.dialogue_template,
        )
        results = []
        for item, completion in zip(items, completions):
            key = (decoder, item.entity_type.id, item.text, completion)
            result = memos.decoded.get(key)
            if result is None:
                if tagging:
                    result = decode_tagged(
                        completion, item.text, config.tag_pair, item.entity_type.id,
                        config.dialogue_template,
                    )
                else:
                    result = decode_listing(
                        completion, item.text, config.listing_separator, item.entity_type.id,
                        config.dialogue_template,
                    )
                memos.decoded[key] = result
            results.append(result)
        return results

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
        items = self._items(test_text, test_id, held_out_id, [entity_type])
        return self._annotate_wave(config, items, _Memos()).results[0]

    def evaluate_loocv(self, config: PromptConfig) -> float:
        """Micro-F1 of config under leave-one-out over the annotated sample.

        The last evaluation's wave is kept with its main key (see
        _main_key).  When config has the same main key, that wave's main
        requests are sent again rather than planned (see _annotate_wave).
        """
        if len(self.corpus) < 2:
            raise ConfigError("leave-one-out needs at least two annotated sentences")
        key = self._main_key(
            config.bitmask, config.mode, config.listing_separator, config.base_demo_count
        )
        last_key, last = self._last
        # Dropped first, so that two planned waves are never held at once.
        self._last = (None, None)
        wave = self._annotate_wave(
            config, self._loocv, self._folds, last if last_key == key else None
        )
        tp = fp = fn = 0
        for result, gold in zip(wave.results, self._gold):
            dtp, dfp, dfn = span_match_counts(result.spans, gold)
            tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
        self._last = (key, wave)
        return f1_from_counts(tp, fp, fn)[2]

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
            wave = items[start : start + PREDICT_WAVE]
            for item, result in zip(wave, self._annotate_wave(config, wave, _Memos()).results):
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

    Without a pipeline the masks are scored in ascending order.  With one
    they are scored sorted by main key (see PromptingPipeline._main_key),
    so that configs of one key run back to back and send one another's
    main requests again (see evaluate_loocv).  Each key's mask is its
    group's lowest, so groups come in the order of their lowest mask.  The
    requests sent are the same either way; only their order across
    evaluations differs.
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
        masks = range(1 << len(FEATURE_NAMES))
        order = masks
        if pipeline is not None:
            # Keyed from the fields, so each config is built once, when it
            # is scored: holding all 512 added about 0.3 MB to grid-b0's
            # peak RSS.
            order = sorted(masks, key=lambda m: pipeline._main_key(m, **rest))
        scores = [0.0] * len(masks)
        for mask in order:
            scores[mask] = evaluate(PromptConfig.from_bitmask(mask, **rest))
        best = PromptConfig.from_bitmask(scores.index(max(scores)), **rest)
        return best, best.enabled_features()

    best, trace = _run_search("grid", pipeline, score_fn, scan)
    trace.evaluations.sort(key=lambda entry: entry.bitmask)
    return best, trace
