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
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import backend, rng, selection
from .backend import CompletionBackend, GenerationRequest
from .corpus import AnnotatedSentence, EntityType
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
    RenderedPrompt,
    VerificationDemo,
    estimate_tokens,
    fit_to_budget,
    render_verification_prompt,
)

_WORD_LIMIT_PAD = 32
_WORD = re.compile(r"[^\W_]+", re.UNICODE)

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


class _Step(NamedTuple):
    """One send: its requests in order, each with the prompt and held-out
    id the observer was shown, and the completions they received."""

    observed: list[tuple[RenderedPrompt, str | None]]
    requests: list[GenerationRequest]
    completions: list[str]


@dataclass
class _Wave:
    """What one wave planned, sent and decoded.

    decoded holds the main results before verification, asked, per item,
    whether each decoded span was sent a verification request, and
    results the wave's answer; verification is None without
    self_verification.
    """

    demos: list[_Ranked]
    main: _Step
    decoded: list[DecodeResult] = field(default_factory=list)
    verification: _Step | None = None
    asked: list[list[bool]] = field(default_factory=list)
    results: list[DecodeResult] = field(default_factory=list)


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
    once.  The pool passes each distinct request of a send to the backend
    once and gives its completion to every equal one, so a cache behind it
    needs no lock; inline, a repeated request comes after the first has
    been answered.  Outputs do not depend on which path ran.

    observer, when set, is called as observer(rendered_prompt, held_out_id)
    for every prompt before it is sent; tests use it to check that held-out
    text never appears among demonstrations.

    The LOOCV items are made once, with the pipeline.  Planning work that
    depends on the item and not on the feature flags is memoized: ranked
    demos with their ids, shuffled orders, verification demos, and the
    prompt parts and demo blocks with their token counts; so is each
    request's digest, keyed by the prompt's parts, and each decoded
    completion.
    LOOCV keeps one memo for the pipeline's lifetime, since its folds are
    the same for every configuration; any other wave gets a fresh memo that
    ends with it.  So planning entries stay bounded by k x types x the few
    selection and render variants, and decoded ones by the distinct main
    completions of the folds.

    LOOCV also keeps its last evaluation: its canonical config (see
    _canonical), prompts, requests, completions, results and score.  A
    config of the same canonical form sends those requests again instead
    of planning them, and takes the recorded score when every completion
    comes back the same; otherwise it goes on from what it received.  The
    requests, their order and backend_calls are the same either way.
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
        # The LOOCV items and the memo of their folds; see the class docstring.
        self._loocv: list[_Item] = []
        for s in self.corpus:
            self._loocv += self._items(s.text, s.id, s.id, self.entity_types)
        self._folds: dict = {}
        # The last LOOCV evaluation: (canonical config, wave, score).
        self._last: tuple[PromptConfig | None, _Wave | None, float] = (None, None, 0.0)
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

    def _canonical(self, config: PromptConfig) -> PromptConfig:
        """config with every feature reset that this pipeline never reads
        under it, so configs of one canonical form send the same requests.

        - prompt_language_native, when settings.prompt_language is "en":
          _language returns "en" either way.
        - long_verification_answer without self_verification: only
          templates._verification_demo reads it, and only _verify renders
          verification prompts, under `if config.self_verification:` in
          _annotate_wave.
        - alt_taggers in listing mode: it only picks config.tag_pair, which
          is read by decode_tagged, by the tagging branch of
          templates._demo_output and by the {open} and {close} fields that
          only the task_tagging and intro_tagging fragments name.
        - listing_separator in tagging mode: likewise read only by
          decode_listing, the listing branch of _demo_output and the
          {separator} field of task_listing and intro_listing.
        """
        inert: dict = {}
        if self.settings.prompt_language == "en":
            inert["prompt_language_native"] = False
        if not config.self_verification:
            inert["long_verification_answer"] = False
        if config.mode == "listing":
            inert["alt_taggers"] = False
        else:
            inert["listing_separator"] = "comma"
        return replace(config, **inert)

    def _request(self, prompt: RenderedPrompt, item: _Item, memo: dict, step: _Step) -> None:
        """Add to step the request for prompt, carrying its digest, which is
        hashed once per memo and then found under the prompt's parts.

        The key opens with a memo entry, not a kind name, so it cannot meet
        another memo key.  A prompt without parts (not built by the
        assembler) carries no digest, and the cache hashes it.
        """
        if self.observer is not None:
            self.observer(prompt, item.held_out_id)
        content = (
            prompt.text, item.max_new_tokens, 0.0, prompt.stop_sequences, self.settings.model_name,
        )
        key = (*prompt.parts, prompt.stop_sequences, item.max_new_tokens)
        digest = memo.get(key) if prompt.parts else ""
        if digest is None:
            digest = memo[key] = backend.request_digest(GenerationRequest(*content))
        step.observed.append((prompt, item.held_out_id))
        step.requests.append(GenerationRequest(*content, digest=digest))

    def _again(self, step: _Step) -> _Step:
        """step's requests to send once more, with no completions yet; the
        observer is shown their prompts again, in order."""
        if self.observer is not None:
            for prompt, held_out_id in step.observed:
                self.observer(prompt, held_out_id)
        return _Step(step.observed, step.requests, [])

    def _send(self, requests: list[GenerationRequest]) -> list[str]:
        """Completions in request order.

        Calls run inline until the backend is seen waiting: the last two
        thread-clock readings each found over _CLOCK_WINDOW_S of wall time
        since the one before, more than half of it off the CPU, and so did
        all inline calls so far.  So neither one stall of an in-process
        backend nor a burst of preemptions late in a long run starts the
        pool.  The clock is read at the start of the inline run, after each
        call that ends over _CLOCK_WINDOW_S past its last reading, and after
        the last call; the totals grow only at readings, so wall and CPU
        time cover the same calls.

        The remaining requests then go to the pool, created on first use,
        each distinct one once; its completion is given to every equal
        request.  Inline calls run one after another, so a cache already
        answers a repeated one.
        """
        self.backend_calls += len(requests)
        completions: list[str] = []
        wall, cpu = time.perf_counter(), time.thread_time()
        last = len(requests) - 1
        for i, request in enumerate(requests):
            if self._waiting_windows >= 2 and 2 * self._inline_cpu_s < self._inline_wall_s:
                if self._threads is None:
                    self._threads = ThreadPoolExecutor(
                        MAX_IN_FLIGHT, thread_name_prefix="fewner-request"
                    )
                rest = requests[i:]
                distinct = list(dict.fromkeys(rest))
                sent = dict(zip(distinct, self._threads.map(self.backend.generate, distinct)))
                completions.extend(sent[r] for r in rest)
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
        return completions

    def _demos(
        self, config: PromptConfig, item: _Item, memo: dict
    ) -> _Ranked:
        """Ranked demos and their ids: entity-rich for the type under
        self_verification, else TF-IDF nearest to the text."""
        rich = config.self_verification
        key = (
            "demos", item.held_out_id, None if rich else item.text,
            item.entity_type.id if rich else None, config.effective_demo_count,
        )
        demos = memo.get(key)
        if demos is None:
            pool = self._pool(item.held_out_id)
            n = min(config.effective_demo_count, len(pool))
            if rich:
                demo_ids = selection.select_entity_rich(pool, item.entity_type.id, n)
            else:
                demo_ids = selection.select_nearest(self._index(item.held_out_id), item.text, n)
            demos = memo[key] = (
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
                for m in _WORD.finditer(s.text)
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

    def _verify(self, config: PromptConfig, items: list[_Item], wave: _Wave, memo: dict) -> None:
        """Plan the dependent wave into wave: one yes/no request per
        decoded span.

        A span with no verification demos, or whose prompt cannot fit the
        token budget, is kept unverified, counted as an unparseable answer
        is.
        """
        language = self._language(config)
        wave.verification = step = _Step([], [], [])
        for item, (item_demos, demo_ids), result in zip(items, wave.demos, wave.decoded):
            item_asked = []
            if result.spans:
                key = ("verification", demo_ids, item.entity_type.id)
                if key not in memo:
                    memo[key] = self._verification_demos(item_demos, item.entity_type)
                vdemos = memo[key]
                for span in result.spans:
                    prompt = None if vdemos is None else self._fit_verification(
                        config, item, span.mention, vdemos, language, memo
                    )
                    if prompt is not None:
                        self._request(prompt, item, memo, step)
                    item_asked.append(prompt is not None)
            wave.asked.append(item_asked)

    @staticmethod
    def _verdicts(wave: _Wave) -> list[DecodeResult]:
        """The decoded results with the verification completions applied;
        never changed in place, since memos share them."""
        verdicts = iter(parse_verification(c) for c in wave.verification.completions)
        return [
            apply_verification(
                result, [next(verdicts) if ask else VERDICT_UNPARSEABLE for ask in item_asked]
            )
            if item_asked else result
            for result, item_asked in zip(wave.decoded, wave.asked)
        ]

    def _fit_verification(
        self,
        config: PromptConfig,
        item: _Item,
        mention: str,
        vdemos: list[VerificationDemo],
        language: str,
        memo: dict,
    ) -> RenderedPrompt | None:
        """The verification prompt for mention, dropping demos from the end
        until it fits the token budget; None when it does not fit with two.

        vdemos open with a positive and a negative, so every kept prefix
        still shows both answers.
        """
        for keep in range(len(vdemos), 1, -1):
            prompt = render_verification_prompt(
                config, item.entity_type, mention, item.text, vdemos[:keep], language, memo
            )
            if prompt.estimated_tokens <= self.settings.token_budget:
                dropped = len(vdemos) - keep
                return replace(prompt, dropped_demos=dropped) if dropped else prompt
        return None

    def _annotate_wave(
        self,
        config: PromptConfig,
        items: list[_Item],
        memo: dict | None = None,
        last: _Wave | None = None,
    ) -> _Wave:
        """Spans for each item: plan every main prompt in item order, send
        them, decode in item order, then verify as a second wave.  memo
        defaults to a fresh one for this wave; it also keeps each decoded
        result, keyed by all the decoder reads.

        last, when given, is a wave of the same items under a config of the
        same canonical form.  Its requests are sent again instead of
        planned, after the observer is shown their prompts, and its
        results stand while each send's completions equal the ones it
        received.  From the first send whose completions differ, the wave
        goes on from them as a planned one does, so either way the same
        requests go out once each, in the same order.
        """
        memo = {} if memo is None else memo
        if last is None:
            wave = self._plan(config, items, memo)
        else:
            wave = _Wave(last.demos, self._again(last.main))
        wave.main.completions.extend(self._send(wave.main.requests))
        if last is not None and wave.main.completions == last.main.completions:
            wave.decoded = last.decoded
        else:
            last = None
            wave.decoded = self._decode(config, items, wave.main.completions, memo)
        wave.results = wave.decoded
        if config.self_verification:
            if last is None:
                self._verify(config, items, wave, memo)
            else:
                wave.verification, wave.asked = self._again(last.verification), last.asked
            wave.verification.completions.extend(self._send(wave.verification.requests))
            if last is not None and wave.verification.completions == last.verification.completions:
                wave.results = last.results
            else:
                wave.results = self._verdicts(wave)
        return wave

    def _plan(self, config: PromptConfig, items: list[_Item], memo: dict) -> _Wave:
        """A wave with the demos and main requests of items, in item order."""
        language = self._language(config)
        wave = _Wave([], _Step([], [], []))
        for item in items:
            ranked = self._demos(config, item, memo)
            prompt = fit_to_budget(
                config,
                item.entity_type,
                ranked[0],
                item.text,
                language,
                self.settings.token_budget,
                shuffle_seed=item.shuffle_seed,
                memo=memo,
                ranked_ids=ranked[1],
            )
            wave.demos.append(ranked)
            self._request(prompt, item, memo, wave.main)
        return wave

    def _decode(
        self, config: PromptConfig, items: list[_Item], completions: list[str], memo: dict
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
            key = ("decoded", decoder, item.entity_type.id, item.text, completion)
            result = memo.get(key)
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
                memo[key] = result
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
        return self._annotate_wave(config, items).results[0]

    def evaluate_loocv(self, config: PromptConfig) -> float:
        """Micro-F1 of config under leave-one-out over the annotated sample.

        The last evaluation's wave is kept with its canonical config and
        score.  When config has the same canonical form, that wave is
        replayed (see _annotate_wave), and its score stands if every
        completion came back the same.
        """
        if len(self.corpus) < 2:
            raise ConfigError("leave-one-out needs at least two annotated sentences")
        canonical = self._canonical(config)
        last_config, last, score = self._last
        # Dropped first, so that two planned waves are never held at once.
        self._last = (None, None, 0.0)
        if last_config != canonical:
            last = None
        wave = self._annotate_wave(config, self._loocv, self._folds, last)
        # A replay keeps last's results only if every completion matched.
        if last is None or wave.results is not last.results:
            tp = fp = fn = 0
            for item, result in zip(self._loocv, wave.results):
                gold = self.corpus_by_id[item.test_id].spans_of(item.entity_type.id)
                dtp, dfp, dfn = span_match_counts(result.spans, gold)
                tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
            score = f1_from_counts(tp, fp, fn)[2]
        self._last = (canonical, wave, score)
        return score

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
            for item, result in zip(wave, self._annotate_wave(config, wave).results):
                predictions.add(item.test_id, item.entity_type.id, result)
        return predictions


def _run_search(kind: str, pipeline, score_fn, search) -> tuple[PromptConfig, SearchTrace]:
    """The driver both searches share.

    search(evaluate) walks its candidates, scoring each with evaluate(config),
    which also records it in the trace, and returns the winning config and
    its accepted features.  The trace gets the wall time and, with a
    pipeline, the backend requests the search issued.
    """
    if pipeline is None and score_fn is None:
        raise ConfigError(f"{kind} search needs a pipeline or an explicit scorer")
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

    The bitmasks are visited in ascending order and only a strictly better
    micro-F1 displaces the incumbent, so ties resolve to the smallest mask.
    The cost is 512 full leave-one-out evaluations; pass
    acknowledge_cost=True to confirm that is intended.
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
        best_config: PromptConfig | None = None
        best = -1.0
        for mask in range(1 << len(FEATURE_NAMES)):
            candidate = PromptConfig.from_bitmask(mask, **rest)
            micro = evaluate(candidate)
            if micro > best:
                best_config, best = candidate, micro
        assert best_config is not None
        return best_config, best_config.enabled_features()

    return _run_search("grid", pipeline, score_fn, scan)
