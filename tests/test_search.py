import gc
import itertools
import random
import re
import weakref
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

import fewner.search
import fewner.templates
import test_golden_prompts as golden
from conftest import additive_scorer, nine_weights, sent, span
from reference_digest import json_digest
from fewner.backend import (
    EchoBackend,
    GenerationRequest,
    OracleBackend,
    make_noisy_oracle,
    request_digest,
)
from fewner.decode import decode_listing, decode_tagged
from fewner.errors import ConfigError
from fewner.evaluation import score
from fewner.search import (
    PipelineSettings,
    PromptingPipeline,
    SearchTrace,
    TraceEntry,
    greedy_search,
    grid_search,
)
from fewner.synthetic import synthetic_corpus
from fewner.templates import (
    FEATURE_NAMES,
    PromptConfig,
    escape_json,
    estimate_tokens,
    fragments,
)


class RecordingBackend:
    """Echo backend that keeps every request it sees."""

    backend_id = "recording"

    def __init__(self):
        self.requests: list[GenerationRequest] = []
        self._echo = EchoBackend()

    def generate(self, request):
        self.requests.append(request)
        return self._echo.generate(request)


def echo_pipeline(n=6, observer=None, **settings_kwargs):
    sentences, types = synthetic_corpus(n, seed=11)
    settings = PipelineSettings(**settings_kwargs) if settings_kwargs else None
    return PromptingPipeline(sentences, types, EchoBackend(), settings, observer=observer)


# --------------------------------------------------------------------------
# Pipeline construction and plumbing

def test_pipeline_rejects_empty_or_duplicate_corpus():
    _, types = synthetic_corpus(2, seed=1)
    with pytest.raises(ConfigError):
        PromptingPipeline([], types, EchoBackend())
    s = sent("dup", "one two", [])
    with pytest.raises(ConfigError, match="duplicate"):
        PromptingPipeline([s, s], types, EchoBackend())


def test_pipeline_rejects_an_empty_entity_type_list():
    sentences, _ = synthetic_corpus(4, seed=1)
    with pytest.raises(ConfigError, match="at least one entity type"):
        PromptingPipeline(sentences, [], EchoBackend())


def test_loocv_needs_two_sentences():
    sentences, types = synthetic_corpus(1, seed=1)
    pipeline = PromptingPipeline(sentences, types, EchoBackend())
    with pytest.raises(ConfigError, match="at least two"):
        pipeline.evaluate_loocv(PromptConfig())


def test_backend_call_counting():
    pipeline = echo_pipeline(n=4)
    assert pipeline.backend_calls == 0
    pipeline.evaluate_loocv(PromptConfig())
    # One main request per fold and entity type, no verification with echo.
    assert pipeline.backend_calls == 4 * len(pipeline.entity_types)


def test_max_new_tokens_sizing():
    sentences, types = synthetic_corpus(4, seed=11)
    recorder = RecordingBackend()
    pipeline = PromptingPipeline(sentences, types, recorder)
    target = sentences[0]
    pipeline.annotate(PromptConfig(), types[0], target.text, target.id, held_out_id=target.id)
    assert recorder.requests[0].max_new_tokens == 2 * estimate_tokens(target.text) + 32
    fixed = PromptingPipeline(
        sentences, types, RecordingBackend(), PipelineSettings(max_new_tokens=7)
    )
    fixed.annotate(PromptConfig(), types[0], target.text, target.id)
    assert fixed.backend.requests[0].max_new_tokens == 7


def test_native_language_feature_switches_render_language():
    sentences, types = synthetic_corpus(4, seed=3, language="fr")
    seen = []
    pipeline = PromptingPipeline(
        sentences,
        types,
        EchoBackend(),
        PipelineSettings(prompt_language="fr"),
        observer=lambda prompt, held_out: seen.append(prompt.text),
    )
    target = sentences[0]
    pipeline.annotate(PromptConfig(), types[0], target.text, target.id)
    assert "Input:" in seen[-1] and "Entrée :" not in seen[-1]
    pipeline.annotate(
        PromptConfig(prompt_language_native=True), types[0], target.text, target.id
    )
    assert "Entrée :" in seen[-1] and "Input:" not in seen[-1]


def test_demo_count_respects_pool_and_doubling():
    captured = []
    pipeline = echo_pipeline(n=8, observer=lambda p, h: captured.append(p))
    target = pipeline.corpus[0]
    pipeline.annotate(PromptConfig(), pipeline.entity_types[0], target.text, target.id,
                      held_out_id=target.id)
    assert len(captured[-1].demonstrations) == 5
    pipeline.annotate(
        PromptConfig(additional_sentences=True),
        pipeline.entity_types[0], target.text, target.id, held_out_id=target.id,
    )
    # Pool of 7 cannot serve 10 demos; it serves all 7.
    assert len(captured[-1].demonstrations) == 7
    assert target.id not in captured[-1].demonstrations


def test_observer_sees_held_out_text_exactly_once():
    sentences, types = synthetic_corpus(6, seed=11)
    by_id = {s.id: s for s in sentences}
    violations = []

    def observer(prompt, held_out_id):
        if held_out_id is None:
            return
        count = prompt.text.count(by_id[held_out_id].text)
        if count != 1:
            violations.append((held_out_id, prompt.kind, count))

    pipeline = PromptingPipeline(sentences, types, EchoBackend(), observer=observer)
    pipeline.evaluate_loocv(PromptConfig())
    pipeline.evaluate_loocv(PromptConfig(additional_sentences=True, intro_sentence=True))
    assert violations == []


def test_oracle_pipeline_scores_perfectly():
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = OracleBackend(sentences, types)
    pipeline = PromptingPipeline(sentences, types, oracle)
    assert pipeline.evaluate_loocv(PromptConfig()) == 1.0


def test_oracle_pipeline_with_verification_scores_perfectly():
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = OracleBackend(sentences, types)
    pipeline = PromptingPipeline(sentences, types, oracle)
    calls_before = pipeline.backend_calls
    config = PromptConfig(self_verification=True)
    assert pipeline.evaluate_loocv(config) == 1.0
    # Verification issues one extra request per decoded span.
    spans = sum(len(s.spans) for s in sentences)
    folds = len(sentences) * len(types)
    assert pipeline.backend_calls - calls_before == folds + spans


def test_verification_without_negative_examples_keeps_spans():
    sentences = [
        sent("v1", "fever", [span(0, 5, "DISO", "fever")]),
        sent("v2", "rash", [span(0, 4, "DISO", "rash")]),
        sent("v3", "angina", [span(0, 6, "DISO", "angina")]),
    ]
    _, types = synthetic_corpus(2, seed=1, type_ids=("DISO",))
    oracle = OracleBackend(sentences, types)
    pipeline = PromptingPipeline(sentences, types, oracle)
    result = pipeline.annotate(
        PromptConfig(self_verification=True), types[0], "fever", "v1", held_out_id="v1"
    )
    # Every demo token is a gold mention, so no negative example exists and
    # the spans pass through uninspected (counted, not dropped).
    assert [s.mention for s in result.spans] == ["fever"]
    assert result.diagnostics.unverified_kept == 1


class LongAnswers:
    """Answers every main prompt with one completion, and each verification
    prompt as the oracle does, but in the long form that restates the
    mention, as the demos of long_verification_answer show."""

    backend_id = "long-answers"

    def __init__(self, completion, oracle, language, singular):
        self.completion, self.oracle = completion, oracle
        self.frags, self.singular = fragments()[language], singular

    def generate(self, request):
        frags = self.frags
        if not request.prompt.startswith(frags["verification_task"].partition("{")[0]):
            return self.completion
        question = request.prompt.rpartition(frags["input_label"])[2]
        _, mention = re.findall('"([^"]*)"', question)
        yes = self.oracle.generate(request) == frags["answer_yes"]
        answer = frags["long_answer_yes" if yes else "long_answer_no"]
        return answer.format(mention=mention, singular=self.singular)


# (language, sample of (text, mention), test sentence, its gold mention):
# each gold mention holds a verdict word of its language, and the test
# sentence's "Yes-associated protein" is not gold.
_LONG_ANSWER_CASES = [
    ("en", [("fever after aspirin", "fever"), ("a rash from ibuprofen", "rash"),
            ("cough with codeine", "cough")],
     "non-Hodgkin lymphoma with raised Yes-associated protein", "non-Hodgkin lymphoma"),
    ("fr", [("fièvre après aspirine", "fièvre"), ("une éruption après ibuprofène", "éruption"),
            ("toux avec codéine", "toux")],
     "lymphome non hodgkinien avec Yes-associated protein élevée", "lymphome non hodgkinien"),
    ("es", [("fiebre tras aspirina", "fiebre"), ("una erupción tras ibuprofeno", "erupción"),
            ("tos con codeína", "tos")],
     "linfoma no Hodgkin con Yes-associated protein elevada", "linfoma no Hodgkin"),
]


@pytest.mark.parametrize("language, sample_spans, text, gold", _LONG_ANSWER_CASES)
def test_verification_reads_long_answers_that_restate_the_mention(
    registry, language, sample_spans, text, gold
):
    diso = registry["DISO"]
    sample = [
        sent(f"d{i}", demo, [span(demo.index(m), demo.index(m) + len(m), "DISO", m)], language)
        for i, (demo, m) in enumerate(sample_spans)
    ]
    wrong = "Yes-associated protein"
    target = sent("t", text, [span(0, len(gold), "DISO", gold)], language)
    oracle = OracleBackend(sample + [target], [diso])
    tagged = text.replace(gold, f"@@{gold}##").replace(wrong, f"@@{wrong}##")
    backend = LongAnswers(tagged, oracle, language, diso.singular(language))
    pipeline = PromptingPipeline(
        sample, [diso], backend, PipelineSettings(prompt_language=language)
    )
    config = PromptConfig(
        self_verification=True, long_verification_answer=True, prompt_language_native=True
    )
    predictions = pipeline.predict(config, [target])
    # The gold mention is accepted, the other rejected, and neither answer
    # reads as unparseable.
    assert [s.mention for s in predictions.spans_for("t", "DISO")] == [gold]
    assert predictions.diagnostics.unverified_kept == 0


@pytest.mark.parametrize("budget", [100, 160])
def test_verification_prompts_fit_the_token_budget(budget):
    sentences, types = synthetic_corpus(8, seed=11)
    seen = []
    pipeline = PromptingPipeline(
        sentences, types, OracleBackend(sentences, types),
        PipelineSettings(token_budget=budget), observer=lambda prompt, _: seen.append(prompt),
    )
    assert pipeline.evaluate_loocv(PromptConfig(self_verification=True)) == 1.0
    verification = [p for p in seen if p.kind == "self_verification"]
    assert verification and sum(p.dropped_demos for p in verification) > 0
    assert all(estimate_tokens(p.text) <= budget for p in verification)
    assert all(
        p.estimated_tokens == estimate_tokens(p.text) and len(p.demonstrations) >= 2
        for p in verification
    )


def test_a_span_whose_verification_cannot_fit_stays_unverified():
    sentences, types = synthetic_corpus(8, seed=11)
    seen = []
    pipeline = PromptingPipeline(
        sentences, types, OracleBackend(sentences, types),
        PipelineSettings(token_budget=80), observer=lambda prompt, _: seen.append(prompt),
    )
    predictions = pipeline.predict(PromptConfig(self_verification=True), sentences)
    # Main prompts fit by dropping demos; no verification prompt fits with
    # two demos, so every decoded span is kept unverified.
    assert {p.kind for p in seen} == {"main"}
    assert predictions.total_spans() == sum(len(s.spans) for s in sentences)
    assert predictions.diagnostics.unverified_kept == predictions.total_spans()


def test_predict_over_unseen_sentences():
    sample, types = synthetic_corpus(6, seed=11)
    extra, _ = synthetic_corpus(9, seed=12)
    test_sentences = [s for s in extra if s.text not in {x.text for x in sample}][:3]
    oracle = OracleBackend(list(sample) + test_sentences, types)
    pipeline = PromptingPipeline(sample, types, oracle)
    predictions = pipeline.predict(PromptConfig(), test_sentences)
    assert sorted(predictions.spans) == sorted(s.id for s in test_sentences)
    report = score(predictions, test_sentences, entity_types=[t.id for t in types])
    assert report.micro_f1 == 1.0


# --------------------------------------------------------------------------
# Greedy search mechanics

def test_greedy_requires_scorer_or_pipeline():
    with pytest.raises(ConfigError):
        greedy_search(None)


def test_greedy_rejects_ties_and_keeps_base():
    best, trace = greedy_search(None, score_fn=lambda config: 0.5)
    assert best == PromptConfig()
    assert trace.accepted_features == ()
    assert len(trace.evaluations) == 10
    assert trace.evaluations[0].bitmask == 0


def test_greedy_accepts_only_strict_improvements():
    score_fn = additive_scorer(nine_weights([0.2, 0.0, -0.1, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]))
    best, trace = greedy_search(None, score_fn=score_fn)
    assert best.enabled_features() == ("prompt_language_native", "alt_taggers")
    assert trace.accepted_features == ("prompt_language_native", "alt_taggers")


def test_greedy_can_turn_features_off():
    base = PromptConfig(alt_taggers=True, intro_sentence=True)
    score_fn = additive_scorer(nine_weights([0, 0, 0, -0.4, 0, 0, 0.2, 0, 0]))
    best, trace = greedy_search(None, base=base, score_fn=score_fn)
    assert best.alt_taggers is False
    assert best.intro_sentence is True
    assert trace.accepted_features == ("alt_taggers",)


def test_greedy_second_pass_retries_rejected_features():
    def score_fn(config):
        value = 0.5
        if config.specialist_persona:
            value += 0.2
        if config.specialist_persona and config.additional_sentences:
            value += 0.3
        return value

    single, trace_single = greedy_search(None, score_fn=score_fn)
    assert single.enabled_features() == ("specialist_persona",)
    assert len(trace_single.evaluations) == 10

    double, trace_double = greedy_search(None, score_fn=score_fn, second_pass=True)
    assert double.enabled_features() == ("additional_sentences", "specialist_persona")
    assert len(trace_double.evaluations) == 18
    assert trace_double.accepted_features == ("additional_sentences", "specialist_persona")


def test_greedy_trace_records_configs_in_visit_order():
    _, trace = greedy_search(None, score_fn=lambda c: 0.0)
    masks = [e.bitmask for e in trace.evaluations]
    assert masks == [0] + [1 << i for i in range(9)]
    assert trace.evaluations[3].features == (FEATURE_NAMES[2],)


# --------------------------------------------------------------------------
# Grid search mechanics

def test_grid_requires_cost_acknowledgement():
    with pytest.raises(ConfigError, match="512"):
        grid_search(None, score_fn=lambda c: 0.0)


def test_grid_requires_scorer_or_pipeline():
    with pytest.raises(ConfigError, match="needs a pipeline"):
        grid_search(None, acknowledge_cost=True)


def _without_language(entity_type, language):
    return replace(
        entity_type,
        names={k: v for k, v in entity_type.names.items() if k != language},
        definitions={k: v for k, v in entity_type.definitions.items() if k != language},
    )


@pytest.mark.parametrize("strategy", ["greedy", "grid"])
@pytest.mark.parametrize(
    "language, unnamed, message",
    [
        ("de", None, "unsupported prompt language 'de'"),
        ("fr", "CHEM", "entity type 'CHEM' has no names for language 'fr'"),
    ],
)
def test_a_search_checks_its_prompt_language_before_any_request(
    strategy, language, unnamed, message
):
    sentences, types = synthetic_corpus(8, seed=11)
    types = [_without_language(t, language) if t.id == unnamed else t for t in types]
    pipeline = PromptingPipeline(
        sentences, types, EchoBackend(), PipelineSettings(prompt_language=language)
    )
    with pytest.raises(ConfigError, match=message):
        if strategy == "greedy":
            greedy_search(pipeline)
        else:
            grid_search(pipeline, acknowledge_cost=True)
    assert pipeline.backend_calls == 0


def test_grid_visits_all_masks_ascending_and_breaks_ties_low():
    best, trace = grid_search(None, score_fn=lambda c: 0.5, acknowledge_cost=True)
    assert [e.bitmask for e in trace.evaluations] == list(range(512))
    assert best.bitmask == 0
    assert trace.accepted_features == ()


def test_grid_carries_non_feature_settings_from_base():
    base = PromptConfig(mode="listing", listing_separator="newline", base_demo_count=3)
    score_fn = additive_scorer(nine_weights([0, 0.4, 0, 0, 0, 0, 0, 0, 0]))
    best, _ = grid_search(None, base=base, score_fn=score_fn, acknowledge_cost=True)
    assert best.mode == "listing"
    assert best.listing_separator == "newline"
    assert best.base_demo_count == 3
    assert best.enabled_features() == ("additional_sentences",)


# --------------------------------------------------------------------------
# Greedy equals grid on interaction-free scorers

def test_greedy_equals_grid_on_additive_scorers():
    rand = random.Random(1312)
    for case in range(6):
        weights = nine_weights([rand.uniform(-1, 1) for _ in range(9)])
        score_fn = additive_scorer(weights)
        greedy_best, greedy_trace = greedy_search(None, score_fn=score_fn)
        grid_best, grid_trace = grid_search(None, score_fn=score_fn, acknowledge_cost=True)
        assert greedy_best.bitmask == grid_best.bitmask, f"case {case}: {weights}"
        assert len(greedy_trace.evaluations) <= 10
        assert len(grid_trace.evaluations) == 512


def test_greedy_finds_the_rewarded_feature_set():
    rewarded = {"additional_sentences", "self_verification", "intro_sentence",
                "long_verification_answer"}
    weights = {name: (0.1 if name in rewarded else -0.1) for name in FEATURE_NAMES}
    best, trace = greedy_search(None, score_fn=additive_scorer(weights))
    assert set(best.enabled_features()) == rewarded
    assert set(trace.accepted_features) == rewarded


# --------------------------------------------------------------------------
# Traces

def test_trace_json_excludes_wall_clock():
    trace = SearchTrace(
        evaluations=[TraceEntry(3, ("a", "b"), 0.5)],
        accepted_features=("a",),
        total_backend_calls=7,
        wall_clock_seconds=123.456,
    )
    raw = trace.to_json()
    assert "wall_clock" not in raw
    assert '"total_backend_calls": 7' in raw
    assert trace.wall_clock_seconds == 123.456


def test_search_traces_are_deterministic_across_pipelines():
    def run():
        pipeline = echo_pipeline(n=5)
        best, trace = greedy_search(pipeline)
        return best, trace.to_json()

    (best_a, json_a), (best_b, json_b) = run(), run()
    assert best_a == best_b
    assert json_a == json_b


def test_greedy_counts_backend_calls_per_search():
    pipeline = echo_pipeline(n=5)
    _, trace = greedy_search(pipeline)
    # 10 LOOCV evaluations, each 5 folds x 2 types, echo never verifies.
    assert trace.total_backend_calls == 10 * 5 * 2
    assert trace.wall_clock_seconds > 0.0


def test_predict_holds_a_sample_sentence_out_of_its_own_demos():
    sample, types = synthetic_corpus(6, seed=11)
    target = sample[0]
    leaks = []

    def observer(prompt, held_out_id):
        # The sentence may appear once, as the text to annotate, never as a demo.
        if prompt.text.count(target.text) != 1 or target.id in prompt.demonstrations:
            leaks.append((held_out_id, prompt.kind))

    pipeline = PromptingPipeline(sample, types, EchoBackend(), observer=observer)
    for config in (PromptConfig(additional_sentences=True), PromptConfig(self_verification=True)):
        pipeline.predict(config, [target])
    assert leaks == []


# --------------------------------------------------------------------------
# Memoized planning: the fold memo must not change a single request


class StreamRecorder:
    """Records what each request asks for; the wrapped backend answers."""

    backend_id = "stream"

    def __init__(self, inner):
        self.inner = inner
        self.stream: list[tuple] = []

    def generate(self, request):
        self.stream.append((request.prompt, request.max_new_tokens, request.stop_sequences))
        return self.inner.generate(request)


class _CheckedDigests(golden._Digests):
    """The golden run's backend wrapper, checking first that each request
    carries the digest the JSON reference computes from its fields."""

    def generate(self, request):
        assert request.digest == json_digest(request), request
        return super().generate(request)


@pytest.mark.parametrize("language", ["en", "fr", "es"])
@pytest.mark.parametrize("mode, separator", golden.FORMATS)
def test_every_grid_and_predict_request_carries_its_digest(monkeypatch, language, mode, separator):
    monkeypatch.setattr(golden, "_Digests", _CheckedDigests)
    digest, dropped = golden._grid_digest(language, mode, separator)
    assert any(dropped)
    assert digest == golden.GOLDEN[language, mode, separator]


@pytest.mark.parametrize("language", ["en", "fr", "es"])
def test_every_annotate_request_carries_its_digest(language):
    sentences, types = synthetic_corpus(7, seed=29, language=language)
    sample = sentences[:5]
    checked = []

    class Checked(StreamRecorder):
        def generate(self, request):
            assert request.digest == json_digest(request), request
            checked.append(request.digest)
            return super().generate(request)

    oracle = make_noisy_oracle(sentences, types, seed=29, drop_prob=0.2, spurious_prob=0.3)
    settings = PipelineSettings(prompt_language=language, seed=29, token_budget=190)
    dropped = []
    pipeline = PromptingPipeline(
        sample, types, Checked(oracle), settings,
        observer=lambda prompt, _: dropped.append(prompt.dropped_demos),
    )
    for mask in range(0, 1 << len(FEATURE_NAMES), 37):
        for mode, separator in golden.FORMATS:
            config = PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator)
            for s in sentences:
                held_out = s.id if s in sample else None
                for t in types:
                    pipeline.annotate(config, t, s.text, s.id, held_out_id=held_out)
    assert checked and any(dropped)


@pytest.mark.parametrize("language", ["en", "fr", "es"])
def test_a_grid_escapes_only_head_turn_and_tail_texts(monkeypatch, language):
    escaped, passed = [], []

    def counting_escape(text):
        escaped.append(text)
        return escape_json(text)

    def recording_digest(request, escaped_prompt=None):
        passed.append(escaped_prompt)
        return request_digest(request, escaped_prompt)

    monkeypatch.setattr("fewner.templates.escape_json", counting_escape)
    monkeypatch.setattr("fewner.backend.request_digest", recording_digest)
    sentences, types = synthetic_corpus(4, seed=11, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=11, drop_prob=0.2, spurious_prob=0.3)
    recorder = StreamRecorder(oracle)
    settings = PipelineSettings(prompt_language=language, seed=11, token_budget=190)
    prompts = set()
    pipeline = PromptingPipeline(
        sentences, types, recorder, settings, observer=lambda prompt, _: prompts.add(prompt.text)
    )
    grid_search(pipeline, acknowledge_cost=True)
    # The pipeline hashes each request from the escape its prompt carries
    # and escapes nothing itself.
    assert not hasattr(fewner.search, "escape_json")
    assert passed and None not in passed
    # Each escape is of one head (at most two lines), demo turn (two) or
    # tail (at most three): never of a block of two or more turns, nor of a
    # whole prompt.  LOOCV keeps one part store for the pipeline's lifetime.
    assert escaped and max(text.count("\n") for text in escaped) <= 2
    assert prompts.isdisjoint(escaped)
    assert len(escaped) < len(set(recorder.stream))


@pytest.mark.parametrize("language", ["en", "fr", "es"])
@pytest.mark.parametrize("mode, separator", golden.FORMATS)
def test_every_prompt_shown_carries_the_escape_of_its_text(language, mode, separator):
    # The golden run's grid and predict passes: dialogue turns, demos
    # dropped to fit the budget, and verification prompts.
    everything, types = synthetic_corpus(7, seed=29, language=language)
    oracle = make_noisy_oracle(everything, types, seed=29, drop_prob=0.2, spurious_prob=0.3)
    settings = PipelineSettings(prompt_language=language, seed=29, token_budget=190)
    shown = {}
    pipeline = PromptingPipeline(
        everything[:5], types, _CheckedDigests(oracle), settings,
        observer=lambda prompt, _: shown.setdefault(id(prompt), prompt),
    )
    configs = [
        PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator)
        for mask in range(1 << len(FEATURE_NAMES))
    ]
    for config in configs:
        pipeline.evaluate_loocv(config)
    for config in configs[::17]:
        pipeline.predict(config, everything)
    prompts = list(shown.values())
    assert {p.kind for p in prompts} == {"main", "self_verification"}
    assert any(p.dropped_demos for p in prompts)
    assert any(p.text.startswith("- ") or "\n- " in p.text for p in prompts)
    for prompt in prompts:
        assert prompt.escaped == escape_json(prompt.text)
        request = GenerationRequest(prompt.text, 40, 0.0, prompt.stop_sequences, "m")
        assert request_digest(request, prompt.escaped) == request_digest(request)


# Every sentence has one mention of each type, so both types rank the same
# entity-rich demos, and only the type tells their verification demos apart.
_MIXED = [
    sent("m1", "fever after aspirin",
         [span(0, 5, "DISO", "fever"), span(12, 19, "CHEM", "aspirin")]),
    sent("m2", "rash from ibuprofen today",
         [span(0, 4, "DISO", "rash"), span(10, 19, "CHEM", "ibuprofen")]),
    sent("m3", "cough with codeine syrup",
         [span(0, 5, "DISO", "cough"), span(11, 18, "CHEM", "codeine")]),
]


@pytest.mark.parametrize("sample", ["synthetic", "mixed"])
def test_one_pipeline_sends_the_requests_of_a_fresh_pipeline_per_mask(sample):
    sentences, types = synthetic_corpus(7, seed=17)
    if sample == "mixed":
        sentences = _MIXED
    oracle = make_noisy_oracle(sentences, types, seed=17, drop_prob=0.2, spurious_prob=0.3)
    # Tight enough that the longest prompts drop demonstrations.
    settings = PipelineSettings(seed=17, token_budget=210)
    shared = StreamRecorder(oracle)
    pipeline = PromptingPipeline(sentences, types, shared, settings)
    fresh = StreamRecorder(oracle)
    # annotate plans one item per wave, so nothing planned for one fold
    # can serve another; its requests come in another order.
    single = StreamRecorder(oracle)
    one_by_one = PromptingPipeline(sentences, types, single, settings)
    dropped = []
    for mask in range(1 << len(FEATURE_NAMES)):
        config = PromptConfig.from_bitmask(mask)
        pipeline.evaluate_loocv(config)
        PromptingPipeline(
            sentences, types, fresh, settings,
            observer=lambda prompt, _: dropped.append(prompt.dropped_demos),
        ).evaluate_loocv(config)
        for s in sentences:
            for t in types:
                one_by_one.annotate(config, t, s.text, s.id, held_out_id=s.id)
    assert shared.stream == fresh.stream
    assert Counter(shared.stream) == Counter(single.stream)
    if sample == "synthetic":
        assert any(dropped) and not all(dropped)


@pytest.mark.parametrize("config", [PromptConfig(), PromptConfig(self_verification=True)])
def test_predict_sends_what_annotate_sends_per_sentence(config):
    sample, types = synthetic_corpus(6, seed=11)
    extra, _ = synthetic_corpus(12, seed=12)
    seen = {s.text for s in sample}
    unseen = [replace(s, id=f"t{i}") for i, s in enumerate(extra) if s.text not in seen]
    test_sentences = unseen[:6] + [sample[0]]
    oracle = make_noisy_oracle(
        sample + unseen[:6], types, seed=11, drop_prob=0.2, spurious_prob=0.3
    )
    waves, single = StreamRecorder(oracle), StreamRecorder(oracle)
    PromptingPipeline(sample, types, waves).predict(config, test_sentences)
    one_by_one = PromptingPipeline(sample, types, single)
    for s in test_sentences:
        for t in types:
            held_out = s.id if s is sample[0] else None
            one_by_one.annotate(config, t, s.text, s.id, held_out_id=held_out)
    assert Counter(waves.stream) == Counter(single.stream)


@pytest.fixture
def decoded(monkeypatch):
    """backend -> (spans, diagnostics) of every item that the waves of
    pipelines over that backend returned, read as each wave returns."""
    seen = defaultdict(list)
    real = PromptingPipeline._annotate_wave

    def wave(self, *args):
        done = real(self, *args)
        seen[self.backend].extend((r.spans, r.diagnostics.to_dict()) for r in done.results)
        return done

    monkeypatch.setattr(PromptingPipeline, "_annotate_wave", wave)
    return seen


def test_one_pipeline_scores_and_decodes_every_mask_as_a_fresh_pipeline_does(decoded):
    sentences, types = synthetic_corpus(7, seed=17)
    oracle = make_noisy_oracle(sentences, types, seed=17, drop_prob=0.2, spurious_prob=0.3)
    # Tight enough that some verification prompts do not fit.
    settings = PipelineSettings(seed=17, token_budget=130)
    shared, fresh = StreamRecorder(oracle), StreamRecorder(oracle)
    pipeline = PromptingPipeline(sentences, types, shared, settings)
    for mask in range(1 << len(FEATURE_NAMES)):
        config = PromptConfig.from_bitmask(mask)
        expected = PromptingPipeline(sentences, types, fresh, settings).evaluate_loocv(config)
        assert pipeline.evaluate_loocv(config) == expected, mask
    assert decoded[shared] == decoded[fresh]
    assert any(diagnostics["unverified_kept"] for _, diagnostics in decoded[shared])


class ScriptedBackend:
    """Answers every request with one completion."""

    backend_id = "scripted"

    def __init__(self, completion):
        self.completion = completion

    def generate(self, request):
        return self.completion


def test_the_decode_memo_keeps_every_decoder_input_apart(decoded, registry):
    # Each tag pair, separator and turn layout decodes this completion to
    # other spans or counts, and each sentence and type to other spans; one
    # pipeline must decode each item as the decoder itself does.
    sentences = [
        sent("s1", "fever and rash after aspirin"),
        sent("s2", "aspirin eased the fever and the rash"),
        sent("s3", "rash, fever and aspirin"),
    ]
    types = [registry["DISO"], registry["CHEM"]]
    completion = "@@fever## <<rash>>, aspirin\n- @@aspirin##\nfever"
    backend = ScriptedBackend(completion)
    pipeline = PromptingPipeline(sentences, types, backend)
    decoders = [("tagging", "comma"), ("listing", "comma"), ("listing", "newline")]
    expected = []
    for (mode, separator), alt, dialogue, verify in itertools.product(
        decoders, (False, True), (False, True), (False, True)
    ):
        config = PromptConfig(
            mode=mode, listing_separator=separator, alt_taggers=alt,
            dialogue_template=dialogue, self_verification=verify,
        )
        pipeline.evaluate_loocv(config)
        for s in sentences:
            for t in types:
                if mode == "tagging":
                    result = decode_tagged(completion, s.text, config.tag_pair, t.id, dialogue)
                else:
                    result = decode_listing(completion, s.text, separator, t.id, dialogue)
                # No sentence has a gold span, so none has verification demos.
                unverified = len(result.spans) if verify else 0
                expected.append(
                    (result.spans, result.diagnostics.to_dict() | {"unverified_kept": unverified})
                )
    assert decoded[backend] == expected
    assert len({spans for spans, _ in expected}) > 8


def test_spans_without_verification_demos_count_as_unverified_every_time(decoded):
    # Every demo token is a gold mention, so no item has verification demos.
    sentences = [
        sent("v1", "fever", [span(0, 5, "DISO", "fever")]),
        sent("v2", "rash", [span(0, 4, "DISO", "rash")]),
        sent("v3", "angina", [span(0, 6, "DISO", "angina")]),
    ]
    _, types = synthetic_corpus(2, seed=1, type_ids=("DISO",))
    backend = StreamRecorder(OracleBackend(sentences, types))
    pipeline = PromptingPipeline(sentences, types, backend)
    config = PromptConfig(self_verification=True)
    for _ in range(2):  # the second run decodes from the fold memo
        assert pipeline.evaluate_loocv(config) == 1.0
    first, second = decoded[backend][:3], decoded[backend][3:]
    assert first == second
    assert [diagnostics["unverified_kept"] for _, diagnostics in first] == [1, 1, 1]


# --------------------------------------------------------------------------
# Canonical configurations and the replay of the last LOOCV evaluation


# Distinct canonical and main keys over the 512 masks, by English prompts
# and mode.
_CANONICAL_COUNTS = {
    (True, "tagging"): (192, 128), (True, "listing"): (96, 64),
    (False, "tagging"): (384, 256), (False, "listing"): (192, 128),
}


@pytest.mark.parametrize("language", ["en", "fr", "es"])
@pytest.mark.parametrize("mode, separator", golden.FORMATS)
def test_masks_of_one_canonical_config_send_the_same_requests(language, mode, separator):
    sentences, types = synthetic_corpus(4, seed=31, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=31, drop_prob=0.2, spurious_prob=0.3)
    backend = golden._Digests(oracle)
    pipeline = PromptingPipeline(
        sentences, types, backend, PipelineSettings(prompt_language=language, seed=31)
    )
    # Consecutive masks differ in self_verification, which is never inert,
    # so every evaluation is planned and none replays the one before.
    verification = 1 << FEATURE_NAMES.index("self_verification")
    masks = [m | v for m in range(512) if not m & verification for v in (0, verification)]
    sent, sent_main = defaultdict(set), defaultdict(set)
    for mask in masks:
        config = PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator)
        start = len(backend.digests)
        pipeline.evaluate_loocv(config)
        main = pipeline._main_key(config)
        # Configs of one main key send the same verification requests too
        # unless long_verification_answer, read only by them, differs.
        canonical = (main, config.self_verification and config.long_verification_answer)
        sent[canonical].add(tuple(backend.digests[start:]))
        # The main requests come first, one per fold and type.
        sent_main[main].add(tuple(backend.digests[start : start + len(sentences) * len(types)]))
    assert (len(sent), len(sent_main)) == _CANONICAL_COUNTS[language == "en", mode]
    assert all(len(sequences) == 1 for sequences in sent.values())
    assert all(len(sequences) == 1 for sequences in sent_main.values())


class Fickle:
    """Answers as the wrapped backend does, except for the request with
    digest target, answered changed while changing is set; keeps (digest,
    prompt, completion) of every request it answers."""

    backend_id = "fickle"

    def __init__(self, inner, target="", changed=""):
        self.inner, self.target, self.changed = inner, target, changed
        self.changing = True
        self.sent: list[tuple[str, str, str]] = []

    def generate(self, request):
        digest = request_digest(request)
        if digest == self.target and self.changing:
            completion = self.changed
        else:
            completion = self.inner.generate(request)
        self.sent.append((digest, request.prompt, completion))
        return completion


# Masks 4 (self_verification) and 0, each with a twin: mask | 1 adds
# prompt_language_native, inert for English prompts, so the twin has the
# same canonical key; mask | 128 adds long_verification_answer, so it has
# the same main key only.
@pytest.mark.parametrize(
    "mask, twin, changes",
    [
        pytest.param(0, 1, "main", id="0-main"),
        pytest.param(4, 1, "main", id="4-main"),
        pytest.param(4, 1, "verification", id="4-verification"),
        pytest.param(4, 128, "main", id="4-128-main"),
        pytest.param(4, 128, "verification", id="4-128-verification"),
    ],
)
def test_replay_goes_on_from_a_completion_that_changed(monkeypatch, mask, twin, changes):
    sentences, types = synthetic_corpus(6, seed=11)
    first, second = PromptConfig.from_bitmask(mask), PromptConfig.from_bitmask(mask | twin)
    oracle = OracleBackend(sentences, types)
    answers = Fickle(oracle)
    unchanged = PromptingPipeline(sentences, types, answers).evaluate_loocv(second)
    # A tagged main answer loses its spans, or an accepted span is rejected.
    target = next(
        digest for digest, prompt, completion in answers.sent
        if prompt.startswith("The task is to verify") == (changes == "verification")
        and ("@@" in completion or completion == "Yes")
    )
    changed = "No" if changes == "verification" else ""
    fickle = Fickle(oracle, target, changed)
    fickle.changing = False
    pipeline = PromptingPipeline(sentences, types, fickle)
    pipeline.evaluate_loocv(first)
    start = len(fickle.sent)
    fickle.changing = True
    plans = []
    real = fewner.search.fit_to_budget
    monkeypatch.setattr(
        "fewner.search.fit_to_budget", lambda *a, **kw: plans.append(a) or real(*a, **kw)
    )
    got = pipeline.evaluate_loocv(second)
    fresh_backend = Fickle(oracle, target, changed)
    fresh = PromptingPipeline(sentences, types, fresh_backend)
    assert plans == []
    assert got == fresh.evaluate_loocv(second) < unchanged
    assert fickle.sent[start:] == fresh_backend.sent
    assert pipeline.backend_calls - start == fresh.backend_calls


def _replay_twin(monkeypatch, twin):
    """Evaluate a self_verification config, then its twin with feature
    twin set, on one pipeline.  The twin must score, send and show the
    observer what a fresh pipeline does, planning no main prompt; returns
    the verification prompts it rendered."""
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = make_noisy_oracle(sentences, types, seed=11, drop_prob=0.2, spurious_prob=0.3)
    config = PromptConfig(self_verification=True)
    other = config.with_features(**{twin: True})
    seen, fresh_seen = [], []
    fresh = PromptingPipeline(
        sentences, types, Fickle(oracle), observer=lambda *args: fresh_seen.append(args)
    )
    expected = fresh.evaluate_loocv(other)
    backend = Fickle(oracle)
    pipeline = PromptingPipeline(
        sentences, types, backend, observer=lambda *args: seen.append(args)
    )
    pipeline.evaluate_loocv(config)
    start, seen_start = len(backend.sent), len(seen)
    plans, verifications = [], []
    monkeypatch.setattr("fewner.search.fit_to_budget", lambda *a, **kw: plans.append(a))
    render = fewner.search.render_verification_prompt
    monkeypatch.setattr(
        "fewner.search.render_verification_prompt",
        lambda *a, **kw: verifications.append(a) or render(*a, **kw),
    )
    assert pipeline.evaluate_loocv(other) == expected
    assert plans == []
    assert backend.sent[start:] == fresh.backend.sent
    assert seen[seen_start:] == fresh_seen
    assert any(prompt.kind == "self_verification" for prompt, _ in fresh_seen)
    return verifications


def test_replay_plans_nothing_and_shows_the_observer_every_prompt(monkeypatch):
    assert _replay_twin(monkeypatch, "prompt_language_native") == []


def test_a_main_only_replay_plans_only_verification(monkeypatch):
    assert _replay_twin(monkeypatch, "long_verification_answer") != []


@pytest.mark.parametrize("language", ["en", "fr", "es"])
def test_the_grid_plans_each_main_key_once(monkeypatch, language):
    sentences, types = synthetic_corpus(4, seed=31, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=31, drop_prob=0.2, spurious_prob=0.3)
    pipeline = PromptingPipeline(
        sentences, types, oracle, PipelineSettings(prompt_language=language, seed=31)
    )
    planned = []
    real = PromptingPipeline._plan

    def plan(self, config, *args):
        planned.append(self._main_key(config))
        return real(self, config, *args)

    monkeypatch.setattr(PromptingPipeline, "_plan", plan)
    grid_search(pipeline, acknowledge_cost=True)
    assert len(planned) == len(set(planned)) == (128 if language == "en" else 256)


class AnswersNo:
    """Answers main prompts as the wrapped backend does and every
    verification prompt "no", in whatever language it is written."""

    backend_id = "answers-no"

    def __init__(self, inner):
        self.inner = inner
        self.tasks = tuple(f["verification_task"].split("{")[0] for f in fragments().values())

    def generate(self, request):
        return "no" if request.prompt.startswith(self.tasks) else self.inner.generate(request)


@pytest.mark.parametrize(
    "language, answers", [("en", "oracle"), ("fr", "oracle"), ("fr", "no")]
)
def test_the_grid_scores_each_distinct_wave_outcome_once(monkeypatch, language, answers):
    # Seven sentences leave pools of six, so the demo counts 5 and 10 pick
    # other demos; French prompts may be native or English, and answered
    # "no" in either, two waves may differ in their prompt language alone.
    sentences, types = synthetic_corpus(7, seed=31, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=31, drop_prob=0.2, spurious_prob=0.3)
    backend = oracle if answers == "oracle" else AnswersNo(oracle)
    pipeline = PromptingPipeline(
        sentences, types, backend, PipelineSettings(prompt_language=language, seed=31)
    )
    answers, scored, outcomes = [], [], set()
    send, loocv = pipeline._send, pipeline.evaluate_loocv
    pipeline._send = lambda requests: answers.append(tuple(send(requests))) or list(answers[-1])

    def evaluate(config):
        start = len(answers)
        micro = loocv(config)
        # What an evaluation's outcome is computed from: its completions
        # and the config fields that read them.
        outcome = (config.mode, config.tag_pair, config.dialogue_template, answers[start])
        if config.self_verification:
            count = min(config.effective_demo_count, len(sentences) - 1)
            language = pipeline._language(config)
            outcome += (count, language, config.long_verification_answer, answers[start + 1])
        outcomes.add(outcome)
        return micro

    pipeline.evaluate_loocv = evaluate
    real = fewner.search.span_match_counts
    monkeypatch.setattr(
        "fewner.search.span_match_counts", lambda *args: scored.append(args) or real(*args)
    )
    grid_search(pipeline, acknowledge_cost=True)
    items = len(sentences) * len(types)
    assert len(scored) == items * len(outcomes) < items * 512 // 4


@pytest.mark.parametrize("language", ["en", "fr", "es"])
def test_the_grid_scores_each_mask_as_a_fresh_pipeline_does(language):
    sentences, types = synthetic_corpus(5, seed=17, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=17, drop_prob=0.2, spurious_prob=0.3)
    # Tight enough that the longest prompts drop demonstrations.
    settings = PipelineSettings(prompt_language=language, seed=17, token_budget=190)
    shared, fresh = StreamRecorder(oracle), StreamRecorder(oracle)
    pipeline = PromptingPipeline(sentences, types, shared, settings)
    order = []
    loocv = pipeline.evaluate_loocv
    pipeline.evaluate_loocv = lambda config: order.append(config.bitmask) or loocv(config)
    dropped, calls = [], []

    def fresh_loocv(config):
        one = PromptingPipeline(
            sentences, types, fresh, settings,
            observer=lambda prompt, _: dropped.append(prompt.dropped_demos),
        )
        micro = one.evaluate_loocv(config)
        calls.append(one.backend_calls)
        return micro

    best, trace = grid_search(pipeline, acknowledge_cost=True)
    fresh_best, fresh_trace = grid_search(None, score_fn=fresh_loocv, acknowledge_cost=True)
    assert (best, trace.evaluations) == (fresh_best, fresh_trace.evaluations)
    assert trace.total_backend_calls == sum(calls)
    assert Counter(shared.stream) == Counter(fresh.stream)
    assert any(dropped) and not all(dropped)
    # The pipeline scored the twins of each main key back to back.
    mains = [pipeline._main_key(PromptConfig.from_bitmask(mask)) for mask in order]
    assert sorted(order) == list(range(512))
    assert len(list(itertools.groupby(mains))) == len(set(mains)) < 512
    # Groups in the order of their lowest mask, each ascending.
    keys = [pipeline._main_key(PromptConfig.from_bitmask(mask)) for mask in range(512)]
    lowest = {}
    for mask, key in enumerate(keys):
        lowest.setdefault(key, mask)
    assert order == sorted(range(512), key=lambda mask: (lowest[keys[mask]], mask))


def test_the_grid_parses_each_distinct_verdict_once(monkeypatch):
    sentences, types = synthetic_corpus(4, seed=31)
    oracle = make_noisy_oracle(sentences, types, seed=31, drop_prob=0.2, spurious_prob=0.3)
    pipeline = PromptingPipeline(sentences, types, oracle, PipelineSettings(seed=31))
    parsed = Counter()
    real = fewner.search.parse_verification

    def parse(completion, mention):
        parsed[completion, mention] += 1
        return real(completion, mention)

    monkeypatch.setattr(fewner.search, "parse_verification", parse)
    grid_search(pipeline, acknowledge_cost=True)
    assert parsed and set(parsed.values()) == {1}


def test_a_dropped_pipeline_needs_no_cycle_collector():
    # Memo keys hold builders and their arguments, never a store or a
    # pipeline, so reference counting alone frees a dropped pipeline and
    # its LOOCV store: a cycle would keep every memoized part alive until
    # the collector runs.
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = make_noisy_oracle(sentences, types, seed=11, drop_prob=0.2, spurious_prob=0.3)
    gc.disable()
    try:
        pipeline = PromptingPipeline(sentences, types, oracle)
        greedy_search(pipeline)
        pipeline.predict(PromptConfig(self_verification=True), sentences)
        dropped = [weakref.ref(pipeline), weakref.ref(pipeline._store)]
        del pipeline
        assert [ref() for ref in dropped] == [None, None]
    finally:
        gc.enable()


@pytest.fixture(scope="module", params=["en", "fr", "es"])
def grid_prompts(request):
    """Violations seen by an observer over one grid run per language."""
    language = request.param
    sentences, types = synthetic_corpus(5, seed=23, language=language)
    by_id = {s.id: s for s in sentences}
    oracle = make_noisy_oracle(sentences, types, seed=23, drop_prob=0.2, spurious_prob=0.3)
    seen = Counter()
    miscounted, leaked = [], []

    def observer(prompt, held_out_id):
        seen[prompt.kind] += 1
        if prompt.estimated_tokens != estimate_tokens(prompt.text):
            miscounted.append((prompt.kind, prompt.text))
        if held_out_id in prompt.demonstrations or (
            prompt.kind == "main" and prompt.text.count(by_id[held_out_id].text) != 1
        ):
            leaked.append((held_out_id, prompt.kind, prompt.demonstrations))

    pipeline = PromptingPipeline(
        sentences, types, oracle, PipelineSettings(prompt_language=language, seed=23),
        observer=observer,
    )
    grid_search(pipeline, acknowledge_cost=True)
    return seen, miscounted, leaked


def test_every_mask_estimates_tokens_of_the_whole_prompt(grid_prompts):
    seen, miscounted, _ = grid_prompts
    assert seen["main"] == 512 * 5 * 2 and seen["self_verification"] > 0
    assert miscounted == []


def test_every_mask_keeps_held_out_sentences_out_of_the_demos(grid_prompts):
    _, _, leaked = grid_prompts
    assert leaked == []


# --------------------------------------------------------------------------
# The verification request memo: one fit per distinct verification request


def _verification_texts(seen):
    return [prompt.text for prompt, _ in seen if prompt.kind == "self_verification"]


@pytest.mark.parametrize("language", ["en", "fr", "es"])
def test_the_grid_renders_each_distinct_verification_prompt_once(monkeypatch, language):
    sentences, types = synthetic_corpus(4, seed=31, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=31, drop_prob=0.2, spurious_prob=0.3)
    seen = []
    pipeline = PromptingPipeline(
        sentences, types, oracle, PipelineSettings(prompt_language=language, seed=31),
        observer=lambda *args: seen.append(args),
    )
    rendered = []
    render = fewner.search.render_verification_prompt

    def counted(*args, **kwargs):
        prompt = render(*args, **kwargs)
        rendered.append(prompt.text)
        return prompt

    monkeypatch.setattr("fewner.search.render_verification_prompt", counted)
    grid_search(pipeline, acknowledge_cost=True)
    sent_texts = _verification_texts(seen)
    assert len(rendered) == len(set(rendered)) < len(sent_texts)
    assert set(rendered) == set(sent_texts)


@pytest.mark.parametrize(
    "language, feature",
    [
        ("en", "long_verification_answer"),
        ("en", "dialogue_template"),
        ("fr", "prompt_language_native"),
        ("en", "additional_sentences"),
    ],
)
def test_a_config_that_changes_one_verification_input_sends_what_a_fresh_pipeline_does(
    language, feature
):
    # Eight sentences leave seven in each fold's pool, more than the five
    # demos a config without additional_sentences shows.
    sentences, types = synthetic_corpus(8, seed=5, language=language)
    oracle = make_noisy_oracle(sentences, types, seed=5, drop_prob=0.2, spurious_prob=0.3)
    settings = PipelineSettings(prompt_language=language, seed=5)
    config = PromptConfig(self_verification=True)
    other = config.with_features(**{feature: True})

    def last_evaluation(*configs):
        """What the last of configs, evaluated in turn on one pipeline,
        sends and shows the observer."""
        recorder, seen = StreamRecorder(oracle), []
        pipeline = PromptingPipeline(
            sentences, types, recorder, settings, observer=lambda *args: seen.append(args)
        )
        for c in configs:
            start, seen_start = len(recorder.stream), len(seen)
            pipeline.evaluate_loocv(c)
        return recorder.stream[start:], seen[seen_start:]

    sent, seen = last_evaluation(config, other)
    assert (sent, seen) == last_evaluation(other)
    assert set(_verification_texts(seen)) != set(_verification_texts(last_evaluation(config)[1]))
    assert all(held_out not in prompt.demonstrations for prompt, held_out in seen)


def _under_both_types(id_, text, *mentions):
    """A sentence whose every mention is gold under both DISO and CHEM."""
    spans = []
    for mention in mentions:
        start = text.index(mention)
        spans += [span(start, start + len(mention), t, mention) for t in ("DISO", "CHEM")]
    return sent(id_, text, spans)


def test_two_types_of_one_mention_get_their_own_verification_prompts(diso, chem):
    # Both types rank the same demos and decode the same mentions, so only
    # the type tells their verification requests apart.
    sentences = [
        _under_both_types("b1", "fever after aspirin", "fever", "aspirin"),
        _under_both_types("b2", "rash from ibuprofen today", "rash", "ibuprofen"),
        _under_both_types("b3", "cough with codeine syrup", "cough", "codeine"),
        _under_both_types("b4", "fever and rash again", "fever", "rash"),
    ]
    config = PromptConfig(self_verification=True)

    def verification_by_fold(types):
        seen = []
        backend = OracleBackend(sentences, types)
        PromptingPipeline(
            sentences, types, backend, observer=lambda *args: seen.append(args)
        ).evaluate_loocv(config)
        by_fold = defaultdict(list)
        for prompt, held_out in seen:
            assert held_out not in prompt.demonstrations
            if prompt.kind == "self_verification":
                by_fold[held_out].append(prompt)
        return by_fold

    both = verification_by_fold([diso, chem])
    alone = [verification_by_fold([t]) for t in (diso, chem)]
    assert both == {s.id: alone[0][s.id] + alone[1][s.id] for s in sentences}
    assert all(alone[0][s.id] for s in sentences)


# --------------------------------------------------------------------------
# The module globals the benchmark's tracer wraps (perfbench/tracing.py)


def test_the_traced_prompt_functions_fire_per_fit_and_render(monkeypatch):
    # The benchmark times templates by wrapping these names where their
    # callers look them up; a call routed around one would hide its cost.
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(fewner.search, "fit_to_budget")
    count(fewner.search, "render_verification_prompt")
    count(fewner.templates, "render_main_prompt")
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = make_noisy_oracle(sentences, types, seed=11, drop_prob=0.2, spurious_prob=0.3)
    seen = []
    # Tight enough that some main prompts drop demonstrations.
    pipeline = PromptingPipeline(
        sentences, types, oracle, PipelineSettings(seed=11, token_budget=130),
        observer=lambda prompt, _: seen.append(prompt),
    )
    pipeline.evaluate_loocv(PromptConfig(self_verification=True))
    main = [prompt for prompt in seen if prompt.kind == "main"]
    assert calls["fit_to_budget"] == len(main) == len(sentences) * len(types)
    assert calls["render_main_prompt"] >= calls["fit_to_budget"]
    assert any(prompt.dropped_demos for prompt in main)
    assert calls["render_verification_prompt"] >= 1
