import itertools
import random
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

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
from fewner.templates import FEATURE_NAMES, PromptConfig, estimate_tokens


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


def test_loocv_hashes_each_distinct_request_once(monkeypatch):
    hashed = []

    def counting_digest(request):
        hashed.append(request)
        return request_digest(request)

    monkeypatch.setattr("fewner.backend.request_digest", counting_digest)
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = make_noisy_oracle(sentences, types, seed=11, drop_prob=0.2, spurious_prob=0.3)
    recorder = StreamRecorder(oracle)
    pipeline = PromptingPipeline(sentences, types, recorder)
    for mask in range(1 << len(FEATURE_NAMES)):
        pipeline.evaluate_loocv(PromptConfig.from_bitmask(mask))
    assert len(hashed) == len(set(recorder.stream)) < len(recorder.stream)


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

    def wave(self, config, items, memo=None):
        results = real(self, config, items, memo)
        seen[self.backend].extend((r.spans, r.diagnostics.to_dict()) for r in results)
        return results

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
