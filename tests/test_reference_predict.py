"""PromptingPipeline.predict against the reference engine.

Test sentences mix members of the annotated sample, held out of their own
demos, with unseen sentences, some of which repeat a sample sentence's
text.  Each prediction must decode, send and show the observer exactly
what the reference (tests/reference_pipeline.py) does, wave by wave.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fewner.search
from fewner.errors import ConfigError
from fewner.search import PipelineSettings, PromptingPipeline
from fewner.templates import PromptConfig

import reference_pipeline
from reference_digest import json_digest
from test_reference_pipeline import DigestBackend, _corpus, _sentence

_FORMATS = [("tagging", "comma"), ("listing", "comma"), ("listing", "newline")]


@st.composite
def _config(draw):
    mode, separator = draw(st.sampled_from(_FORMATS))
    return PromptConfig.from_bitmask(
        draw(st.integers(0, 511)), mode=mode, listing_separator=separator,
        base_demo_count=draw(st.integers(1, 3)),
    )


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    corpus=_corpus(),
    data=st.data(),
    configs=st.lists(_config(), min_size=1, max_size=2),
    wave=st.sampled_from([1, 2, 5, 64]),
    budget=st.sampled_from([50, 90, 140, 4096]),
    seed=st.integers(0, 3),
    max_new_tokens=st.sampled_from([None, 7]),
)
def test_predict_matches_the_reference(corpus, data, configs, wave, budget, seed, max_new_tokens):
    language, types, sentences = corpus
    type_ids = tuple(t.id for t in types)
    unseen = [
        data.draw(_sentence(len(sentences) + i, language, type_ids))
        for i in range(data.draw(st.integers(0, 3)))
    ]
    # An unseen id with the text of a sample sentence.
    pool = sentences + [replace(sentences[0], id="t0")] + unseen
    tests = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique_by=lambda s: s.id)
    )
    pipeline_settings = PipelineSettings(
        prompt_language=language, token_budget=budget, max_new_tokens=max_new_tokens, seed=seed,
    )
    texts = [s.text for s in pool]
    backend, reference_backend = DigestBackend(texts), DigestBackend(texts)
    shown, issued, results = [], [], []
    pipeline = PromptingPipeline(
        sentences, types, backend, pipeline_settings, observer=lambda *args: shown.append(args)
    )
    send, annotate = pipeline._send, pipeline._annotate_wave

    def logged_send(requests):
        issued.extend(requests)
        return send(requests)

    def logged_wave(*args, **kwargs):
        done = annotate(*args, **kwargs)
        results.extend((r.spans, r.diagnostics.to_dict()) for r in done.results)
        return done

    pipeline._send, pipeline._annotate_wave = logged_send, logged_wave
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fewner.search, "PREDICT_WAVE", wave)
        for config in configs:
            try:
                expected = reference_pipeline.predict(
                    sentences, types, reference_backend, pipeline_settings, config, tests
                )
            except ConfigError:
                with pytest.raises(ConfigError):
                    pipeline.predict(config, tests)
                return
            del shown[:], issued[:], results[:]
            calls = pipeline.backend_calls
            predictions = pipeline.predict(config, tests)
            assert results == expected.results, config
            items = [(s.id, t.id) for s in tests for t in types]
            assert [predictions.spans_for(*item) for item in items] == [
                spans for spans, _ in expected.results
            ]
            assert [r.digest for r in issued] == [json_digest(r) for r in expected.requests]
            assert issued == expected.requests
            assert pipeline.backend_calls - calls == len(expected.requests)
            assert shown == expected.shown, config
