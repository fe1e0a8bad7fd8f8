import dataclasses
import hashlib
import json
import logging
import os
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CallCounter, MemoryCache, sent, span
from reference_digest import json_digest
from fewner.backend import (
    CachedBackend,
    DiskCache,
    EchoBackend,
    GenerationRecord,
    GenerationRequest,
    HttpCompletionBackend,
    NoisyOracleBackend,
    OracleBackend,
    make_noisy_oracle,
    request_digest,
    truncate_at_stop,
)
from fewner.decode import (
    VERDICT_ACCEPT,
    VERDICT_REJECT,
    decode_listing,
    decode_tagged,
    parse_verification,
)
from fewner.errors import ConfigError, ProtocolError, TransportError
from fewner.search import PipelineSettings, PromptingPipeline, grid_search
from fewner.synthetic import synthetic_corpus
from fewner.templates import (
    PromptConfig,
    fragments_for,
    outermost_spans,
    render_main_prompt,
    render_verification_prompt,
    tag_sentence,
)


def req(prompt, **kwargs):
    kwargs.setdefault("max_new_tokens", 64)
    return GenerationRequest(prompt=prompt, **kwargs)


# --------------------------------------------------------------------------
# Digests and stop sequences

def test_request_digest_pinned():
    # Digests name disk cache files, so a change here orphans old caches.
    pinned = {
        GenerationRequest("Input: x\nOutput:", 32, 0.0, ("\nInput:",), "m1"):
            "d363d3ee481d3526506c7a804664860ae69955ea7d529b5a991a4527ef259138",
        GenerationRequest(
            "Tag diseases with @@ and ##.\nInput: Fièvre \"aiguë\" \\ café\nOutput:",
            40, 0.0, ("\nInput:",), "m",
        ): "de22b670c6a8eeed826694ceda19feb032a537b59838436e266ed1c01b1e6571",
        GenerationRequest("x", 40, 0, (), ""):
            "671a8a3ce441e9c6f985a121d5639ab7068be0f29116f530316592f15002ef10",
    }
    for request, digest in pinned.items():
        assert request_digest(request) == digest, request


# Quotes, backslashes, control and line-separator characters, non-ASCII
# letters, lone surrogates and any other character JSON can encode.
_TRICKY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é€😀\ud800\udfff'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=30,
)


@given(
    prompt=_TRICKY_TEXT,
    model_name=_TRICKY_TEXT,
    stops=st.lists(_TRICKY_TEXT, max_size=3),
    max_new_tokens=st.integers(),
    temperature=st.one_of(st.floats(), st.integers()),
)
def test_request_digest_matches_the_json_reference(
    prompt, model_name, stops, max_new_tokens, temperature
):
    request = GenerationRequest(prompt, max_new_tokens, temperature, tuple(stops), model_name)
    assert request_digest(request) == json_digest(request)


class _Text(str):
    pass


# Values json.dumps writes differently from repr, or that only it accepts.
@pytest.mark.parametrize("change", [
    {"temperature": True},
    {"temperature": float("nan")},
    {"temperature": -float("inf")},
    {"max_new_tokens": True},
    {"max_new_tokens": 40.0},
    {"stop_sequences": ["\nInput:"]},
    {"stop_sequences": ("\nInput:", 7)},
    {"prompt": _Text("Input: x\nOutput:")},
])
def test_request_digest_of_other_field_types_matches_the_json_reference(change):
    base = GenerationRequest("Input: x\nOutput:", 40, 0.0, (), "m")
    request = dataclasses.replace(base, **change)
    assert request_digest(request) == json_digest(request)


def test_request_digest_hashes_lone_surrogates():
    # A server's "\ud800" escape decodes to a lone surrogate, which plain
    # UTF-8 cannot encode; the canonical JSON is encoded with surrogatepass.
    request = GenerationRequest("Input: a \ud800 b\nOutput:", 32, 0.0, ("\nInput:",), "m")
    blob = json.dumps(
        {
            "max_new_tokens": 32, "model_name": "m", "prompt": request.prompt,
            "stop_sequences": ["\nInput:"], "temperature": 0.0,
        },
        sort_keys=True, ensure_ascii=False,
    )
    expected = hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()
    assert request_digest(request) == expected
    # The json.dumps path agrees, and other surrogates hash apart.
    assert request_digest(dataclasses.replace(request, temperature=False)) == json_digest(
        dataclasses.replace(request, temperature=False)
    )
    other = dataclasses.replace(request, prompt="Input: a \udfff b\nOutput:")
    assert request_digest(other) != request_digest(request)


def test_request_digest_covers_every_field():
    base = GenerationRequest("p", 32, 0.0, ("s",), "m")
    seen = {request_digest(base)}
    for change in (
        {"prompt": "q"},
        {"max_new_tokens": 33},
        {"temperature": 0.5},
        {"stop_sequences": ("s", "t")},
        {"stop_sequences": ()},
        {"model_name": "n"},
    ):
        digest = request_digest(dataclasses.replace(base, **change))
        assert digest not in seen, change
        seen.add(digest)


def test_request_digest_ignores_a_carried_digest():
    request = GenerationRequest("p", 32, 0.0, ("s",), "m")
    carrying = dataclasses.replace(request, digest="0" * 64)
    assert request_digest(carrying) == request_digest(request) == json_digest(request)
    assert carrying == request and hash(carrying) == hash(request)
    assert "0" * 64 not in repr(carrying)


def test_truncate_at_stop_cuts_earliest():
    assert truncate_at_stop("a\nInput: b\n- c", ("\n-", "\nInput:")) == "a"
    assert truncate_at_stop("clean", ("\nInput:",)) == "clean"
    assert truncate_at_stop("clean", ()) == "clean"


# --------------------------------------------------------------------------
# HTTP backend against scripted transports

class ScriptedTransport:
    """Plays back a list of (status, body) or exceptions, recording calls."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, headers, payload, timeout_s):
        self.calls.append({"url": url, "headers": headers, "payload": payload})
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def ok_body(text):
    return 200, json.dumps({"choices": [{"text": text}]})


def test_http_success_and_payload_shape():
    transport = ScriptedTransport([ok_body("He has @@x##.")])
    backend = HttpCompletionBackend("http://srv:8000/", api_key="k1", transport=transport)
    request = GenerationRequest(
        "Input: He has x.\nOutput:", 64, 0.0, ("\nInput:",), model_name="m1"
    )
    assert backend.generate(request) == "He has @@x##."
    call = transport.calls[0]
    assert call["url"] == "http://srv:8000/v1/completions"
    assert call["headers"]["Authorization"] == "Bearer k1"
    assert call["payload"] == {
        "model": "m1",
        "prompt": "Input: He has x.\nOutput:",
        "max_tokens": 64,
        "temperature": 0.0,
        "stop": ["\nInput:"],
    }
    assert backend.backend_id == "http:http://srv:8000"


def test_http_no_auth_header_without_key():
    transport = ScriptedTransport([ok_body("y")])
    HttpCompletionBackend("http://srv", transport=transport).generate(req("p"))
    assert "Authorization" not in transport.calls[0]["headers"]


def test_http_truncates_client_side():
    transport = ScriptedTransport([ok_body("answer\nInput: hallucinated turn")])
    backend = HttpCompletionBackend("http://srv", transport=transport)
    got = backend.generate(req("p", stop_sequences=("\nInput:",)))
    assert got == "answer"


def test_http_retries_429_then_succeeds():
    transport = ScriptedTransport([(429, "busy"), ok_body("fine")])
    backend = HttpCompletionBackend("http://srv", transport=transport, backoff_s=0.0)
    assert backend.generate(req("p")) == "fine"
    assert len(transport.calls) == 2


def test_http_retries_transport_errors():
    transport = ScriptedTransport([TransportError("conn reset"), ok_body("fine")])
    backend = HttpCompletionBackend("http://srv", transport=transport, backoff_s=0.0)
    assert backend.generate(req("p")) == "fine"


def test_http_gives_up_after_max_retries():
    transport = ScriptedTransport([(500, "boom")] * 3)
    backend = HttpCompletionBackend(
        "http://srv", transport=transport, max_retries=2, backoff_s=0.0
    )
    with pytest.raises(ProtocolError) as err:
        backend.generate(req("p"))
    assert err.value.status == 500
    assert len(transport.calls) == 3


def test_http_transport_exhaustion_raises_last_error():
    transport = ScriptedTransport([TransportError("a"), TransportError("b")])
    backend = HttpCompletionBackend(
        "http://srv", transport=transport, max_retries=1, backoff_s=0.0
    )
    with pytest.raises(TransportError, match="b"):
        backend.generate(req("p"))


def test_http_client_errors_fail_immediately():
    transport = ScriptedTransport([(400, "bad request body")])
    backend = HttpCompletionBackend("http://srv", transport=transport, backoff_s=0.0)
    with pytest.raises(ProtocolError) as err:
        backend.generate(req("p"))
    assert err.value.status == 400
    assert "bad request" in err.value.body_excerpt
    assert len(transport.calls) == 1


@pytest.mark.parametrize(
    "body",
    ["not json", "[]", json.dumps({"choices": []}), json.dumps({"choices": [{"text": 5}]})],
)
def test_http_malformed_bodies_raise_protocol_error(body):
    backend = HttpCompletionBackend(
        "http://srv", transport=ScriptedTransport([(200, body)])
    )
    with pytest.raises(ProtocolError):
        backend.generate(req("p"))


def test_http_requires_base_url():
    with pytest.raises(ConfigError):
        HttpCompletionBackend("")


def test_http_from_env(monkeypatch):
    monkeypatch.delenv("FEWNER_API_BASE", raising=False)
    with pytest.raises(ConfigError, match="FEWNER_API_BASE"):
        HttpCompletionBackend.from_env()
    monkeypatch.setenv("FEWNER_API_BASE", "http://srv:9/")
    monkeypatch.setenv("FEWNER_API_KEY", "sekrit")
    backend = HttpCompletionBackend.from_env()
    assert backend.base_url == "http://srv:9"
    assert backend.api_key == "sekrit"
    assert backend.backend_id == "http:http://srv:9"


# --------------------------------------------------------------------------
# Echo backend

def test_echo_returns_test_slot_classic_and_dialogue(diso):
    d1 = sent("d1", "He has diabetes.", [span(7, 15, "DISO", "diabetes")])
    classic = render_main_prompt(PromptConfig(), diso, [d1], "She is well.", "en")
    assert EchoBackend().generate(req(classic.text)) == "She is well."
    dialogue = render_main_prompt(
        PromptConfig(dialogue_template=True), diso, [d1], "She is well.", "es"
    )
    assert EchoBackend().generate(req(dialogue.text)) == "She is well."


def test_echo_decodes_to_zero_spans(diso):
    d1 = sent("d1", "He has diabetes.", [span(7, 15, "DISO", "diabetes")])
    prompt = render_main_prompt(PromptConfig(), diso, [d1], "She is well.", "en")
    completion = EchoBackend().generate(req(prompt.text))
    result = decode_tagged(completion, "She is well.", PromptConfig().tag_pair, "DISO")
    assert result.spans == ()


# --------------------------------------------------------------------------
# Oracle backend

@pytest.fixture(scope="module")
def corpora():
    out = {}
    for lang in ("en", "fr", "es"):
        out[lang] = synthetic_corpus(12, seed=5, language=lang, type_ids=("DISO", "CHEM"))
    return out


def _pool_with_mentions(sentences, type_id):
    return [s for s in sentences if s.spans_of(type_id)]


@pytest.mark.parametrize("lang", ["en", "fr", "es"])
def test_oracle_tags_gold_spans(corpora, registry, lang):
    sentences, types = corpora[lang]
    oracle = OracleBackend(sentences, types)
    target = _pool_with_mentions(sentences, "DISO")[0]
    demos = [s for s in sentences if s.id != target.id][:3]
    prompt = render_main_prompt(PromptConfig(), registry["DISO"], demos, target.text, lang)
    answer = oracle.generate(req(prompt.text))
    assert answer == tag_sentence(target.text, target.spans_of("DISO"), PromptConfig().tag_pair)
    decoded = decode_tagged(answer, target.text, PromptConfig().tag_pair, "DISO")
    assert set((s.start, s.end) for s in decoded.spans) == set(
        (s.start, s.end) for s in target.spans_of("DISO")
    )


@pytest.mark.parametrize("lang", ["en", "fr", "es"])
def test_oracle_lists_gold_mentions_comma(corpora, registry, lang):
    sentences, types = corpora[lang]
    oracle = OracleBackend(sentences, types)
    target = _pool_with_mentions(sentences, "CHEM")[0]
    demos = [s for s in sentences if s.id != target.id][:3]
    config = PromptConfig(mode="listing")
    prompt = render_main_prompt(config, registry["CHEM"], demos, target.text, lang)
    answer = oracle.generate(req(prompt.text))
    assert answer == ", ".join(s.mention for s in target.spans_of("CHEM"))
    decoded = decode_listing(answer, target.text, "comma", "CHEM")
    assert set((s.start, s.end) for s in decoded.spans) == set(
        (s.start, s.end) for s in target.spans_of("CHEM")
    )


def test_oracle_newline_listing_via_named_separator(registry):
    sentences, types = synthetic_corpus(30, seed=6, max_mentions=4)
    oracle = OracleBackend(sentences, types)
    target = [s for s in sentences if len(s.spans_of("DISO")) >= 2][0]
    demos = [s for s in sentences if s.id != target.id][:3]
    config = PromptConfig(mode="listing", listing_separator="newline")
    prompt = render_main_prompt(config, registry["DISO"], demos, target.text, "en")
    answer = oracle.generate(req(prompt.text))
    assert answer == "\n".join(s.mention for s in target.spans_of("DISO"))


def test_oracle_handles_persona_listing_prompts(corpora, registry):
    # Persona headers replace the listing task line, so mode detection must
    # fall back to the demo outputs.
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    target = _pool_with_mentions(sentences, "DISO")[0]
    rich = [s for s in sentences if s.id != target.id and s.spans_of("DISO")][:2]
    poor = [s for s in sentences if s.id != target.id and not s.spans_of("DISO")][:2]
    config = PromptConfig(mode="listing", specialist_persona=True)
    for demos in (rich, poor, rich + poor):
        prompt = render_main_prompt(config, registry["DISO"], demos, target.text, "en")
        answer = oracle.generate(req(prompt.text))
        assert answer == ", ".join(s.mention for s in target.spans_of("DISO")), demos


def test_oracle_reads_untagged_persona_demos_as_tagging(corpora, registry):
    # No tag and no task line: demo outputs that repeat their inputs can
    # only come from tagging, so the answer is the sentence, untagged.
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    poor = [s for s in sentences if not s.spans_of("DISO")]
    target, demos = poor[0], poor[1:3]
    config = PromptConfig(specialist_persona=True)
    prompt = render_main_prompt(config, registry["DISO"], demos, target.text, "en")
    assert "@@" not in prompt.text
    assert oracle.generate(req(prompt.text)) == target.text


def test_oracle_tagging_with_all_decorations(corpora, registry):
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    target = _pool_with_mentions(sentences, "DISO")[0]
    demos = [s for s in sentences if s.id != target.id][:2]
    config = PromptConfig(
        specialist_persona=True,
        label_definitions=True,
        intro_sentence=True,
        alt_taggers=True,
        dialogue_template=True,
    )
    prompt = render_main_prompt(config, registry["DISO"], demos, target.text, "en")
    answer = oracle.generate(req(prompt.text))
    assert answer == tag_sentence(target.text, target.spans_of("DISO"), config.tag_pair)


def test_oracle_empty_sentence_answers(corpora, registry):
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    target = [s for s in sentences if not s.spans][0]
    demos = [s for s in sentences if s.id != target.id][:2]
    tag_prompt = render_main_prompt(PromptConfig(), registry["DISO"], demos, target.text, "en")
    assert oracle.generate(req(tag_prompt.text)) == target.text
    list_prompt = render_main_prompt(
        PromptConfig(mode="listing"), registry["DISO"], demos, target.text, "en"
    )
    assert oracle.generate(req(list_prompt.text)) == ""


@pytest.mark.parametrize("lang", ["en", "fr", "es"])
def test_oracle_verification_answers_match_gold(corpora, registry, lang):
    sentences, types = corpora[lang]
    oracle = OracleBackend(sentences, types)
    target = _pool_with_mentions(sentences, "DISO")[0]
    gold = target.spans_of("DISO")[0].mention
    non_mention = target.text.split()[0]
    assert non_mention not in {s.mention for s in target.spans}
    other = _pool_with_mentions([s for s in sentences if s.id != target.id], "DISO")[0]
    vdemos = [
        (other, other.spans_of("DISO")[0].mention, True),
        (other, other.text.split()[0], False),
    ]
    config = PromptConfig(self_verification=True)
    for mention, verdict in ((gold, VERDICT_ACCEPT), (non_mention, VERDICT_REJECT)):
        prompt = render_verification_prompt(
            config, registry["DISO"], mention, target.text, vdemos, lang
        )
        answer = oracle.generate(req(prompt.text))
        assert parse_verification(answer) == verdict, (lang, mention, answer)


def test_oracle_verification_checks_requested_type(corpora, registry):
    # A gold DISO mention is not a CHEM mention, and the question names CHEM.
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    target = _pool_with_mentions(sentences, "DISO")[0]
    gold = target.spans_of("DISO")[0].mention
    other = _pool_with_mentions([s for s in sentences if s.id != target.id], "CHEM")[0]
    vdemos = [
        (other, other.spans_of("CHEM")[0].mention, True),
        (other, other.text.split()[0], False),
    ]
    prompt = render_verification_prompt(
        PromptConfig(self_verification=True), registry["CHEM"], gold, target.text, vdemos, "en"
    )
    assert parse_verification(oracle.generate(req(prompt.text))) == VERDICT_REJECT


@pytest.mark.parametrize("separator", ["comma", "newline"])
def test_oracle_reads_the_listing_format_from_the_intro_line(corpora, registry, separator):
    # A persona header names no mode, and with no demos left (a tight token
    # budget drops them all) only the intro line says that a list is wanted.
    config = PromptConfig(
        mode="listing", listing_separator=separator, specialist_persona=True,
        intro_sentence=True, prompt_language_native=True,
    )
    for lang in ("en", "fr", "es"):
        sentences, types = corpora[lang]
        target = max(sentences, key=lambda s: len(s.spans_of("CHEM")))
        prompt = render_main_prompt(
            config, registry["CHEM"], [], target.text, lang, allow_empty_demos=True
        )
        want = config.separator_string().join(s.mention for s in target.spans_of("CHEM"))
        assert OracleBackend(sentences, types).generate(req(prompt.text)) == want, lang


def _format_unreadable(config, demos, type_id):
    """Whether a main prompt's text gives no evidence of its answer format:
    a persona header, no intro, and either no demos, alt taggers with no
    tagged demo, or the newline separator."""
    if not config.specialist_persona or config.intro_sentence:
        return False
    if not demos or config.mode == "listing" and config.listing_separator == "newline":
        return True
    return (
        config.mode == "tagging"
        and config.alt_taggers
        and not any(d.spans_of(type_id) for d in demos)
    )


def test_oracle_answers_every_prompt_the_templates_write(corpora, registry):
    # Spec over all 512 masks x 3 formats x 3 languages, with and without
    # demos: the main answer is the gold one in the config's format, and the
    # verification answer is Yes or No by gold membership.
    entity_type = registry["CHEM"]
    checked = 0
    for lang in ("en", "fr", "es"):
        sentences, types = corpora[lang]
        oracle = OracleBackend(sentences, types)
        target = max(sentences, key=lambda s: len(s.spans_of("CHEM")))
        gold = outermost_spans(target.spans_of("CHEM"))
        assert len(gold) >= 2
        others = [s for s in sentences if s.id != target.id]
        rich = [s for s in others if s.spans_of("CHEM")]
        poor = [s for s in others if not s.spans_of("CHEM")]
        demos = [rich[0], poor[0]]
        vdemos = [(rich[0], rich[0].spans_of("CHEM")[0].mention, True), (poor[0], "xyz", False)]
        candidates = [(sp.mention, True) for sp in gold] + [(target.text.split()[0], False)]
        memo = {}
        for mask in range(512):
            for mode, separator in (("tagging", "comma"), ("listing", "comma"), ("listing", "newline")):
                config = PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator)
                language = lang if config.prompt_language_native else "en"
                if mode == "tagging":
                    want = tag_sentence(target.text, gold, config.tag_pair)
                else:
                    want = config.separator_string().join(sp.mention for sp in gold)
                for shown in ([], demos):
                    if _format_unreadable(config, shown, "CHEM"):
                        continue
                    prompt = render_main_prompt(
                        config, entity_type, shown, target.text, language,
                        allow_empty_demos=True, memo=memo,
                    )
                    got = oracle.generate(req(prompt.text))
                    assert got == want, (lang, mask, mode, separator, len(shown))
                    checked += 1
            config = PromptConfig.from_bitmask(mask)
            if not config.self_verification:
                continue
            language = lang if config.prompt_language_native else "en"
            for mention, is_gold in candidates:
                prompt = render_verification_prompt(
                    config, entity_type, mention, target.text, vdemos, language, memo=memo
                )
                want = fragments_for(language)["answer_yes" if is_gold else "answer_no"]
                assert oracle.generate(req(prompt.text)) == want, (lang, mask, mention)
                checked += 1
    assert checked > 3 * 512 * 5


def test_oracle_rejects_duplicate_texts(corpora):
    sentences, types = corpora["en"]
    twin = dataclasses.replace(sentences[0], id="twin")
    with pytest.raises(ConfigError, match="unique sentence texts"):
        OracleBackend(list(sentences) + [twin], types)


def test_oracle_rejects_unknown_sentence(corpora, registry):
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    demos = sentences[:2]
    prompt = render_main_prompt(
        PromptConfig(), registry["DISO"], demos, "Never seen before.", "en"
    )
    with pytest.raises(ConfigError, match="does not know"):
        oracle.generate(req(prompt.text))


def test_oracle_rejects_unknown_entity_type_line(corpora):
    sentences, types = corpora["en"]
    oracle = OracleBackend(sentences, types)
    with pytest.raises(ConfigError, match="no known entity type"):
        oracle.generate(req("Find all the widgets here:\nInput: x\nOutput:"))


# --------------------------------------------------------------------------
# Noisy oracle

def _tagging_answer(oracle, registry, sentences, target, lang="en"):
    demos = [s for s in sentences if s.id != target.id][:3]
    prompt = render_main_prompt(PromptConfig(), registry["DISO"], demos, target.text, lang)
    return oracle.generate(req(prompt.text))


def test_noisy_oracle_validates_probabilities(corpora):
    sentences, types = corpora["en"]
    with pytest.raises(ConfigError):
        NoisyOracleBackend(sentences, types, seed=1, drop_prob=1.5)
    with pytest.raises(ConfigError):
        NoisyOracleBackend(sentences, types, seed=1, spurious_prob=-0.1)


def test_noisy_oracle_extremes(corpora, registry):
    sentences, types = corpora["en"]
    target = _pool_with_mentions(sentences, "DISO")[0]
    all_drop = make_noisy_oracle(sentences, types, seed=9, drop_prob=1.0)
    assert _tagging_answer(all_drop, registry, sentences, target) == target.text
    no_drop = make_noisy_oracle(sentences, types, seed=9, drop_prob=0.0)
    assert _tagging_answer(no_drop, registry, sentences, target) == tag_sentence(
        target.text, target.spans_of("DISO"), PromptConfig().tag_pair
    )


def test_noisy_oracle_is_call_order_independent(corpora, registry):
    sentences, types = corpora["en"]
    targets = _pool_with_mentions(sentences, "DISO")
    first = make_noisy_oracle(sentences, types, seed=77, drop_prob=0.5)
    second = make_noisy_oracle(sentences, types, seed=77, drop_prob=0.5)
    forward = {t.id: _tagging_answer(first, registry, sentences, t) for t in targets}
    backward = {
        t.id: _tagging_answer(second, registry, sentences, t) for t in reversed(targets)
    }
    assert forward == backward
    # And repeatable within one instance.
    for t in targets:
        assert _tagging_answer(first, registry, sentences, t) == forward[t.id]


class Transcript:
    """Keeps the first answer the wrapped backend gave to each prompt."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.answers: dict[str, str] = {}

    def generate(self, request):
        answer = self.inner.generate(request)
        self.answers.setdefault(request.prompt, answer)
        return answer


@pytest.mark.parametrize("mode, separator", [
    ("tagging", "comma"), ("listing", "comma"), ("listing", "newline"),
])
def test_noisy_oracle_answers_a_grid_as_a_fresh_oracle_does(mode, separator):
    # The oracle keeps answered spans per sentence and type and reads demo
    # turns only when the header, the intro and the tags leave the mode
    # open; neither may change an answer.
    sentences, types = synthetic_corpus(5, seed=29)

    def oracle():
        return make_noisy_oracle(sentences, types, seed=29, drop_prob=0.3, spurious_prob=0.4)

    transcript = Transcript(oracle())
    pipeline = PromptingPipeline(sentences, types, transcript, PipelineSettings(seed=29))
    grid_search(
        pipeline, PromptConfig(mode=mode, listing_separator=separator), acknowledge_cost=True
    )
    assert len(transcript.answers) > 100
    for prompt, answer in transcript.answers.items():
        assert oracle().generate(req(prompt)) == answer


def test_noisy_oracle_seed_changes_answers(corpora, registry):
    sentences, types = corpora["en"]
    targets = _pool_with_mentions(sentences, "DISO")
    a = make_noisy_oracle(sentences, types, seed=1, drop_prob=0.5)
    b = make_noisy_oracle(sentences, types, seed=2, drop_prob=0.5)
    answers_a = [_tagging_answer(a, registry, sentences, t) for t in targets]
    answers_b = [_tagging_answer(b, registry, sentences, t) for t in targets]
    assert answers_a != answers_b


def test_noisy_oracle_drops_are_a_gold_subset(corpora, registry):
    sentences, types = corpora["en"]
    noisy = make_noisy_oracle(sentences, types, seed=3, drop_prob=0.4, spurious_prob=0.0)
    kept = 0
    total = 0
    for target in _pool_with_mentions(sentences, "DISO"):
        answer = _tagging_answer(noisy, registry, sentences, target)
        decoded = decode_tagged(answer, target.text, PromptConfig().tag_pair, "DISO")
        gold = {(s.start, s.end) for s in target.spans_of("DISO")}
        got = {(s.start, s.end) for s in decoded.spans}
        assert got <= gold
        kept += len(got)
        total += len(gold)
    assert kept < total  # at drop_prob=0.4 over this corpus something must drop


def test_noisy_oracle_spurious_spans_avoid_gold(corpora, registry):
    sentences, types = corpora["en"]
    noisy = make_noisy_oracle(sentences, types, seed=4, drop_prob=0.0, spurious_prob=1.0)
    saw_spurious = False
    for target in sentences:
        answer = _tagging_answer(noisy, registry, sentences, target)
        decoded = decode_tagged(answer, target.text, PromptConfig().tag_pair, "DISO")
        gold = {(s.start, s.end) for s in target.spans_of("DISO")}
        extra = {(s.start, s.end) for s in decoded.spans} - gold
        assert len(extra) <= 1
        for start, end in extra:
            saw_spurious = True
            assert not any(s.start < end and start < s.end for s in target.spans_of("DISO"))
    assert saw_spurious


def test_noisy_oracle_verification_stays_truthful(corpora, registry):
    sentences, types = corpora["en"]
    noisy = make_noisy_oracle(sentences, types, seed=5, drop_prob=1.0)
    target = _pool_with_mentions(sentences, "DISO")[0]
    other = _pool_with_mentions([s for s in sentences if s.id != target.id], "DISO")[0]
    vdemos = [
        (other, other.spans_of("DISO")[0].mention, True),
        (other, other.text.split()[0], False),
    ]
    prompt = render_verification_prompt(
        PromptConfig(self_verification=True), registry["DISO"],
        target.spans_of("DISO")[0].mention, target.text, vdemos, "en",
    )
    assert parse_verification(noisy.generate(req(prompt.text))) == VERDICT_ACCEPT


# --------------------------------------------------------------------------
# Caching wrapper

def test_cached_backend_deduplicates():
    counting = CallCounter(EchoBackend())
    cache = MemoryCache()
    cached = CachedBackend(counting, cache)
    assert cached.backend_id == "cached:echo"
    first = cached.generate(req("Input: a b.\nOutput:"))
    second = cached.generate(req("Input: a b.\nOutput:"))
    assert first == second == "a b."
    assert counting.calls == 1
    # A miss reads the store once.
    assert cache.hits == 1 and cache.misses == 1
    cached.generate(req("Input: c.\nOutput:"))
    assert counting.calls == 2
    assert len(cache) == 2


def test_cached_backend_records_metadata():
    cache = MemoryCache()
    cached = CachedBackend(EchoBackend(), cache)
    request = req("Input: a.\nOutput:")
    cached.generate(request)
    record = cache.get(request_digest(request))
    assert record.request_hash == request_digest(request)
    assert record.backend_id == "echo"
    assert record.completion == "a."
    assert record.latency_s >= 0.0


def test_cached_backend_hashes_only_a_request_without_a_digest(monkeypatch):
    hashed = []

    def counting_digest(request):
        hashed.append(request)
        return request_digest(request)

    monkeypatch.setattr("fewner.backend.request_digest", counting_digest)
    cache = MemoryCache()
    cached = CachedBackend(EchoBackend(), cache)
    bare = req("Input: a.\nOutput:")
    assert cached.generate(bare) == "a."
    assert hashed == [bare]
    assert cache.get(request_digest(bare)).completion == "a."
    # A carried digest is the key as it stands: nothing is hashed.
    carrying = req("Input: b.\nOutput:", digest="f" * 64)
    assert cached.generate(carrying) == "b."
    assert hashed == [bare]
    assert cache.get("f" * 64).request_hash == "f" * 64


def test_disk_cache_round_trip(tmp_path):
    cached = CachedBackend(EchoBackend(), DiskCache(tmp_path / "gen"))
    request = req("Input: persisted.\nOutput:")
    cached.generate(request)
    assert len(list((tmp_path / "gen").glob("*.json"))) == 1
    # A fresh cache over the same directory serves the stored completion.
    counting = CallCounter(EchoBackend())
    again = CachedBackend(counting, DiskCache(tmp_path / "gen"))
    assert again.generate(request) == "persisted."
    assert counting.calls == 0


@pytest.mark.parametrize("probe", ["exists", "read_text"])
def test_disk_cache_treats_an_entry_removed_before_its_read_as_a_miss(
    tmp_path, monkeypatch, probe
):
    cache = DiskCache(tmp_path)
    key = "c" * 64
    record = GenerationRecord(
        request_hash=key, completion="x", latency_s=0.1, backend_id="echo", timestamp=1.0
    )
    cache.put(key, record)
    entry = tmp_path / f"{key}.json"
    real = getattr(Path, probe)

    def vanish_then_probe(self, *args, **kwargs):
        # Another process removes the entry just before this probe of it;
        # every other path is left alone.
        if self == entry:
            os.remove(entry)
            if probe == "exists":
                return True
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, probe, vanish_then_probe)
    try:
        got = cache.get(key)  # must not raise
    finally:
        monkeypatch.undo()
    # Whatever is gone by the time of the read is a miss.
    assert got is None or got == record and entry.is_file()


def test_disk_cache_stores_a_lone_surrogate(tmp_path):
    request = req("Input: a \ud800 b.\nOutput:")
    assert CachedBackend(EchoBackend(), DiskCache(tmp_path)).generate(request) == "a \ud800 b."
    [entry] = tmp_path.iterdir()
    assert entry.suffix == ".json" and entry.read_bytes().isascii()
    counting = CallCounter(EchoBackend())
    assert CachedBackend(counting, DiskCache(tmp_path)).generate(request) == "a \ud800 b."
    assert counting.calls == 0


def test_disk_cache_put_that_fails_leaves_no_temp_file(tmp_path, monkeypatch):
    record = GenerationRecord(
        request_hash="d" * 64, completion="x", latency_s=0.1, backend_id="echo", timestamp=1.0
    )

    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    try:
        with pytest.raises(OSError, match="disk full"):
            DiskCache(tmp_path).put(record.request_hash, record)
    finally:
        monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_disk_cache_ignores_corrupt_entries(tmp_path, caplog):
    cache = DiskCache(tmp_path)
    key = "0" * 64
    (tmp_path / f"{key}.json").write_text("not json", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert cache.get(key) is None
    assert "corrupt cache entry" in caplog.text
    (tmp_path / f"{key}.json").write_text("[]", encoding="utf-8")
    assert cache.get(key) is None
    # A put then repairs the slot.
    record = GenerationRecord(
        request_hash=key, completion="x", latency_s=0.1, backend_id="echo", timestamp=1.0
    )
    cache.put(key, record)
    assert cache.get(key) == record


@pytest.mark.parametrize("completion", [5, None, ["x"]])
def test_disk_cache_treats_a_non_string_completion_as_corrupt(tmp_path, caplog, completion):
    request = req("Input: stored.\nOutput:")
    key = request_digest(request)
    (tmp_path / f"{key}.json").write_text(
        json.dumps({
            "request_hash": key, "completion": completion, "latency_s": 0.1,
            "backend_id": "echo", "timestamp": 1.0,
        }),
        encoding="utf-8",
    )
    cache = DiskCache(tmp_path)
    with caplog.at_level(logging.WARNING):
        assert cache.get(key) is None
    assert "corrupt cache entry" in caplog.text
    # The miss reaches the model, and its answer overwrites the entry.
    assert CachedBackend(EchoBackend(), cache).generate(request) == "stored."
    assert cache.get(key).completion == "stored."


def test_disk_cache_rejects_a_record_filed_under_another_key(tmp_path, caplog):
    request = req("Input: filed.\nOutput:")
    key = request_digest(request)
    foreign = GenerationRecord(
        request_hash="1" * 64, completion="wrong", latency_s=0.1, backend_id="echo", timestamp=1.0
    )
    cache = DiskCache(tmp_path)
    cache.put(key, foreign)
    with caplog.at_level(logging.WARNING):
        assert cache.get(key) is None
    assert "corrupt cache entry" in caplog.text
    # The miss reaches the model, and its answer overwrites the slot.
    assert CachedBackend(EchoBackend(), cache).generate(request) == "filed."
    assert cache.get(key).request_hash == key


def test_disk_cache_writers_do_not_share_a_temp_file(tmp_path, monkeypatch):
    key = "a" * 64
    mine, theirs = (
        GenerationRecord(
            request_hash=key, completion=text, latency_s=0.1, backend_id="echo", timestamp=1.0
        )
        for text in ("mine", "theirs")
    )
    other = DiskCache(tmp_path)  # another process sharing the directory
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        # The other writer stores the same key between our write and rename.
        calls.append(src)
        if len(calls) == 1:
            other.put(key, theirs)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    DiskCache(tmp_path).put(key, mine)
    assert len(calls) == 2 and calls[0] != calls[1]
    assert DiskCache(tmp_path).get(key) == mine  # the last rename wins
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_disk_cache_reads_an_entry_in_the_old_indented_layout(tmp_path):
    request = req("Input: kept.\nOutput:")
    key = request_digest(request)
    payload = {
        "request_hash": key, "completion": "old.", "latency_s": 0.5,
        "backend_id": "echo", "timestamp": 2.0,
    }
    (tmp_path / f"{key}.json").write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2), encoding="utf-8"
    )
    assert DiskCache(tmp_path).get(key) == GenerationRecord(**payload)
    counting = CallCounter(EchoBackend())
    assert CachedBackend(counting, DiskCache(tmp_path)).generate(request) == "old."
    assert counting.calls == 0


def test_disk_cache_writes_compact_json(tmp_path):
    record = GenerationRecord(
        request_hash="b" * 64, completion="é\n", latency_s=0.1, backend_id="echo", timestamp=1.0
    )
    DiskCache(tmp_path).put(record.request_hash, record)
    text = (tmp_path / f"{record.request_hash}.json").read_text(encoding="utf-8")
    assert "\n" not in text and ": " not in text
    assert json.loads(text) == dataclasses.asdict(record)


def test_disk_cache_missing_key(tmp_path):
    assert DiskCache(tmp_path).get("f" * 64) is None
