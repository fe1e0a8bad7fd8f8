"""PromptingPipeline against the reference LOOCV engine, mask by mask.

One long-lived pipeline scores a sequence of configurations, as a search
does, with canonical twins back to back so that replays run.  Each
evaluation must score, decode, send and show the observer exactly what the
reference (tests/reference_pipeline.py) does for that configuration alone.
A configuration that can only send the requests of the one before must
replay them rather than plan them again.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fewner.search
from fewner import rng
from fewner.corpus import AnnotatedSentence, EntitySpan, load_entity_types
from fewner.errors import ConfigError
from fewner.search import PipelineSettings, PromptingPipeline
from fewner.templates import FEATURE_NAMES, PromptConfig, fragments

import reference_pipeline
from reference_digest import json_digest

_TYPES = load_entity_types()

# Fillers and mentions per language, with accents, a CJK word and an
# underscore; small pools, so surfaces repeat within and across sentences.
_FILLERS = {
    "en": ["the", "patient", "had", "after", "and", "with", "naïve", "東京", "x_y", "no"],
    "fr": ["le", "patient", "après", "et", "avec", "oui", "élevée", "çà", "non"],
    "es": ["el", "paciente", "después", "y", "con", "sí", "niño", "año", "no"],
}
_MENTIONS = {
    "DISO": ["fever", "fièvre", "dolor de pecho", "asthme", "rash"],
    "CHEM": ["aspirin", "ibuprofène", "codeína", "rash"],
    "PER": ["Zoë", "José Núñez", "Ana"],
}

_VERIFY_PREFIXES = tuple(f["verification_task"].split("{")[0] for f in fragments().values())


@st.composite
def _sentence(draw, index: int, language: str, type_ids: tuple[str, ...]):
    words = draw(st.lists(
        st.one_of(
            st.sampled_from(_FILLERS[language]).map(lambda w: (w, ())),
            st.sampled_from(type_ids).flatmap(
                lambda t: st.sampled_from(_MENTIONS[t]).map(lambda w: (w, (t,)))
            ),
            # One surface gold under two types.
            st.just(("rash", ("DISO", "CHEM"))),
        ),
        min_size=1, max_size=7,
    ))
    text, spans = "", []
    for word, type_ids_of_word in words:
        if text:
            text += " "
        for type_id in type_ids_of_word:
            if type_id in type_ids:
                spans.append(EntitySpan(len(text), len(text) + len(word), type_id, word))
        text += word
    text += draw(st.sampled_from(["", ".", " ?", "…"]))
    return AnnotatedSentence(f"s{index}", text, tuple(spans), language)


@st.composite
def _corpus(draw):
    language = draw(st.sampled_from(["en", "fr", "es"]))
    type_ids = tuple(draw(st.lists(
        st.sampled_from(["DISO", "CHEM", "PER"]), min_size=1, max_size=3, unique=True
    )))
    size = draw(st.integers(2, 5))
    sentences = [draw(_sentence(i, language, type_ids)) for i in range(size)]
    return language, [_TYPES[t] for t in type_ids], sentences


_NATIVE, _VERIFY, _ALT, _LONG = (
    1 << FEATURE_NAMES.index(name)
    for name in (
        "prompt_language_native", "self_verification", "alt_taggers", "long_verification_answer",
    )
)


@st.composite
def _configs(draw):
    """2 to 6 configs; each after the first repeats the one before, is one
    of its twins (a flip of a feature that may be inert, or of the
    separator), flips any one feature, as a greedy step does, changes the
    answer format, or is drawn afresh."""
    formats = st.sampled_from([("tagging", "comma"), ("listing", "comma"), ("listing", "newline")])

    def fresh():
        mode, separator = draw(formats)
        return dict(
            mask=draw(st.integers(0, 511)), mode=mode, listing_separator=separator,
            base_demo_count=draw(st.integers(1, 3)),
        )

    fields = [fresh()]
    for _ in range(draw(st.integers(1, 5))):
        step = draw(st.sampled_from(["same", "twin", "twin", "flip", "flip", "format", "fresh"]))
        last = dict(fields[-1])
        if step == "flip":
            last["mask"] ^= 1 << draw(st.integers(0, len(FEATURE_NAMES) - 1))
        if step == "format":
            last["mode"], last["listing_separator"] = draw(formats)
        if step == "twin":
            flip = draw(st.sampled_from([_NATIVE, _LONG, _ALT, _VERIFY, "separator"]))
            if flip == "separator":
                last["listing_separator"] = {"comma": "newline", "newline": "comma"}[
                    last["listing_separator"]
                ]
            else:
                last["mask"] ^= flip
        fields.append(fresh() if step == "fresh" else last)
    return [PromptConfig.from_bitmask(f.pop("mask"), **f) for f in fields]


def _replays(previous, config, language):
    """What config must replay of an evaluation of previous, by the
    features that cannot change its requests: "all", "main" or None."""
    inert = {"long_verification_answer"}  # no main prompt reads it
    if language == "en":
        inert.add("prompt_language_native")
    inert.add("alt_taggers" if config.mode == "listing" else "listing_separator")
    changed = {
        name for name in FEATURE_NAMES + ("mode", "listing_separator", "base_demo_count")
        if getattr(previous, name) != getattr(config, name)
    }
    if not changed <= inert:
        return None
    verification_changed = "long_verification_answer" in changed and config.self_verification
    return "main" if verification_changed else "all"


class DigestBackend:
    """Answers each request as a pure function of its digest and of the
    epoch of its kind.

    A verification prompt gets a verdict in some language, a long answer
    or noise.  A main prompt gets some words of its test sentence, tagged
    with either tag pair, listed, or echoed with tags, so each decoder
    finds spans, misses and unbalanced tags; half of the digests answer
    as their test sentence alone does, so that prompts of other configs get
    the same answer.  Bumping an epoch changes the answers of that kind, as
    a model without a cache may.  Requests that carry a digest must carry
    their own.
    """

    backend_id = "digest"

    def __init__(self, texts):
        self.texts = sorted(set(texts), key=len, reverse=True)
        self.epochs = {"main": 0, "verify": 0}

    def generate(self, request):
        digest = json_digest(request)
        assert request.digest in ("", digest)
        kind = "verify" if request.prompt.startswith(_VERIFY_PREFIXES) else "main"
        seed = int(digest[:16], 16)
        if kind == "main":
            test_line = request.prompt.split("\n")[-2]
            text = next(t for t in self.texts if test_line.endswith(" " + t))
            if seed % 2 == 0:
                seed = rng.stable_seed(text)
        draw = rng.SplitMix64(seed + self.epochs[kind])

        def pick(options):
            return options[draw.randrange(len(options))]

        if kind == "verify":
            return pick([
                "Yes", "No", "Oui", "non.", "Sí", "no", "yes, no", "maybe", "",
                "\n rash is a disorder, yes.", "fever is not a chemical, no.",
            ])
        words = list(reference_pipeline._WORD.finditer(text))
        chosen = sorted(
            {pick(words) for _ in range(draw.randrange(4))} if words else (),
            key=lambda m: m.start(),
        )
        tags = pick([("@@", "##"), ("<<", ">>"), ("@@", ">>")])
        style = pick(["echo", "tags", "comma", "newline", "dialogue"])
        if style == "echo":
            out, cursor = "", 0
            for m in chosen:
                out += text[cursor:m.start()] + tags[0] + m.group() + tags[1]
                cursor = m.end()
            return out + text[cursor:]
        if style == "tags":
            return " ".join(tags[0] + m.group() + tags[1] for m in chosen)
        separator = {"comma": ", ", "newline": "\n", "dialogue": "\n- "}[style]
        return separator.join(m.group() for m in chosen) + pick(["", "\nInput: x", "\n\nmore"])


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    corpus=_corpus(),
    configs=_configs(),
    # Per evaluation, the kind of answer that changes before it, if any.
    changes=st.lists(st.sampled_from([None, None, "main", "verify"]), min_size=6, max_size=6),
    budget=st.sampled_from([50, 90, 140, 220, 4096]),
    seed=st.integers(0, 3),
    max_new_tokens=st.sampled_from([None, 7]),
    model_name=st.sampled_from(["", "m-é"]),
)
def test_the_pipeline_matches_the_reference_for_every_mask(
    corpus, configs, changes, budget, seed, max_new_tokens, model_name
):
    language, types, sentences = corpus
    pipeline_settings = PipelineSettings(
        prompt_language=language, model_name=model_name, token_budget=budget,
        max_new_tokens=max_new_tokens, seed=seed,
    )
    backend = DigestBackend(s.text for s in sentences)
    shown, issued, results = [], [], []
    pipeline = PromptingPipeline(
        sentences, types, backend, pipeline_settings, observer=lambda *args: shown.append(args)
    )
    send, annotate = pipeline._send, pipeline._annotate_wave

    def logged_send(requests):
        issued.extend(requests)
        return send(requests)

    def logged_wave(*args, **kwargs):
        wave = annotate(*args, **kwargs)
        results.extend((r.spans, r.diagnostics.to_dict()) for r in wave.results)
        return wave

    pipeline._send, pipeline._annotate_wave = logged_send, logged_wave
    reference_backend = DigestBackend(s.text for s in sentences)
    with pytest.MonkeyPatch.context() as patch:
        rendered = {}
        for name in ("fit_to_budget", "render_verification_prompt"):
            real = getattr(fewner.search, name)
            rendered[name] = []
            patch.setattr(
                fewner.search, name,
                lambda *a, real=real, log=rendered[name], **kw: log.append(a) or real(*a, **kw),
            )
        previous = None
        for config, change in zip(configs, changes):
            if change:
                backend.epochs[change] += 1
                reference_backend.epochs[change] += 1
            try:
                expected = reference_pipeline.evaluate(
                    sentences, types, reference_backend, pipeline_settings, config
                )
            except ConfigError:
                with pytest.raises(ConfigError):
                    pipeline.evaluate_loocv(config)
                return
            del shown[:], issued[:], results[:]
            for log in rendered.values():
                del log[:]
            calls = pipeline.backend_calls
            assert pipeline.evaluate_loocv(config) == expected.score, config
            assert results == expected.results, config
            assert [r.digest for r in issued] == [json_digest(r) for r in expected.requests]
            assert issued == expected.requests
            assert pipeline.backend_calls - calls == len(expected.requests)
            assert shown == expected.shown, config
            replayed = previous and _replays(previous, config, language)
            if replayed:
                assert rendered["fit_to_budget"] == [], (previous, config)
            # Verification is replayed too when the main answers came back the same.
            if replayed == "all" and change != "main":
                assert rendered["render_verification_prompt"] == [], (previous, config)
            previous = config
