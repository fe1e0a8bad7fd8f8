"""Leave-one-out scoring and prediction as the specification states
them: the reference that every change to PromptingPipeline's engine must
match.

It keeps no memo, replays nothing, merges no equal requests and uses no
pool.  Per sentence and entity type it selects the demos, fits and renders
the prompt from the template fragments, builds the request and asks the
backend, decodes, then verifies each decoded span; leave-one-out scores
with reference_scoring.  Prompts render from scratch each time, and every
request goes to the backend as it is built.  Main requests come first, in
item order, then the verification requests, in item and span order;
prediction does so per wave of fewner.search.PREDICT_WAVE items.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import fewner.search
from fewner import rng, selection
from fewner.backend import GenerationRequest
from fewner.corpus import outermost_spans
from fewner.decode import (
    VERDICT_UNPARSEABLE,
    apply_verification,
    decode_listing,
    decode_tagged,
    parse_verification,
)
from fewner.errors import ConfigError
from fewner.templates import RenderedPrompt, fragments_for

from reference_scoring import match_one_sentence

_WORD = re.compile(r"[^\W_]+")
_TOKEN = re.compile(r"\w+|[^\w\s]")
_ANSWER_PAD = 32


@dataclass
class Evaluation:
    """What one configuration scored, decoded, sent and showed.

    score is None for a prediction; results holds (spans, diagnostics
    dict) per item; requests every request in the order it was asked;
    shown every (prompt, held-out id) in the order the observer would see
    it.
    """

    score: float | None
    results: list
    requests: list
    shown: list


def _tokens(text: str) -> int:
    return len(_TOKEN.findall(text))


class _Render:
    """The lines of a prompt for one (config, entity type, language)."""

    def __init__(self, config, entity_type, language):
        self.config, self.entity_type, self.language = config, entity_type, language
        self.frags = fragments_for(language)
        self.tags = ("<<", ">>") if config.alt_taggers else ("@@", "##")

    def fill(self, key: str, **values: str) -> str:
        frags, entity_type = self.frags, self.entity_type
        return frags[key].format(
            plural=entity_type.plural(self.language),
            singular=entity_type.singular(self.language),
            open=self.tags[0],
            close=self.tags[1],
            separator=frags["separator_" + self.config.listing_separator],
            specialist=frags["specialist_" + entity_type.domain],
            **values,
        )

    def turn(self, question: str, answer: str | None) -> list[str]:
        if self.config.dialogue_template:
            return ["- " + question, "- " + answer if answer else "-"]
        label = self.frags["output_label"]
        output = label + " " + answer if answer else label
        return [self.frags["input_label"] + " " + question, output]

    def stops(self) -> tuple[str, ...]:
        return ("\n-",) if self.config.dialogue_template else ("\n" + self.frags["input_label"],)

    def answer(self, sentence) -> str:
        spans = outermost_spans(sentence.spans_of(self.entity_type.id))
        if self.config.mode == "listing":
            separator = ", " if self.config.listing_separator == "comma" else "\n"
            return separator.join(s.mention for s in spans)
        text, out, cursor = sentence.text, [], 0
        for s in sorted(spans, key=lambda s: s.start):
            out += [text[cursor:s.start], self.tags[0], text[s.start:s.end], self.tags[1]]
            cursor = s.end
        return "".join(out) + text[cursor:]

    def main(self, demos, test_text: str) -> list[str]:
        config = self.config
        lines = [self.fill("persona" if config.specialist_persona else "task_" + config.mode)]
        if config.label_definitions:
            lines.append(self.entity_type.definition(self.language))
        for demo in demos:
            lines += self.turn(demo.text, self.answer(demo))
        if config.intro_sentence:
            lines.append(self.fill("intro_" + config.mode))
        return lines + self.turn(test_text, None)

    def verification(self, vdemos, context: str, mention: str) -> list[str]:
        lines = [self.fill("verification_task")]
        answer = "long_answer_" if self.config.long_verification_answer else "answer_"
        for sentence, demo_mention, positive in vdemos:
            lines += self.turn(
                self.fill("verification_question", sentence=sentence.text, mention=demo_mention),
                self.fill(answer + ("yes" if positive else "no"), mention=demo_mention),
            )
        question = self.fill("verification_question", sentence=context, mention=mention)
        return lines + self.turn(question, None)


def _fit(render: _Render, kind: str, count: int, least: int, budget: int, build):
    """The first prompt of build(keep) for keep = count, count - 1, ...,
    least whose tokens fit budget, or None; build(keep) is (lines, ids)."""
    for keep in range(count, least - 1, -1):
        lines, ids = build(keep)
        text = "\n".join(lines)
        if _tokens(text) <= budget:
            return RenderedPrompt(
                text=text, entity_type=render.entity_type.id, demonstrations=tuple(ids),
                stop_sequences=render.stops(), estimated_tokens=_tokens(text), kind=kind,
                dropped_demos=count - keep,
            )
    return None


def verification_demos(demos, type_id: str, seed: int):
    """Seeded yes/no examples from the ranked main demos, alternating
    positive and negative, or None when either side has none."""
    positives, negatives = [], []
    for s in demos:
        golds = s.spans_of(type_id)
        if golds:
            pick = rng.SplitMix64(rng.stable_seed(seed, "vpos", s.id, type_id))
            positives.append((s, golds[pick.randrange(len(golds))].mention, True))
        surfaces = {g.mention for g in golds}
        words = [
            m.group() for m in _WORD.finditer(s.text)
            if m.group() not in surfaces and not any(g.start <= m.start() < g.end for g in golds)
        ]
        if words:
            pick = rng.SplitMix64(rng.stable_seed(seed, "vneg", s.id, type_id))
            negatives.append((s, words[pick.randrange(len(words))], False))
    if not positives or not negatives:
        return None
    out = []
    for pair in zip(positives, negatives):
        out += pair
    out += positives[len(negatives):] + negatives[len(positives):]
    return out[: max(2, len(demos))]


def _annotate(corpus, items, backend, settings, config, shown, requests):
    """The verified result of each (sentence, entity type, held-out id)
    item, demos drawn from corpus without the held-out sentence.

    Raises ConfigError when a main prompt does not fit the token budget
    even without demos.
    """
    language = settings.prompt_language if config.prompt_language_native else "en"

    def ask(prompt, held_out, room):
        shown.append((prompt, held_out))
        request = GenerationRequest(
            prompt.text, room, 0.0, prompt.stop_sequences, settings.model_name
        )
        requests.append(request)
        return backend.generate(request)

    decoded = []
    for s, t, held_out in items:
        pool = [d for d in corpus if d.id != held_out]
        n = min(config.effective_demo_count, len(pool))
        if config.self_verification:
            ids = selection.select_entity_rich(pool, t.id, n)
        else:
            ids = selection.select_nearest(selection.build_index(pool), s.text, n)
        ranked = [next(d for d in pool if d.id == i) for i in ids]
        render = _Render(config, t, language)
        seed = rng.stable_seed(settings.seed, s.id, t.id)

        def main(keep):
            kept = rng.shuffled(ranked[:keep], seed)
            return render.main(kept, s.text), [d.id for d in kept]

        prompt = _fit(render, "main", len(ranked), 0, settings.token_budget, main)
        if prompt is None:
            raise ConfigError(f"token budget {settings.token_budget} is too small")
        room = settings.max_new_tokens or 2 * _tokens(s.text) + _ANSWER_PAD
        completion = ask(prompt, held_out, room)
        if config.mode == "tagging":
            result = decode_tagged(
                completion, s.text, config.tag_pair, t.id, config.dialogue_template
            )
        else:
            result = decode_listing(
                completion, s.text, config.listing_separator, t.id, config.dialogue_template
            )
        decoded.append((ranked, room, render, result))

    results = []
    for (s, t, held_out), (ranked, room, render, result) in zip(items, decoded):
        if config.self_verification and result.spans:
            vdemos = verification_demos(ranked, t.id, settings.seed)
            verdicts = []
            for span in result.spans:
                prompt = None
                if vdemos is not None:
                    prompt = _fit(
                        render, "self_verification", len(vdemos), 2, settings.token_budget,
                        lambda keep: (
                            render.verification(vdemos[:keep], s.text, span.mention),
                            [d.id for d, _, _ in vdemos[:keep]],
                        ),
                    )
                if prompt is None:
                    verdicts.append(VERDICT_UNPARSEABLE)
                else:
                    answer = ask(prompt, held_out, room)
                    verdicts.append(parse_verification(answer, span.mention))
            result = apply_verification(result, verdicts)
        results.append(result)
    return results


def _rows(results) -> list:
    return [(r.spans, r.diagnostics.to_dict()) for r in results]


def evaluate(sample, entity_types, backend, settings, config) -> Evaluation:
    """Leave-one-out micro-F1 of config over sample, and what it took.

    Raises ConfigError when a main prompt does not fit the token budget
    even without demos.
    """
    shown, requests = [], []
    corpus = sorted(sample, key=lambda s: s.id)
    items = [(s, t, s.id) for s in corpus for t in entity_types]
    results = _annotate(corpus, items, backend, settings, config, shown, requests)
    tp = fp = fn = 0
    for (s, t, _), result in zip(items, results):
        dtp, dfp, dfn = match_one_sentence(result.spans, s.spans_of(t.id))
        tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Evaluation(f1, _rows(results), requests, shown)


def predict(sample, entity_types, backend, settings, config, test_sentences) -> Evaluation:
    """The spans of every entity type in each test sentence under config,
    items in sentence then type order; a test sentence whose id is in
    sample is held out of its own demos.

    Raises ConfigError when a main prompt does not fit the token budget
    even without demos.
    """
    shown, requests = [], []
    corpus = sorted(sample, key=lambda s: s.id)
    ids = {s.id for s in corpus}
    items = [
        (s, t, s.id if s.id in ids else None) for s in test_sentences for t in entity_types
    ]
    results = []
    wave = fewner.search.PREDICT_WAVE
    for start in range(0, len(items), wave):
        results += _annotate(
            corpus, items[start : start + wave], backend, settings, config, shown, requests
        )
    return Evaluation(None, _rows(results), requests, shown)
