"""Golden digests of every prompt a LOOCV grid and predict send.

One pipeline per corpus language scores all 512 masks in each prompt
format (tagging, listing with commas, listing with newlines), as a grid
search does, then predicts a few sentences under every 17th mask.  The
observer sees every main and verification prompt; the digest of a run
covers, in send order, each prompt's kind, type, demo ids, text,
estimated_tokens, stop_sequences and dropped_demos, and also the sorted
digests of the requests the backend received (so max_new_tokens too).
Any change to a prompt byte, a token count or a request shows here.
"""

import hashlib
import json

import pytest

from fewner.backend import make_noisy_oracle, request_digest
from fewner.corpus import load_entity_types
from fewner.search import PipelineSettings, PromptingPipeline
from fewner.synthetic import synthetic_corpus
from fewner.templates import FEATURE_NAMES, PromptConfig

FORMATS = (("tagging", "comma"), ("listing", "comma"), ("listing", "newline"))

# (language, mode, separator) -> sha256 of the run's prompts and requests
GOLDEN = {
    ("en", "tagging", "comma"): "52810f264fb2e36067177f85d55be6b9372e1a28c3c3bb93f3be2627829f2848",
    ("en", "listing", "comma"): "8d90dcf26c5fdf54cd80fca34fab6d68f7ee187a457a5eceb32b101094743aab",
    ("en", "listing", "newline"): "9d80b8c09a6c8f463da132bb5513e9ecb748300d3a8481e966cd56dc1a24ab77",
    ("fr", "tagging", "comma"): "a6132553768ae1b9aa54fcbf195d7ca04b741f0b90635f1332524a042060c3bf",
    ("fr", "listing", "comma"): "8c050cb3bb0c82d73d05644cccf41b1fd0d536929f10d4b871c66f5c0f7775aa",
    ("fr", "listing", "newline"): "b19725c0553010e208db2d5f2fd290ef32245259fac0489c9f95e891a48680f6",
    ("es", "tagging", "comma"): "4d0c303fc7d83f47dbfdac4cda50f7943bd7e1700689181211dcab7a85af569f",
    ("es", "listing", "comma"): "41596bd94141ceed0d89424f995e38482215d9d6c6ff7ffef3f15108b6a9aa04",
    ("es", "listing", "newline"): "191c8d1786238b378827da088f10d4880addfa06f8e2b00821aea1a1e1c7e810",
}


class _Digests:
    """Backend wrapper keeping the digest of every request it answers."""

    backend_id = "golden"

    def __init__(self, inner):
        self.inner = inner
        self.digests: list[str] = []

    def generate(self, request):
        self.digests.append(request_digest(request))
        return self.inner.generate(request)


def _grid_digest(language: str, mode: str, separator: str) -> tuple[str, list[int]]:
    everything, types = synthetic_corpus(7, seed=29, language=language)
    # predict holds the five sample sentences out of their own demos.
    sentences = everything[:5]
    # A general-domain type with no gold mentions: the linguist persona,
    # and main prompts whose demonstrations all have empty outputs.
    types = types + [load_entity_types()["PER"]]
    backend = _Digests(
        make_noisy_oracle(everything, types, seed=29, drop_prob=0.2, spurious_prob=0.3)
    )
    lines: list[str] = []
    dropped: list[int] = []

    def observer(prompt, held_out_id):
        dropped.append(prompt.dropped_demos)
        lines.append(json.dumps([
            held_out_id, prompt.kind, prompt.entity_type, list(prompt.demonstrations),
            prompt.text, prompt.estimated_tokens, list(prompt.stop_sequences),
            prompt.dropped_demos,
        ], ensure_ascii=False))

    # Tight enough that the longest main and verification prompts drop
    # demonstrations.
    settings = PipelineSettings(prompt_language=language, seed=29, token_budget=190)
    pipeline = PromptingPipeline(sentences, types, backend, settings, observer=observer)
    for mask in range(1 << len(FEATURE_NAMES)):
        pipeline.evaluate_loocv(
            PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator)
        )
    for mask in range(0, 1 << len(FEATURE_NAMES), 17):
        pipeline.predict(
            PromptConfig.from_bitmask(mask, mode=mode, listing_separator=separator), everything
        )
    # Requests may reach the backend from pool threads, so their digests
    # are hashed in sorted order.
    lines.extend(sorted(backend.digests))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(), dropped


@pytest.mark.parametrize("language", ["en", "fr", "es"])
@pytest.mark.parametrize("mode, separator", FORMATS)
def test_every_grid_prompt_matches_its_golden_digest(language, mode, separator):
    digest, dropped = _grid_digest(language, mode, separator)
    assert any(dropped) and not all(dropped)
    assert digest == GOLDEN[language, mode, separator]
