"""Acceptance checks for the whole toolkit.

One test per criterion, in order, each printing a single pass line with the
measured values (visible with -s or -rP).  The criteria are property-based:
a perfect-oracle end-to-end run, exact agreement with independent reference
implementations (scorer, decoder, nearest-neighbour scan), search budget and
equivalence guarantees, seeded noise statistics, leakage instrumentation,
byte-level reproducibility, and hand-checked carbon arithmetic.
"""

from __future__ import annotations

import json
import math
import random
import socket
import time
from collections import Counter

from conftest import additive_scorer, sent, span
from fewner.backend import EchoBackend, OracleBackend, make_noisy_oracle
from fewner.cli import main
from fewner.corpus import load_entity_types, save_corpus
from fewner.decode import decode_tagged
from fewner.evaluation import GridProfile, HardwareProfile, estimate_carbon, score
from fewner.search import PromptingPipeline, greedy_search, grid_search
from fewner.selection import select_nearest
from fewner.synthetic import synthetic_corpus
from fewner.templates import (
    FEATURE_NAMES,
    PromptConfig,
    TagPair,
    fragments,
    fragments_for,
    outermost_spans,
    render_main_prompt,
)
from reference_decoder import reference_decode_tagged
from reference_scoring import brute_force_report
from reference_selection import scan_nearest
from test_decode import assert_span_invariants, fuzz_case, starts_ends
from test_evaluation import _TYPES as SCORING_TYPES
from test_evaluation import random_instance
from test_selection import make_pool, make_query, pool_index


def passline(number: int, name: str, detail: str) -> None:
    print(f"acceptance {number:02d} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. A perfect oracle pushed through the full CLI pipeline scores exactly 1.


def test_acceptance_01_perfect_oracle_pipeline(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during an offline run")

    monkeypatch.setattr(socket, "socket", no_network)
    sentences, _ = synthetic_corpus(60, seed=101, type_ids=("DISO", "CHEM", "ANAT"))
    sample = tmp_path / "sample.jsonl"
    test = tmp_path / "test.jsonl"
    save_corpus(sentences[:10], sample, "jsonl")
    save_corpus(sentences[10:], test, "jsonl")
    run_dir = tmp_path / "run"

    started = time.monotonic()
    assert main(
        [
            "predict", "--sample", str(sample), "--test", str(test),
            "--run-dir", str(run_dir), "--types", "DISO,CHEM,ANAT", "--no-cache",
        ]
    ) == 0
    assert main(
        [
            "evaluate", "--predictions", str(run_dir / "predictions.json"),
            "--gold", str(test), "--run-dir", str(run_dir), "--types", "DISO,CHEM,ANAT",
        ]
    ) == 0
    elapsed = time.monotonic() - started

    micro = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["micro"]
    tp, fp, fn = micro["tp"], micro["fp"], micro["fn"]
    assert micro["f1"] == 1.0
    assert fp == 0 and fn == 0
    assert tp == sum(len(s.spans) for s in sentences[10:])
    assert elapsed < 10.0
    passline(1, "perfect-oracle pipeline", f"micro-F1 {micro['f1']:.3f} over 50 sentences, 3 types, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. The scorer agrees with a brute-force set-matching implementation.


def test_acceptance_02_scorer_matches_brute_force_oracle():
    rand = random.Random(0xACC02)
    for i in range(500):
        sentences, preds = random_instance(rand)
        report = score(preds, sentences, entity_types=list(SCORING_TYPES))
        got = {tid: (ts.tp, ts.fp, ts.fn) for tid, ts in report.per_type.items()}
        got["micro"] = report.micro_counts
        assert got == brute_force_report(preds, sentences, list(SCORING_TYPES)), f"instance {i}"
    passline(2, "scorer-oracle equivalence", "500 randomized instances, zero tolerance")


# ---------------------------------------------------------------------------
# 3. Search budgets: 512 grid evaluations, at most 10 greedy, on the same folds.


def test_acceptance_03_grid_size_and_greedy_budget():
    sentences, types = synthetic_corpus(2, seed=303, type_ids=("DISO",))
    pipeline = PromptingPipeline(sentences, types, EchoBackend())
    base = PromptConfig()
    _, greedy_trace = greedy_search(pipeline, base)
    _, grid_trace = grid_search(pipeline, base, acknowledge_cost=True)

    assert len(grid_trace.evaluations) == 512
    assert len(greedy_trace.evaluations) <= 10
    assert greedy_trace.total_backend_calls > 0
    ratio = grid_trace.total_backend_calls / greedy_trace.total_backend_calls
    assert ratio >= 51
    passline(
        3, "grid size and greedy budget",
        f"512 grid / {len(greedy_trace.evaluations)} greedy evaluations, call ratio {ratio:.1f}",
    )


# ---------------------------------------------------------------------------
# 4. On interaction-free scorers the cheap search finds the grid's argmax.


def test_acceptance_04_greedy_equals_grid_on_additive_scorers():
    for seed in range(20):
        rng = random.Random(8800 + seed)
        weights = {name: rng.uniform(-1.0, 1.0) for name in FEATURE_NAMES}
        scorer = additive_scorer(weights)
        greedy_best, _ = greedy_search(None, PromptConfig(), score_fn=scorer)
        grid_best, _ = grid_search(None, PromptConfig(), score_fn=scorer, acknowledge_cost=True)
        # With independent weights the optimum is exactly the positive set.
        optimum = PromptConfig(**{name: w > 0 for name, w in weights.items()})
        assert greedy_best.bitmask == grid_best.bitmask == optimum.bitmask, f"seed {8800 + seed}"

    rewarded = (
        "additional_sentences",
        "self_verification",
        "intro_sentence",
        "long_verification_answer",
    )
    weights = {name: (0.1 if name in rewarded else -0.1) for name in FEATURE_NAMES}
    best, trace = greedy_search(None, PromptConfig(), score_fn=additive_scorer(weights))
    assert best.enabled_features() == rewarded
    assert trace.accepted_features == rewarded
    passline(4, "greedy equals grid on additive scorers", "20/20 agreements; rewarded set recovered exactly")


# ---------------------------------------------------------------------------
# 5. Seeded mention dropping shows up in the scores as predicted by theory.


def test_acceptance_05_noisy_oracle_statistics():
    sentences, types = synthetic_corpus(708, seed=505, type_ids=("DISO", "CHEM"))
    sample, test = sentences[:8], sentences[8:]
    total_gold = sum(len(s.spans) for s in test)
    assert total_gold >= 1000

    backend = make_noisy_oracle(sentences, types, seed=77, drop_prob=0.3, spurious_prob=0.0)
    pipeline = PromptingPipeline(sample, types, backend)
    predictions = pipeline.predict(PromptConfig(), test)
    report = score(predictions, test, [t.id for t in types])

    assert report.micro_precision == 1.0
    assert abs(report.micro_recall - 0.70) <= 0.05
    expected_f1 = 2 * 0.7 / (1 + 0.7)
    # Delta method: F1 = 2r/(1+r), dF/dr = 2/(1+r)^2, r-hat ~ Binomial/N.
    sigma = (2 / (1 + 0.7) ** 2) * math.sqrt(0.7 * 0.3 / total_gold)
    assert abs(report.micro_f1 - expected_f1) <= 3 * sigma
    passline(
        5, "noisy-oracle statistics",
        f"{total_gold} gold mentions, precision {report.micro_precision:.3f}, "
        f"recall {report.micro_recall:.4f}, micro-F1 {report.micro_f1:.4f} vs {expected_f1:.4f} "
        f"(3 sigma = {3 * sigma:.4f})",
    )


# ---------------------------------------------------------------------------
# 6. Ten thousand corrupted completions: no crash, no invariant violation,
#    exact agreement with the independent reference decoder.


def test_acceptance_06_decode_robustness_fuzz():
    rand = random.Random(0x6ACC)
    checked = 0
    for i in range(10_000):
        completion, original, tags = fuzz_case(rand)
        got = decode_tagged(completion, original, TagPair(*tags), "DISO")
        want = reference_decode_tagged(completion, original, *tags)
        context = f"case {i}: completion={completion!r} original={original!r} tags={tags}"
        assert starts_ends(got) == want["spans"], context
        assert got.diagnostics.unbalanced_tags == want["unbalanced"], context
        assert got.diagnostics.unmatched_mentions == want["unmatched"], context
        assert got.diagnostics.duplicate_mentions == want["duplicates"], context
        assert_span_invariants(got, original)
        checked += 1
    assert checked == 10_000
    passline(6, "decode robustness", "10000 fuzz cases, zero mismatches, substring invariant held")


# ---------------------------------------------------------------------------
# 7. Rendered demonstrations decode back to their gold spans in every
#    language and under every single-feature flip.


def span_at(text: str, mention: str, type_id: str, occurrence: int = 0):
    start = -1
    for _ in range(occurrence + 1):
        start = text.index(mention, start + 1)
    return span(start, start + len(mention), type_id, mention)


def round_trip_demos(language: str):
    """Demonstrations with multiword, nested, other-type, and empty gold."""
    if language == "en":
        rows = [
            ("The patient denies chest pain but reports dizziness .",
             [("chest pain", "DISO"), ("dizziness", "DISO")]),
            ("She was given aspirin for the fever .",
             [("aspirin", "CHEM"), ("fever", "DISO")]),
            ("Chronic left ventricular failure was noted .",
             [("Chronic left ventricular failure", "DISO"), ("ventricular failure", "DISO")]),
            ("No abnormalities were found .", []),
            ("Migraine follows migraine in this diary .", [("migraine", "DISO")]),
        ]
    elif language == "fr":
        rows = [
            ("Le patient présente une pneumonie aiguë .", [("pneumonie aiguë", "DISO")]),
            ("Il a reçu du paracétamol contre la fièvre .",
             [("paracétamol", "CHEM"), ("fièvre", "DISO")]),
            ("Une insuffisance cardiaque gauche sévère persiste .",
             [("insuffisance cardiaque gauche sévère", "DISO"), ("insuffisance cardiaque", "DISO")]),
            ("Aucun signe anormal .", []),
            ("Un vertige isolé est survenu .", [("vertige", "DISO")]),
        ]
    else:
        rows = [
            ("El paciente refiere asma y disnea .", [("asma", "DISO"), ("disnea", "DISO")]),
            ("Se administró ibuprofeno para la cefalea .",
             [("ibuprofeno", "CHEM"), ("cefalea", "DISO")]),
            ("La insuficiencia renal crónica empeoró .",
             [("insuficiencia renal crónica", "DISO"), ("insuficiencia renal", "DISO")]),
            ("Sin hallazgos patológicos .", []),
            ("Una náusea leve apareció .", [("náusea", "DISO")]),
        ]
    return [
        sent(f"{language}-d{i}", text, [span_at(text, m, t) for m, t in mentions], language=language)
        for i, (text, mentions) in enumerate(rows)
    ]


def demo_output_lines(prompt_text: str, config: PromptConfig, language: str, n_demos: int):
    lines = prompt_text.split("\n")
    if config.dialogue_template:
        dash = [l for l in lines if l == "-" or l.startswith("- ")]
        outputs = [l[2:] if l.startswith("- ") else "" for l in dash[1::2]]
    else:
        label = fragments_for(language)["output_label"] + " "
        outputs = [l[len(label):] for l in lines if l.startswith(label)]
    assert len(outputs) >= n_demos
    return outputs[:n_demos]


def test_acceptance_07_render_decode_round_trip():
    registry = load_entity_types(None)
    diso = registry["DISO"]
    configs = [PromptConfig()] + [PromptConfig(**{name: True}) for name in FEATURE_NAMES]
    languages = sorted(fragments())
    checked = 0
    for language in languages:
        demos = round_trip_demos(language)
        for config in configs:
            rendered = render_main_prompt(config, diso, demos, "A test sentence .", language)
            outputs = demo_output_lines(rendered.text, config, language, len(demos))
            for demo, line in zip(demos, outputs):
                decoded = decode_tagged(line, demo.text, config.tag_pair, diso.id)
                got = [(s.start, s.end, s.mention) for s in decoded.spans]
                want = [
                    (s.start, s.end, demo.text[s.start : s.end])
                    for s in outermost_spans(demo.spans_of(diso.id))
                ]
                assert got == want, f"{language} {config.enabled_features()} {demo.id}"
                checked += 1
    assert checked == len(languages) * (1 + len(FEATURE_NAMES)) * 5
    passline(7, "render/decode round trip", f"{checked} demonstration round trips across {len(languages)} languages")


# ---------------------------------------------------------------------------
# 8. No prompt in a full optimize run ever leaks its fold's held-out sentence.


def test_acceptance_08_loocv_hygiene():
    sentences, types = synthetic_corpus(100, seed=808, type_ids=("DISO",))
    by_id = {s.id: s for s in sentences}
    prompts_per_fold: Counter = Counter()
    violations = []

    def observer(prompt, held_out_id: str) -> None:
        # The held-out text must appear exactly once: as the question, never
        # as a demonstration.
        occurrences = prompt.text.count(by_id[held_out_id].text)
        if occurrences != 1 or held_out_id in prompt.demonstrations:
            violations.append((held_out_id, occurrences, prompt.demonstrations))
        prompts_per_fold[held_out_id] += 1

    pipeline = PromptingPipeline(
        sentences, types, OracleBackend(sentences, types), observer=observer
    )
    greedy_search(pipeline, PromptConfig())

    assert violations == []
    assert len(prompts_per_fold) == 100
    total = sum(prompts_per_fold.values())
    assert total >= 1000
    passline(8, "LOOCV hygiene", f"{total} prompts over k=100 folds, zero violations")


# ---------------------------------------------------------------------------
# 9. Two identical runs leave byte-identical result artifacts behind.


def test_acceptance_09_byte_identical_reruns(tmp_path):
    sentences, _ = synthetic_corpus(14, seed=909)
    sample = tmp_path / "sample.jsonl"
    test = tmp_path / "test.jsonl"
    save_corpus(sentences[:8], sample, "jsonl")
    save_corpus(sentences[8:], test, "jsonl")
    cache = tmp_path / "cache"

    def run(run_dir):
        assert main(
            [
                "optimize", "--sample", str(sample), "--run-dir", str(run_dir),
                "--types", "DISO,CHEM", "--cache-dir", str(cache),
            ]
        ) == 0
        assert main(
            [
                "predict", "--sample", str(sample), "--test", str(test),
                "--run-dir", str(run_dir), "--types", "DISO,CHEM",
                "--best-config", str(run_dir / "best_config.json"), "--cache-dir", str(cache),
            ]
        ) == 0
        assert main(
            [
                "evaluate", "--predictions", str(run_dir / "predictions.json"),
                "--gold", str(test), "--run-dir", str(run_dir),
            ]
        ) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    names = (
        "config.json", "trace.json", "best_config.json",
        "predictions.json", "report.json", "report.csv", "report.md",
    )
    for name in names:
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, name
    passline(9, "determinism", f"{len(names)} artifacts byte-identical across reruns")


# ---------------------------------------------------------------------------
# 10. Carbon arithmetic against hand-computed values, and linearity.

# (runtime_h, device_w, usage, memory_gb, w_per_gb, pue, g/kWh) -> gCO2e
CARBON_CASES = [
    ((1.0, 300.0, 1.0, 0.0, 0.3725, 1.0, 100.0), 30.0),
    ((2.0, 150.0, 0.5, 32.0, 0.3725, 1.2, 250.0), 52.152),
    ((0.5, 400.0, 0.8, 128.0, 0.3725, 1.67, 475.0), 145.83108),
    ((10.0, 250.0, 1.0, 16.0, 0.5, 1.1, 56.0), 158.928),
    ((0.0, 300.0, 1.0, 64.0, 0.3725, 1.67, 475.0), 0.0),
]


def test_acceptance_10_carbon_arithmetic():
    for (runtime_h, device_w, usage, memory_gb, w_per_gb, pue, intensity), expected in CARBON_CASES:
        hardware = HardwareProfile(
            device_power_w=device_w, usage_factor=usage,
            memory_gb=memory_gb, memory_w_per_gb=w_per_gb,
        )
        grid = GridProfile(pue=pue, carbon_intensity_g_per_kwh=intensity)
        got = estimate_carbon(runtime_h, hardware, grid).co2e_g
        assert abs(got - expected) < 5e-7, (runtime_h, got, expected)

    per_hour = estimate_carbon(1.0, HardwareProfile(), GridProfile()).co2e_g
    for runtime_h in (0.25, 0.5, 2.0, 7.0, 24.0, 1000.0):
        got = estimate_carbon(runtime_h, HardwareProfile(), GridProfile()).co2e_g
        assert abs(got - runtime_h * per_hour) <= 1e-9 * max(1.0, got)
    passline(10, "carbon arithmetic", "5 hand-computed cases to 6 decimals; linear in runtime")


# ---------------------------------------------------------------------------
# 11. Nearest-neighbour selection agrees with the exhaustive exact-arithmetic
#     scan, including the id tie-break.


def test_acceptance_11_tfidf_knn_matches_exhaustive_scan():
    rand = random.Random(0xACC11)
    for i in range(200):
        pool = make_pool(rand)
        index = pool_index(pool)
        query = make_query(rand, pool)
        n = rand.randint(1, len(pool))
        got = select_nearest(index, query, n)
        want = scan_nearest(pool, query, n)
        assert got == want, f"pool {i}: query={query!r} n={n}"
    passline(11, "TF-IDF kNN", "200 pools, exact id-list equality")
