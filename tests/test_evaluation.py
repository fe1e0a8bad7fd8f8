import csv
import io
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sent, span
from fewner.decode import DecodeDiagnostics, DecodeResult, PredictionSet
from fewner.errors import ConfigError, DataError
from fewner.evaluation import (
    CarbonEstimate,
    GridProfile,
    HardwareProfile,
    TypeScore,
    estimate_carbon,
    f1_from_counts,
    score,
    span_match_counts,
)
from reference_scoring import brute_force_report, match_one_sentence


def result_of(*spans):
    return DecodeResult(spans=tuple(spans), diagnostics=DecodeDiagnostics())


# --------------------------------------------------------------------------
# Matching and F1 arithmetic

def test_span_match_counts_exact_triples():
    gold = [span(0, 5, "DISO", "fever"), span(10, 14, "CHEM", "acid")]
    pred = [
        span(0, 5, "DISO", "fever"),   # hit
        span(0, 5, "CHEM", "fever"),   # wrong type
        span(1, 5, "DISO", "ever"),    # wrong offsets
    ]
    assert span_match_counts(pred, gold) == (1, 2, 1)


def test_span_match_counts_duplicates_count_once():
    gold = [span(0, 5, "DISO", "fever")]
    pred = [span(0, 5, "DISO", "fever"), span(0, 5, "DISO", "fever")]
    assert span_match_counts(pred, gold) == (1, 1, 0)


def test_span_match_counts_empty_sides():
    assert span_match_counts([], []) == (0, 0, 0)
    assert span_match_counts([], [span(0, 1, "A", "x")]) == (0, 0, 1)
    assert span_match_counts([span(0, 1, "A", "x")], []) == (0, 1, 0)


def test_f1_from_counts_handles_zero_denominators():
    assert f1_from_counts(0, 0, 0) == (0.0, 0.0, 0.0)
    assert f1_from_counts(0, 3, 0) == (0.0, 0.0, 0.0)
    assert f1_from_counts(3, 1, 2) == (0.75, 0.6, pytest.approx(2 * 0.75 * 0.6 / 1.35))


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_f1_bounds_and_identity(tp, fp, fn):
    precision, recall, f1 = f1_from_counts(tp, fp, fn)
    for value in (precision, recall, f1):
        assert 0.0 <= value <= 1.0
    if precision + recall:
        assert f1 == pytest.approx(2 * precision * recall / (precision + recall))
    assert min(precision, recall) - 1e-12 <= f1 <= max(precision, recall) + 1e-12


def test_type_score_properties():
    ts = TypeScore("DISO", 3, 1, 2)
    assert ts.precision == 0.75
    assert ts.recall == 0.6
    assert ts.f1 == pytest.approx(0.6666666666666666)


# --------------------------------------------------------------------------
# score()

GOLD = [
    sent("s1", "fever and acid", [span(0, 5, "DISO", "fever"), span(10, 14, "CHEM", "acid")]),
    sent("s2", "all clear here", []),
]


def test_score_hand_example():
    preds = PredictionSet()
    preds.add("s1", "DISO", result_of(span(0, 5, "DISO", "fever")))
    preds.add("s1", "CHEM", result_of(span(0, 5, "CHEM", "fever")))
    preds.add("s2", "DISO", result_of(span(0, 3, "DISO", "all")))
    report = score(preds, GOLD)
    assert report.per_type["DISO"] == TypeScore("DISO", 1, 1, 0)
    assert report.per_type["CHEM"] == TypeScore("CHEM", 0, 1, 1)
    assert report.micro_counts == (1, 2, 1)
    assert report.micro_precision == pytest.approx(1 / 3)
    assert report.micro_recall == pytest.approx(1 / 2)
    assert report.n_sentences == 2


def test_score_perfect_predictions():
    preds = PredictionSet()
    for s in GOLD:
        for tid in ("DISO", "CHEM"):
            preds.add(s.id, tid, result_of(*s.spans_of(tid)))
    report = score(preds, GOLD)
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0


def test_score_empty_predictions_zero_not_crash():
    report = score(PredictionSet(), GOLD)
    assert report.micro_f1 == 0.0
    assert report.per_type["DISO"].fn == 1


def test_score_rejects_unknown_sentence_ids():
    preds = PredictionSet()
    preds.add("ghost", "DISO", result_of())
    with pytest.raises(DataError, match="ghost"):
        score(preds, GOLD)


def test_score_fixed_type_list_adds_zero_rows():
    report = score(PredictionSet(), GOLD, entity_types=["ANAT", "CHEM", "DISO"])
    assert set(report.per_type) == {"ANAT", "CHEM", "DISO"}
    assert report.per_type["ANAT"] == TypeScore("ANAT", 0, 0, 0)


def test_score_macro_averages_per_type_f1():
    preds = PredictionSet()
    preds.add("s1", "DISO", result_of(span(0, 5, "DISO", "fever"), span(6, 9, "DISO", "and")))
    preds.add("s1", "CHEM", result_of())
    report = score(preds, GOLD)
    # DISO: tp1 fp1 fn0 -> f1 = 2/3; CHEM: tp0 fp0 fn1 -> 0.
    assert report.macro_f1 == pytest.approx((2 / 3) / 2)
    # Pooled: tp1 fp1 fn1 -> 2tp/(2tp+fp+fn) = 0.5.
    assert report.micro_f1 == pytest.approx(0.5)


# --------------------------------------------------------------------------
# Randomized equivalence with the brute-force matcher

_TYPES = ("A", "B", "C")


def random_instance(rand):
    n_sentences = rand.randint(1, 6)
    sentences = []
    for i in range(n_sentences):
        words = [f"w{j:02d}" for j in range(rand.randint(1, 8))]
        text = " ".join(words)
        spans = []
        for j, _ in enumerate(words):
            if rand.random() < 0.4:
                start = j * 4
                spans.append(span(start, start + 3, rand.choice(_TYPES), text[start : start + 3]))
                if rand.random() < 0.1:
                    spans.append(spans[-1])  # duplicate gold annotation
        sentences.append(sent(f"s{i}", text, spans))
    preds = PredictionSet()
    for s in sentences:
        if rand.random() < 0.15:
            continue  # no predictions at all for this sentence
        for tid in _TYPES:
            if rand.random() < 0.3:
                continue
            chosen = []
            for g in s.spans_of(tid):
                if rand.random() < 0.6:
                    chosen.append(g)
                    if rand.random() < 0.15:
                        chosen.append(g)  # duplicate prediction
            for _ in range(rand.randint(0, 2)):
                start = rand.randint(0, max(0, len(s.text) - 3))
                chosen.append(span(start, start + 3, tid, s.text[start : start + 3]))
            preds.add(s.id, tid, result_of(*chosen))
    return sentences, preds


def test_score_matches_brute_force_matching():
    rand = random.Random(424242)
    for i in range(150):
        sentences, preds = random_instance(rand)
        report = score(preds, sentences, entity_types=list(_TYPES))
        want = brute_force_report(preds, sentences, list(_TYPES))
        got = {tid: (ts.tp, ts.fp, ts.fn) for tid, ts in report.per_type.items()}
        got["micro"] = report.micro_counts
        assert got == want, f"instance {i}"


def test_match_one_sentence_agrees_with_counter_matching():
    rand = random.Random(7)
    for _ in range(200):
        gold = [
            span(j * 4, j * 4 + 3, rand.choice(_TYPES), "xxx")
            for j in range(rand.randint(0, 5))
            for _ in range(rand.randint(1, 2))
        ]
        pred = [
            span(rand.randint(0, 5) * 4, rand.randint(0, 5) * 4 + 3, rand.choice(_TYPES), "xxx")
            for _ in range(rand.randint(0, 6))
        ]
        pred = [span(s.start, s.start + 3, s.type, s.mention) for s in pred]
        assert span_match_counts(pred, gold) == match_one_sentence(pred, gold)


# --------------------------------------------------------------------------
# Report serialization

def _report():
    preds = PredictionSet()
    preds.add("s1", "DISO", result_of(span(0, 5, "DISO", "fever"), span(6, 9, "DISO", "and")))
    return score(preds, GOLD)


def test_report_json_round_trip():
    report = _report()
    back = json.loads(report.to_json())
    per_type = {
        tid: TypeScore(tid, row["tp"], row["fp"], row["fn"])
        for tid, row in back["per_type"].items()
    }
    assert per_type == report.per_type
    assert back["n_sentences"] == report.n_sentences
    assert back["timestamp"] is None
    assert (back["micro"]["tp"], back["micro"]["fp"], back["micro"]["fn"]) == report.micro_counts
    assert back["micro"]["f1"] == report.micro_f1
    assert back["macro_f1"] == report.macro_f1


def test_report_json_carries_timestamp():
    report = _report()
    report.timestamp = "2026-02-11T10:00:00Z"
    assert json.loads(report.to_json())["timestamp"] == "2026-02-11T10:00:00Z"


def test_report_csv_round_trip_and_shape():
    report = _report()
    raw = report.to_csv()
    lines = raw.strip().split("\n")
    assert lines[0] == "type,tp,fp,fn,precision,recall,f1,n_sentences"
    assert lines[-1].startswith("micro,")
    rows = list(csv.DictReader(io.StringIO(raw)))
    per_type = {
        row["type"]: TypeScore(row["type"], int(row["tp"]), int(row["fp"]), int(row["fn"]))
        for row in rows
        if row["type"] != "micro"
    }
    assert per_type == report.per_type
    assert {int(row["n_sentences"]) for row in rows} == {report.n_sentences}
    micro = rows[-1]
    assert (int(micro["tp"]), int(micro["fp"]), int(micro["fn"])) == report.micro_counts


def test_report_markdown_contains_rows_and_macro():
    text = _report().to_markdown()
    assert "| CHEM |" in text and "| DISO |" in text
    assert "| **micro** |" in text
    assert "macro F1:" in text


_REPORT_JSON = """{
  "macro_f1": 0.3333333333333333,
  "micro": {
    "f1": 0.5,
    "fn": 1,
    "fp": 1,
    "precision": 0.5,
    "recall": 0.5,
    "tp": 1
  },
  "n_sentences": 2,
  "per_type": {
    "CHEM": {
      "f1": 0.0,
      "fn": 1,
      "fp": 0,
      "precision": 0.0,
      "recall": 0.0,
      "tp": 0
    },
    "DISO": {
      "f1": 0.6666666666666666,
      "fn": 0,
      "fp": 1,
      "precision": 0.5,
      "recall": 1.0,
      "tp": 1
    }
  },
  "timestamp": null
}"""

_REPORT_CSV = """type,tp,fp,fn,precision,recall,f1,n_sentences
CHEM,0,0,1,0.000000,0.000000,0.000000,2
DISO,1,1,0,0.500000,1.000000,0.666667,2
micro,1,1,1,0.500000,0.500000,0.500000,2
"""

_REPORT_MARKDOWN = """| type | tp | fp | fn | precision | recall | f1 |
| --- | ---: | ---: | ---: | ---: | ---: | ---: |
| CHEM | 0 | 0 | 1 | 0.0000 | 0.0000 | 0.0000 |
| DISO | 1 | 1 | 0 | 0.5000 | 1.0000 | 0.6667 |
| **micro** | 1 | 1 | 1 | 0.5000 | 0.5000 | 0.5000 |

macro F1: 0.3333 over 2 types,
2 sentences."""


def test_report_renderings_are_pinned_byte_for_byte():
    report = _report()
    assert report.to_json() == _REPORT_JSON
    assert report.to_csv() == _REPORT_CSV
    assert report.to_markdown() == _REPORT_MARKDOWN


# --------------------------------------------------------------------------
# Carbon accounting

def test_hardware_mean_power_defaults():
    assert HardwareProfile().mean_power_w() == pytest.approx(300.0 + 64.0 * 0.3725)


def test_estimate_carbon_simple_hand_value():
    grams = estimate_carbon(
        1.0,
        HardwareProfile(device_power_w=300, usage_factor=1.0, memory_gb=0, memory_w_per_gb=0),
        GridProfile(pue=1.0, carbon_intensity_g_per_kwh=100.0),
    )
    assert grams.energy_kwh == pytest.approx(0.3)
    assert grams.adjusted_energy_kwh == pytest.approx(0.3)
    assert grams.co2e_g == pytest.approx(30.0)


def test_estimate_carbon_default_profiles():
    estimate = estimate_carbon(2.0)
    assert estimate.energy_kwh == pytest.approx(0.64768)
    assert estimate.co2e_g == pytest.approx(513.77216)


def test_estimate_carbon_zero_runtime():
    estimate = estimate_carbon(0.0)
    assert estimate.co2e_g == 0.0
    assert estimate.energy_kwh == 0.0


def test_estimate_carbon_rejects_negative_runtime():
    with pytest.raises(ConfigError, match="runtime_h"):
        estimate_carbon(-0.1)


@pytest.mark.parametrize("runtime_h", [float("nan"), float("inf")])
def test_estimate_carbon_rejects_a_runtime_that_is_not_finite(runtime_h):
    with pytest.raises(ConfigError, match="runtime_h"):
        estimate_carbon(runtime_h)


@pytest.mark.parametrize(
    "hardware,grid,name",
    [
        (HardwareProfile(device_power_w=-300.0), GridProfile(), "device_power_w"),
        (HardwareProfile(memory_gb=float("inf")), GridProfile(), "memory_gb"),
        (HardwareProfile(), GridProfile(pue=-1.0), "pue"),
        (HardwareProfile(), GridProfile(carbon_intensity_g_per_kwh=float("nan")),
         "carbon_intensity_g_per_kwh"),
    ],
)
def test_estimate_carbon_rejects_a_negative_or_non_finite_profile_value(hardware, grid, name):
    with pytest.raises(ConfigError, match=name):
        estimate_carbon(1.0, hardware, grid)


@given(st.floats(0.001, 100.0), st.floats(1.0, 10.0))
def test_estimate_carbon_linear_in_runtime(runtime_h, factor):
    one = estimate_carbon(runtime_h)
    scaled = estimate_carbon(runtime_h * factor)
    assert scaled.co2e_g == pytest.approx(one.co2e_g * factor, rel=1e-9)
