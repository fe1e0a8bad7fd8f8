"""End-to-end checks for the command line interface.

Every test drives main(argv) in-process and inspects exit codes, stdout,
and the artifact files, so argument parsing, config merging, backend
construction, and caching are exercised the way a shell user hits them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from fewner.backend import EchoBackend, GenerationRequest, OracleBackend
from fewner.cli import main
from fewner.corpus import load_corpus, sample_fewshot, save_corpus
from fewner.decode import PredictionSet
from fewner.evaluation import GridProfile, HardwareProfile, estimate_carbon, score
from fewner.search import PipelineSettings, PromptingPipeline, greedy_search
from fewner.synthetic import synthetic_corpus
from fewner.templates import PromptConfig


def write_corpus(path: Path, n: int, seed: int, **kwargs):
    sentences, _ = synthetic_corpus(n, seed=seed, **kwargs)
    save_corpus(sentences, path, "jsonl")
    return sentences


@pytest.fixture(scope="module")
def splits(tmp_path_factory):
    """A 12-sentence corpus split into a 6-sentence sample and 6 test sentences."""
    root = tmp_path_factory.mktemp("cli-corpus")
    sentences, _ = synthetic_corpus(12, seed=21)
    sample_path = root / "sample.jsonl"
    test_path = root / "test.jsonl"
    save_corpus(sentences[:6], sample_path, "jsonl")
    save_corpus(sentences[6:], test_path, "jsonl")
    return sample_path, test_path, sentences


# The id of the noiseless oracle over the sample of splits: seed, rates and
# the digest of its sentences' ids, texts and spans.
SAMPLE_ORACLE_ID = "oracle:0:0.0:0.0:819b6f85c4dba3d2"


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# Inputs that exist but cannot be read as UTF-8 text.
DIRECTORY = "<directory>"
NOT_UTF8 = b"\xff\xfe{\x00}\x00"  # UTF-16 with its byte-order mark
UNREADABLE = [pytest.param(DIRECTORY, id="directory"), pytest.param(NOT_UTF8, id="not-utf8")]


def write_input(path: Path, content) -> None:
    """Put content at path: text, raw bytes, DIRECTORY for an empty
    directory, or nothing for None."""
    if content == DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content, encoding="utf-8")


# ---------------------------------------------------------------------------
# convert / sample


def test_convert_round_trips_through_conll(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    original = write_corpus(src, 5, seed=2)
    conll = tmp_path / "corpus.conll"
    back = tmp_path / "back.jsonl"
    assert main(
        ["convert", "--input", str(src), "--output", str(conll), "--from", "jsonl", "--to", "conll"]
    ) == 0
    out = capsys.readouterr().out
    assert f"wrote 5 sentences to {conll} (conll)" in out
    assert main(
        ["convert", "--input", str(conll), "--output", str(back), "--from", "conll", "--to", "jsonl"]
    ) == 0
    reloaded = load_corpus(back, "jsonl")
    # CoNLL ids embed the source filename, so compare content only.
    assert [(s.text, s.spans) for s in reloaded] == [(s.text, s.spans) for s in original]


def test_convert_rejects_unknown_format(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["convert", "--input", "x", "--output", "y", "--from", "jsonl", "--to", "xml"])
    assert err.value.code == 2


def test_usage_errors_exit_with_argparse_code():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["optimize"])  # missing required arguments
    assert err.value.code == 2


def test_sample_writes_subset_and_manifest(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src, 10, seed=4)
    out = tmp_path / "sample.jsonl"
    rc = main(["sample", "--corpus", str(src), "--k", "5", "--seed", "13", "--output", str(out)])
    assert rc == 0
    assert "sampled 5 sentences with seed 13" in capsys.readouterr().out
    drawn = load_corpus(out, "jsonl")
    assert len(drawn) == 5
    manifest = read_json(tmp_path / "sample.meta.json")
    assert manifest["k"] == 5
    assert manifest["p"] == 13
    assert manifest["source_corpus"] == str(src)
    assert [s.id for s in drawn] == manifest["sentence_ids"]
    # The CLI must agree with the library sampler it wraps.
    expected = sample_fewshot(load_corpus(src, "jsonl"), 5, 13)
    assert tuple(manifest["sentence_ids"]) == expected.sentence_ids


@pytest.mark.parametrize("format", ["jsonl", "conll"])
@pytest.mark.parametrize("content", UNREADABLE)
def test_sample_unreadable_corpus_exits_2(tmp_path, capsys, format, content):
    corpus = tmp_path / f"corpus.{format}"
    write_input(corpus, content)
    rc = main(
        [
            "sample", "--corpus", str(corpus), "--format", format, "--k", "2", "--seed", "1",
            "--output", str(tmp_path / "s.jsonl"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(corpus) in err


def test_sample_honours_explicit_manifest_path(tmp_path):
    src = tmp_path / "corpus.jsonl"
    write_corpus(src, 6, seed=7)
    out = tmp_path / "s.jsonl"
    manifest = tmp_path / "elsewhere" / "m.json"
    rc = main(
        [
            "sample", "--corpus", str(src), "--k", "3", "--seed", "1",
            "--output", str(out), "--manifest", str(manifest),
        ]
    )
    assert rc == 0
    assert manifest.exists()
    assert not (tmp_path / "s.meta.json").exists()
    assert read_json(manifest)["k"] == 3


# ---------------------------------------------------------------------------
# optimize


def test_optimize_greedy_writes_artifacts(splits, tmp_path, capsys):
    sample_path, _, _ = splits
    run_dir = tmp_path / "run"
    rc = main(
        ["optimize", "--sample", str(sample_path), "--run-dir", str(run_dir), "--types", "DISO,CHEM"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "greedy search: 10 evaluations" in out
    assert "best micro-F1 1.0000" in out
    assert f"artifacts in {run_dir}" in out

    config = read_json(run_dir / "config.json")
    assert config["overrides"] == []
    assert config["run"]["pipeline"]["token_budget"] == 4096
    assert config["run"]["prompt"] == PromptConfig().to_dict()

    trace = read_json(run_dir / "trace.json")
    assert len(trace["evaluations"]) == 10
    assert trace["evaluations"][0]["bitmask"] == 0
    assert all(e["micro_f1"] == 1.0 for e in trace["evaluations"])
    assert trace["total_backend_calls"] > 0
    assert "wall_clock_seconds" not in trace

    # The oracle ties every configuration at 1.0, so the base mask wins.
    best = read_json(run_dir / "best_config.json")
    assert best["bitmask"] == 0
    assert best["prompt"] == PromptConfig().to_dict()

    meta = read_json(run_dir / "run_meta.json")
    assert meta["strategy"] == "greedy"
    assert meta["evaluations"] == 10
    assert meta["backend_id"] == "cached:" + SAMPLE_ORACLE_ID
    assert meta["backend_calls"] == trace["total_backend_calls"]
    assert meta["search_wall_clock_seconds"] > 0
    cache_dir = run_dir / "generations"
    assert cache_dir.is_dir() and any(cache_dir.iterdir())


def test_optimize_no_cache_leaves_no_cache_dir(splits, tmp_path):
    sample_path, _, _ = splits
    run_dir = tmp_path / "run"
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(run_dir),
            "--types", "DISO", "--no-cache",
        ]
    )
    assert rc == 0
    assert not (run_dir / "generations").exists()
    assert read_json(run_dir / "run_meta.json")["backend_id"] == SAMPLE_ORACLE_ID


def test_optimize_in_an_unsupported_language_leaves_no_run_dir(splits, tmp_path, capsys):
    sample_path, _, _ = splits
    run_dir = tmp_path / "run-de"
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(run_dir),
            "--types", "DISO", "--language", "de",
        ]
    )
    assert rc == 1
    assert "unsupported prompt language 'de'" in capsys.readouterr().err
    assert not run_dir.exists()


def test_optimize_cache_dir_flag_redirects_the_cache(splits, tmp_path):
    sample_path, _, _ = splits
    run_dir = tmp_path / "run"
    cache = tmp_path / "cache"
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(run_dir),
            "--types", "DISO", "--cache-dir", str(cache),
        ]
    )
    assert rc == 0
    assert any(cache.iterdir())
    assert not (run_dir / "generations").exists()


def test_optimize_reruns_are_byte_identical(splits, tmp_path):
    sample_path, _, _ = splits
    argv = lambda d: [
        "optimize", "--sample", str(sample_path), "--run-dir", str(d), "--types", "DISO,CHEM",
    ]
    assert main(argv(tmp_path / "run1")) == 0
    assert main(argv(tmp_path / "run2")) == 0
    for name in ("trace.json", "best_config.json", "config.json"):
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, name


def test_optimize_grid_needs_acknowledgement(splits, tmp_path, capsys):
    sample_path, _, _ = splits
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--strategy", "grid",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "512" in err


def test_optimize_grid_runs_when_acknowledged(tmp_path, capsys):
    # Two sentences and one type keep the 512 evaluations affordable.
    src = tmp_path / "tiny.jsonl"
    write_corpus(src, 2, seed=9, type_ids=("DISO",))
    run_dir = tmp_path / "run"
    rc = main(
        [
            "optimize", "--sample", str(src), "--run-dir", str(run_dir), "--types", "DISO",
            "--strategy", "grid", "--acknowledge-cost", "--no-cache",
        ]
    )
    assert rc == 0
    trace = read_json(run_dir / "trace.json")
    assert len(trace["evaluations"]) == 512
    assert [e["bitmask"] for e in trace["evaluations"]] == list(range(512))
    meta = read_json(run_dir / "run_meta.json")
    assert meta["strategy"] == "grid"
    assert meta["evaluations"] == 512


def test_optimize_set_overrides_are_recorded_and_applied(splits, tmp_path, caplog):
    sample_path, _, _ = splits
    run_dir = tmp_path / "run"
    with caplog.at_level("INFO", logger="fewner"):
        rc = main(
            [
                "optimize", "--sample", str(sample_path), "--run-dir", str(run_dir),
                "--types", "DISO", "--set", "pipeline.token_budget=2048",
                "--set", "prompt.alt_taggers=true",
            ]
        )
    assert rc == 0
    assert "config override: pipeline.token_budget = 2048" in caplog.text
    config = read_json(run_dir / "config.json")
    assert config["overrides"] == [
        {"key": "pipeline.token_budget", "value": 2048},
        {"key": "prompt.alt_taggers", "value": True},
    ]
    assert config["run"]["pipeline"]["token_budget"] == 2048
    assert config["run"]["prompt"]["alt_taggers"] is True
    # The base configuration of the search starts from the overridden prompt.
    trace = read_json(run_dir / "trace.json")
    assert trace["evaluations"][0]["bitmask"] == PromptConfig(alt_taggers=True).bitmask
    assert trace["evaluations"][0]["features"] == ["alt_taggers"]


def test_optimize_config_file_merges_with_defaults(splits, tmp_path):
    sample_path, _, _ = splits
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pipeline": {"token_budget": 1024}}), encoding="utf-8")
    run_dir = tmp_path / "run"
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(run_dir),
            "--types", "DISO", "--config", str(cfg),
        ]
    )
    assert rc == 0
    merged = read_json(run_dir / "config.json")["run"]
    assert merged["pipeline"]["token_budget"] == 1024
    assert merged["pipeline"]["seed"] == 0  # untouched defaults survive the merge
    assert merged["prompt"] == PromptConfig().to_dict()


@pytest.mark.parametrize(
    "extra",
    [
        ["--config", "does-not-exist.json"],
        ["--set", "no-equals-sign"],
        ["--set", "pipeline.bogus_key=1"],
        ["--types", ","],
        ["--types", "DISO,GHOST"],
        ["--set", "pipeline.token_budget=abc"],
        ["--set", "pipeline.token_budget=0"],
        ["--set", "pipeline.max_new_tokens=0"],
        ["--set", "pipeline.seed=true"],
        ["--set", "pipeline.model_name=7"],
        ["--set", "prompt.base_demo_count=true"],
        ["--set", "prompt.alt_taggers=1"],
        ["--set", "prompt=5"],
        ["--types", "DISO,DISO"],
    ],
)
def test_optimize_config_errors_exit_1(splits, tmp_path, capsys, extra):
    sample_path, _, _ = splits
    base = [
        "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
    ]
    if "--types" not in extra:
        base += ["--types", "DISO"]
    rc = main(base + extra)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("content", UNREADABLE)
def test_optimize_unreadable_config_file_exits_1(splits, tmp_path, capsys, content):
    sample_path, _, _ = splits
    config = tmp_path / "config.json"
    write_input(config, content)
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--config", str(config),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err


@pytest.mark.parametrize("content", [None, *UNREADABLE])
def test_optimize_unreadable_registry_exits_2(splits, tmp_path, capsys, content):
    sample_path, _, _ = splits
    registry = tmp_path / "types.json"
    write_input(registry, content)
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--registry", str(registry),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(registry) in err


@pytest.mark.parametrize("content", ['[1]', '{"DISO": {}}'])
def test_optimize_malformed_registry_exits_2(splits, tmp_path, capsys, content):
    sample_path, _, _ = splits
    registry = tmp_path / "types.json"
    write_input(registry, content)
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--registry", str(registry),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(registry) in err


def test_optimize_rejects_malformed_config_file(splits, tmp_path, capsys):
    sample_path, _, _ = splits
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--config", str(bad),
        ]
    )
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err
    bad.write_text("{not json", encoding="utf-8")
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--config", str(bad),
        ]
    )
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_convert_malformed_jsonl_record_exits_2(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_text('{"text": "fever", "spans": [{"start": 0, "type": "DISO"}]}\n', encoding="utf-8")
    rc = main(
        ["convert", "--input", str(src), "--output", str(tmp_path / "out.conll"),
         "--from", "jsonl", "--to", "conll"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'end'" in err and f"{src}:1" in err


@pytest.mark.parametrize("type_", ["", "DI SO"])
def test_convert_span_type_that_no_bio_tag_can_carry_exits_2(tmp_path, capsys, type_):
    src = tmp_path / "corpus.jsonl"
    span = {"start": 0, "end": 5, "type": type_, "mention": "fever"}
    src.write_text(json.dumps({"text": "fever", "spans": [span]}) + "\n", encoding="utf-8")
    out = tmp_path / "out.conll"
    rc = main(
        ["convert", "--input", str(src), "--output", str(out), "--from", "jsonl", "--to", "conll"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(type_) in err and "sentence" in err
    assert not out.exists()


def test_corrupt_corpus_exits_2(tmp_path, capsys):
    src = tmp_path / "broken.jsonl"
    src.write_text('{"id": "a"\n', encoding="utf-8")
    rc = main(
        ["optimize", "--sample", str(src), "--run-dir", str(tmp_path / "run"), "--types", "DISO"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# predict / evaluate


def test_predict_then_evaluate_is_perfect_with_the_oracle(splits, tmp_path, capsys):
    sample_path, test_path, sentences = splits
    run_dir = tmp_path / "run"
    rc = main(
        [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(run_dir), "--types", "DISO,CHEM",
        ]
    )
    assert rc == 0
    gold_spans = sum(len(s.spans) for s in sentences[6:])
    assert f"predicted {gold_spans} spans over 6 sentences" in capsys.readouterr().out
    predictions = PredictionSet.from_dict(read_json(run_dir / "predictions.json"))
    assert predictions.total_spans() == gold_spans
    assert read_json(run_dir / "run_meta.json")["n_test_sentences"] == 6

    rc = main(
        [
            "evaluate", "--predictions", str(run_dir / "predictions.json"),
            "--gold", str(test_path), "--run-dir", str(run_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "micro-F1 1.0000" in out
    assert read_json(run_dir / "report.json")["micro"]["f1"] == 1.0
    assert (run_dir / "report.csv").read_text(encoding="utf-8").startswith("type,tp,fp,fn")
    assert "micro" in (run_dir / "report.md").read_text(encoding="utf-8")


def test_predict_with_a_cache_filled_by_another_noise_seed(splits, tmp_path):
    sample_path, test_path, _ = splits
    shared = tmp_path / "cache"

    def predict(seed, run, cache):
        argv = [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(tmp_path / run), "--types", "DISO,CHEM",
            "--backend", "noisy-oracle", "--noise-seed", str(seed),
            "--drop-prob", "0.5", "--spurious-prob", "0.5", *cache,
        ]
        assert main(argv) == 0
        return (tmp_path / run / "predictions.json").read_bytes()

    seed3 = predict(3, "seed3", ["--cache-dir", str(shared)])
    seed4 = predict(4, "seed4", ["--cache-dir", str(shared)])
    assert seed3 == predict(3, "seed3-none", ["--no-cache"])
    assert seed4 == predict(4, "seed4-none", ["--no-cache"])
    assert seed3 != seed4


def test_predict_oracle_with_noise_flags_predicts_what_the_noisy_oracle_does(splits, tmp_path):
    sample_path, test_path, _ = splits

    def predict(backend, run, *noise):
        argv = [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(tmp_path / run), "--types", "DISO,CHEM",
            "--backend", backend, *noise, "--no-cache",
        ]
        assert main(argv) == 0
        meta = read_json(tmp_path / run / "run_meta.json")
        return (tmp_path / run / "predictions.json").read_bytes(), meta["backend_id"]

    noise = ("--noise-seed", "5", "--drop-prob", "0.9", "--spurious-prob", "0.5")
    noisy = predict("oracle", "oracle", *noise)
    assert noisy == predict("noisy-oracle", "noisy-oracle", *noise)
    assert noisy[1].startswith("oracle:5:0.9:0.5:")
    assert noisy[0] != predict("oracle", "gold")[0]


@pytest.mark.parametrize("backend", ["echo", "http"])
@pytest.mark.parametrize(
    "noise", [("--drop-prob", "0.5"), ("--noise-seed", "0"), ("--spurious-prob", "0.1")]
)
def test_predict_refuses_noise_flags_that_the_backend_would_ignore(
    splits, tmp_path, capsys, backend, noise
):
    sample_path, test_path, _ = splits
    argv = [
        "predict", "--sample", str(sample_path), "--test", str(test_path),
        "--run-dir", str(tmp_path / "run"), "--types", "DISO",
        "--backend", backend, *noise, "--no-cache",
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and noise[0] in err


def test_predict_with_a_cache_filled_from_other_gold(splits, tmp_path):
    # The oracle answers from gold, so entries it wrote before a test
    # sentence lost a gold span must not answer it afterwards.
    sample_path, test_path, sentences = splits
    test = list(sentences[6:])
    at = next(i for i, s in enumerate(test) if s.spans)
    test[at] = replace(test[at], spans=test[at].spans[1:])
    edited_path = tmp_path / "edited.jsonl"
    save_corpus(test, edited_path, "jsonl")
    shared = tmp_path / "cache"

    def predict(path, run, cache):
        argv = [
            "predict", "--sample", str(sample_path), "--test", str(path),
            "--run-dir", str(tmp_path / run), "--types", "DISO,CHEM",
            "--backend", "oracle", *cache,
        ]
        assert main(argv) == 0
        return (tmp_path / run / "predictions.json").read_bytes()

    predict(test_path, "original", ["--cache-dir", str(shared)])
    edited = predict(edited_path, "edited", ["--cache-dir", str(shared)])
    assert edited == predict(edited_path, "edited-none", ["--no-cache"])
    predictions = PredictionSet.from_dict(json.loads(edited))
    assert score(predictions, test, ["DISO", "CHEM"]).micro_f1 == 1.0


def test_predict_records_the_settings_it_ran_with(splits, tmp_path):
    sample_path, test_path, _ = splits
    run_dir = tmp_path / "run"
    best = tmp_path / "best_config.json"
    chosen = PromptConfig(alt_taggers=True, intro_sentence=True)
    best.write_text(
        json.dumps({"bitmask": chosen.bitmask, "prompt": chosen.to_dict()}), encoding="utf-8"
    )
    rc = main(
        [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(run_dir), "--types", "DISO", "--best-config", str(best),
            "--model", "m1", "--language", "en", "--set", "pipeline.seed=4",
        ]
    )
    assert rc == 0
    config = read_json(run_dir / "config.json")
    assert config["prompt"] == chosen.to_dict()
    assert config["run"]["pipeline"] == {
        **asdict(PipelineSettings()), "model_name": "m1", "prompt_language": "en", "seed": 4,
    }
    assert config["overrides"] == [
        {"key": "pipeline.seed", "value": 4},
        {"key": "pipeline.prompt_language", "value": "en"},
        {"key": "pipeline.model_name", "value": "m1"},
    ]
    meta = read_json(run_dir / "run_meta.json")
    assert (meta["model_name"], meta["prompt_language"], meta["seed"]) == ("m1", "en", 4)


def test_predict_best_config_changes_the_prompts(splits, tmp_path):
    sample_path, test_path, _ = splits
    run_dir = tmp_path / "run"
    argv = [
        "predict", "--sample", str(sample_path), "--test", str(test_path),
        "--run-dir", str(run_dir), "--types", "DISO",
    ]
    assert main(argv) == 0
    cache = run_dir / "generations"
    baseline_entries = len(list(cache.iterdir()))
    # A rerun with the same configuration hits the cache and adds nothing.
    assert main(argv) == 0
    assert len(list(cache.iterdir())) == baseline_entries

    best = tmp_path / "best_config.json"
    chosen = PromptConfig(alt_taggers=True)
    best.write_text(
        json.dumps({"bitmask": chosen.bitmask, "prompt": chosen.to_dict()}), encoding="utf-8"
    )
    assert main(argv + ["--best-config", str(best)]) == 0
    # Alternate taggers rewrite every prompt, so fresh cache entries appear.
    assert len(list(cache.iterdir())) > baseline_entries
    predictions = PredictionSet.from_dict(read_json(run_dir / "predictions.json"))
    gold = load_corpus(test_path, "jsonl")
    assert score(predictions, gold, ["DISO"]).micro_f1 == 1.0


@pytest.mark.parametrize(
    "content",
    [
        None, "{not json", "[1]", '{"bitmask": 0}',
        '{"prompt": {"base_demo_count": "x"}}', '{"prompt": {"alt_taggers": "yes"}}',
        *UNREADABLE,
    ],
)
def test_predict_bad_best_config_file_exits_1(splits, tmp_path, capsys, content):
    sample_path, test_path, _ = splits
    best = tmp_path / "best_config.json"
    write_input(best, content)
    rc = main(
        [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(tmp_path / "run"), "--types", "DISO", "--best-config", str(best),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        None, "{not json", "[]", '{"sentences": []}',
        '{"sentences": {"syn-en-0006": {"DISO": [{"start": 0, "type": "DISO", "mention": "x"}]}}}',
        '{"sentences": {"syn-en-0006": {"DISO": [{"start": [], "end": 1, "type": "DISO", '
        '"mention": "x"}]}}}',
        *UNREADABLE,
    ],
)
def test_evaluate_bad_predictions_file_exits_2(splits, tmp_path, capsys, content):
    _, test_path, _ = splits
    predictions = tmp_path / "predictions.json"
    write_input(predictions, content)
    rc = main(
        [
            "evaluate", "--predictions", str(predictions), "--gold", str(test_path),
            "--run-dir", str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_restricts_to_requested_types(splits, tmp_path):
    sample_path, test_path, _ = splits
    run_dir = tmp_path / "run"
    assert main(
        [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(run_dir), "--types", "DISO,CHEM",
        ]
    ) == 0
    assert main(
        [
            "evaluate", "--predictions", str(run_dir / "predictions.json"),
            "--gold", str(test_path), "--run-dir", str(run_dir), "--types", "DISO",
        ]
    ) == 0
    assert list(read_json(run_dir / "report.json")["per_type"]) == ["DISO"]


def test_evaluate_unknown_sentence_exits_2(splits, tmp_path, capsys):
    _, test_path, _ = splits
    predictions = tmp_path / "predictions.json"
    predictions.write_text(
        json.dumps({"diagnostics": {}, "sentences": {"ghost": {"DISO": []}}}), encoding="utf-8"
    )
    rc = main(
        [
            "evaluate", "--predictions", str(predictions), "--gold", str(test_path),
            "--run-dir", str(tmp_path / "run"),
        ]
    )
    assert rc == 2
    assert "ghost" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("the command went on past its directory checks")


@pytest.mark.parametrize("command", ["optimize", "predict"])
@pytest.mark.parametrize(
    "file, run_dir, flags",
    [
        pytest.param("run", "run", ["--no-cache"], id="run-dir-no-cache"),
        pytest.param("run", "run", [], id="run-dir"),
        pytest.param("file", "file/run", ["--no-cache"], id="run-dir-under-a-file"),
        pytest.param("run/generations", "run", [], id="default-cache-dir"),
        pytest.param("cache", "run", ["--cache-dir", "cache"], id="cache-dir"),
    ],
)
def test_a_file_where_a_directory_goes_exits_1_before_any_request(
    splits, tmp_path, monkeypatch, capsys, command, file, run_dir, flags
):
    sample_path, test_path, _ = splits
    monkeypatch.chdir(tmp_path)
    Path(file).parent.mkdir(parents=True, exist_ok=True)
    Path(file).write_text("keep\n", encoding="utf-8")
    monkeypatch.setattr("fewner.cli.greedy_search", _refuse)
    monkeypatch.setattr(PromptingPipeline, "predict", _refuse)
    test = ["--test", str(test_path)] if command == "predict" else []
    rc = main(
        [command, "--sample", str(sample_path), *test, "--run-dir", run_dir, "--types", "DISO",
         *flags]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{file} is not a directory" in err
    assert Path(file).read_text(encoding="utf-8") == "keep\n"


def test_evaluate_into_a_run_dir_that_is_a_file_exits_1(splits, tmp_path, capsys):
    _, test_path, _ = splits
    predictions = tmp_path / "predictions.json"
    predictions.write_text(PredictionSet().to_json(), encoding="utf-8")
    run_dir = tmp_path / "run"
    run_dir.write_text("keep\n", encoding="utf-8")
    rc = main(
        [
            "evaluate", "--predictions", str(predictions), "--gold", str(test_path),
            "--run-dir", str(run_dir),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: run dir {run_dir}: {run_dir} is not a directory\n"
    assert run_dir.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sample", "--output", "file/s.jsonl"], id="sample"),
        pytest.param(["sample", "--output", "s.jsonl", "--manifest", "file/m.json"], id="manifest"),
        pytest.param(["convert", "--to", "conll", "--output", "file/x.conll"], id="convert"),
        pytest.param(["convert", "--to", "brat", "--output", "file/brat"], id="convert-brat"),
        pytest.param(["carbon", "--runtime-h", "1", "--output", "file/c.json"], id="carbon"),
    ],
)
def test_an_output_under_a_file_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("c.jsonl"), 12, seed=5)
    Path("file").write_text("keep\n", encoding="utf-8")
    inputs = {
        "sample": ["--corpus", "c.jsonl", "--k", "3", "--seed", "1"],
        "convert": ["--input", "c.jsonl", "--from", "jsonl"],
        "carbon": [],
    }[argv[0]]
    assert main([*argv, *inputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output directory file") and err.endswith(
        ": file is not a directory\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "file"]
    assert Path("file").read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        pytest.param(["sample", "--output", "dir"], "output file", id="sample"),
        pytest.param(
            ["sample", "--output", "s.jsonl", "--manifest", "dir"], "manifest file", id="manifest"
        ),
        pytest.param(["convert", "--to", "conll", "--output", "dir"], "output file", id="conll"),
        pytest.param(["convert", "--to", "jsonl", "--output", "dir"], "output file", id="jsonl"),
        pytest.param(["carbon", "--runtime-h", "1", "--output", "dir"], "output file", id="carbon"),
    ],
)
def test_an_output_file_that_is_a_directory_exits_1_and_writes_nothing(
    tmp_path, monkeypatch, capsys, argv, what
):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("c.jsonl"), 12, seed=5)
    Path("dir").mkdir()
    inputs = {
        "sample": ["--corpus", "c.jsonl", "--k", "3", "--seed", "1"],
        "convert": ["--input", "c.jsonl", "--from", "jsonl"],
        "carbon": [],
    }[argv[0]]
    assert main([*argv, *inputs]) == 1
    assert capsys.readouterr().err == f"error: {what} dir is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "dir"]
    assert list(Path("dir").iterdir()) == []


@pytest.mark.parametrize(
    "outputs, message",
    [
        pytest.param(
            ["--output", "s.jsonl", "--manifest", "s.jsonl"],
            "output file and manifest file are the same file: s.jsonl", id="same",
        ),
        pytest.param(
            ["--output", "s.jsonl", "--manifest", "sub/../s.jsonl"],
            "output file and manifest file are the same file: s.jsonl", id="same-resolved",
        ),
        pytest.param(
            ["--output", "c.jsonl"], "output file c.jsonl is the corpus", id="output-corpus",
        ),
        pytest.param(
            ["--output", "s.jsonl", "--manifest", "./c.jsonl"],
            "manifest file c.jsonl is the corpus", id="manifest-corpus",
        ),
    ],
)
def test_sample_to_one_file_twice_or_to_its_corpus_exits_1_and_writes_nothing(
    tmp_path, monkeypatch, capsys, outputs, message
):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("c.jsonl"), 12, seed=5)
    Path("sub").mkdir()
    corpus = Path("c.jsonl").read_bytes()
    argv = ["sample", "--corpus", "c.jsonl", "--k", "3", "--seed", "1", *outputs]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "sub"]
    assert Path("c.jsonl").read_bytes() == corpus


def test_sample_through_a_link_to_its_manifest_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("c.jsonl"), 12, seed=5)
    Path("m.json").write_text("keep\n", encoding="utf-8")
    Path("link.json").symlink_to("m.json")
    argv = ["sample", "--corpus", "c.jsonl", "--k", "3", "--seed", "1",
            "--output", "link.json", "--manifest", "m.json"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: output file and manifest file")
    assert Path("m.json").read_text(encoding="utf-8") == "keep\n"
    assert not Path("s.jsonl").exists()


def test_convert_to_brat_writes_into_an_existing_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("c.jsonl"), 4, seed=5)
    Path("dir").mkdir()
    assert main(["convert", "--input", "c.jsonl", "--from", "jsonl", "--to", "brat",
                 "--output", "dir"]) == 0
    assert list(Path("dir").iterdir())


def test_sample_and_convert_make_the_directory_of_their_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sentences = write_corpus(Path("c.jsonl"), 12, seed=5)
    assert main(["sample", "--corpus", "c.jsonl", "--k", "3", "--seed", "1",
                 "--output", "new/s.jsonl"]) == 0
    assert len(load_corpus("new/s.jsonl", "jsonl")) == 3 and Path("new/s.meta.json").is_file()
    assert main(["convert", "--input", "c.jsonl", "--from", "jsonl", "--to", "jsonl",
                 "--output", "other/c.jsonl"]) == 0
    assert load_corpus("other/c.jsonl", "jsonl") == sentences


# ---------------------------------------------------------------------------
# backends over HTTP


def test_http_backend_requires_the_env_var(splits, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FEWNER_API_BASE", raising=False)
    sample_path, _, _ = splits
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--backend", "http",
        ]
    )
    assert rc == 1
    assert "FEWNER_API_BASE" in capsys.readouterr().err


def test_http_protocol_failure_exits_3(splits, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FEWNER_API_BASE", "http://api.test")
    # A client error is not retried, so the run fails fast with exit code 3.
    monkeypatch.setattr(
        "fewner.backend._requests_transport",
        lambda url, headers, payload, timeout_s: (400, '{"error": "nope"}'),
    )
    sample_path, _, _ = splits
    rc = main(
        [
            "optimize", "--sample", str(sample_path), "--run-dir", str(tmp_path / "run"),
            "--types", "DISO", "--backend", "http", "--no-cache",
        ]
    )
    assert rc == 3
    assert "HTTP 400" in capsys.readouterr().err


class ModelEndpoint:
    """Stands in for the HTTP transport: answers each request with the
    backend its payload's model names, and records (model, prompt) pairs."""

    def __init__(self, monkeypatch, answers):
        self.answers = answers
        self.sent: list[tuple[str, str]] = []
        monkeypatch.setenv("FEWNER_API_BASE", "http://api.test")
        monkeypatch.setattr("fewner.backend._requests_transport", self)

    def __call__(self, url, headers, payload, timeout_s):
        self.sent.append((payload["model"], payload["prompt"]))
        request = GenerationRequest(payload["prompt"], payload["max_tokens"])
        completion = self.answers[payload["model"]].generate(request)
        return 200, json.dumps({"choices": [{"text": completion}]})


def test_predict_caches_each_model_apart(splits, registry, tmp_path, monkeypatch):
    sample_path, test_path, sentences = splits
    types = [registry["DISO"], registry["CHEM"]]
    endpoint = ModelEndpoint(
        monkeypatch, {"a": OracleBackend(sentences, types), "b": EchoBackend()}
    )
    cache = tmp_path / "cache"

    def predict(model):
        run_dir = tmp_path / model
        argv = [
            "predict", "--sample", str(sample_path), "--test", str(test_path),
            "--run-dir", str(run_dir), "--types", "DISO,CHEM", "--backend", "http",
            "--model", model, "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        predicted = read_json(run_dir / "predictions.json")["sentences"]
        return sum(len(rows) for per_type in predicted.values() for rows in per_type.values())

    assert predict("a") == sum(len(s.spans) for s in sentences[6:])
    # Model b shares the cache directory but none of model a's answers.
    assert predict("b") == 0
    sent = Counter(model for model, _ in endpoint.sent)
    assert sent["a"] > 0 and sent["b"] == sent["a"]


@pytest.mark.parametrize(
    "flags, seed",
    [
        (["--seed", "7", "--language", "fr", "--model", "123"], 7),
        (["--set", "pipeline.prompt_language=fr"], 0),
    ],
)
def test_optimize_runs_and_records_the_pipeline_settings(
    tmp_path, monkeypatch, flags, seed
):
    sentences, types = synthetic_corpus(6, seed=21, language="fr", type_ids=("DISO",))
    sample_path = tmp_path / "sample.jsonl"
    save_corpus(sentences, sample_path, "jsonl")
    oracle = OracleBackend(sentences, types)
    endpoint = ModelEndpoint(monkeypatch, {"": oracle, "123": oracle})
    run_dir = tmp_path / "run"
    argv = [
        "optimize", "--sample", str(sample_path), "--run-dir", str(run_dir),
        "--types", "DISO", "--backend", "http", "--no-cache",
        "--set", "prompt.prompt_language_native=true",
    ]
    assert main(argv + flags) == 0

    # The run prompts with the given seed, as the library does, and in
    # French while prompt_language_native is on.
    expected: list[str] = []
    pipeline = PromptingPipeline(
        sentences,
        types,
        oracle,
        PipelineSettings(prompt_language="fr", seed=seed),
        observer=lambda prompt, held_out_id: expected.append(prompt.text),
    )
    greedy_search(pipeline, PromptConfig(prompt_language_native=True))
    prompts = [prompt for _, prompt in endpoint.sent]
    assert "Entrée :" in prompts[0]
    assert Counter(prompts) == Counter(expected)

    config = read_json(run_dir / "config.json")
    pipeline_config = config["run"]["pipeline"]
    assert pipeline_config["prompt_language"] == "fr"
    assert pipeline_config["seed"] == seed
    overrides = {o["key"]: o["value"] for o in config["overrides"]}
    assert overrides["pipeline.prompt_language"] == "fr"
    if "--model" in flags:
        assert overrides == {
            "prompt.prompt_language_native": True,
            "pipeline.prompt_language": "fr",
            "pipeline.seed": 7,
            "pipeline.model_name": "123",
        }
        assert pipeline_config["model_name"] == "123"
        assert {model for model, _ in endpoint.sent} == {"123"}


# ---------------------------------------------------------------------------
# carbon


def test_carbon_prints_the_estimate(capsys):
    rc = main(["carbon", "--runtime-h", "2"])
    assert rc == 0
    assert "513.77 gCO2e for 2.0 h (1.0816 kWh after PUE)" in capsys.readouterr().out


def test_carbon_simple_hand_check(capsys):
    rc = main(
        [
            "carbon", "--runtime-h", "1", "--device-w", "300", "--usage-factor", "1",
            "--memory-gb", "0", "--pue", "1", "--intensity", "100",
        ]
    )
    assert rc == 0
    assert "30.00 gCO2e for 1.0 h (0.3000 kWh after PUE)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--runtime-h", "-1"],
        ["--runtime-h", "nan"],
        ["--runtime-h", "1", "--pue", "-1"],
        ["--runtime-h", "1", "--intensity", "nan"],
        ["--runtime-h", "1", "--memory-gb", "inf"],
    ],
)
def test_carbon_rejects_a_negative_or_non_finite_value(flags, tmp_path, capsys):
    out = tmp_path / "carbon.json"
    rc = main(["carbon", *flags, "--output", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "gCO2e" not in captured.out and not out.exists()


def test_carbon_output_file_matches_the_library(tmp_path):
    out = tmp_path / "carbon.json"
    rc = main(["carbon", "--runtime-h", "2", "--output", str(out)])
    assert rc == 0
    expected = estimate_carbon(2.0, HardwareProfile(), GridProfile())
    assert read_json(out) == expected.to_dict()
