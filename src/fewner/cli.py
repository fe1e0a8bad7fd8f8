"""Command line entry points.

Subcommands: convert (between corpus formats), sample (draw the k-sentence
annotated sample), optimize (search feature configurations by leave-one-out
micro-F1), predict (annotate a test corpus with a chosen configuration),
evaluate (score predictions against gold), carbon (estimate emissions).

Run configuration comes from built-in defaults, optionally deep-merged with
a JSON file (--config) and then dotted --set overrides (--set pipeline.seed=3).
In optimize and predict, --language, --seed and --model are shorthands for
the pipeline settings prompt_language, seed and model_name, applied after
--set.  Every override is logged, and optimize and predict record them in
config.json.
Artifacts that describe results (trace, best_config, predictions, reports)
are written deterministically; wall-clock timing and timestamps go to
run_meta.json only.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from .backend import (
    CachedBackend,
    DiskCache,
    EchoBackend,
    HttpCompletionBackend,
    OracleBackend,
    make_noisy_oracle,
)
from .corpus import (
    CORPUS_FORMATS,
    load_corpus,
    load_entity_types,
    sample_fewshot,
    save_corpus,
)
from .decode import PredictionSet
from .errors import BackendError, ConfigError, DataError, FewnerError
from .evaluation import GridProfile, HardwareProfile, estimate_carbon, score
from .search import PipelineSettings, PromptingPipeline, greedy_search, grid_search
from .templates import PromptConfig

logger = logging.getLogger("fewner")

_EXIT_CODES = [(ConfigError, 1), (DataError, 2), (BackendError, 3)]


# (flag attribute, run config key) of the pipeline setting shorthands.
_SHORTHANDS = (
    ("language", "pipeline.prompt_language"),
    ("seed", "pipeline.seed"),
    ("model", "pipeline.model_name"),
)


def default_run_config() -> dict:
    return {"prompt": PromptConfig().to_dict(), "pipeline": asdict(PipelineSettings())}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _override(config: dict, key: str, value) -> dict:
    """Set the dotted key in place, log it, and return its record."""
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        if not isinstance(child, dict):
            raise ConfigError(f"cannot override {key!r}: {part!r} is not a section")
        node = child
    node[parts[-1]] = value
    logger.info("config override: %s = %r", key, value)
    return {"key": key, "value": value}


def apply_overrides(config: dict, assignments: list[str]) -> list[dict]:
    """Apply dotted key=value overrides in place; values parse as JSON when
    possible and fall back to plain strings."""
    applied = []
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        applied.append(_override(config, key, value))
    return applied


def _read_json_object(path: str, what: str, error: type[FewnerError] = ConfigError) -> dict:
    """The JSON object that the input file at path holds; raises error,
    naming the file as what, when it is missing, unreadable, not UTF-8,
    not JSON or not an object."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return loaded


def _load_run_config(args) -> tuple[dict, list]:
    config = default_run_config()
    if args.config:
        config = _deep_merge(config, _read_json_object(args.config, "config file"))
    applied = apply_overrides(config, args.set or [])
    for attr, key in _SHORTHANDS:
        value = getattr(args, attr, None)
        if value is not None:
            applied.append(_override(config, key, value))
    return config, applied


def _settings_from(config: dict) -> PipelineSettings:
    try:
        return PipelineSettings(**config.get("pipeline", {}))
    except TypeError as exc:
        raise ConfigError(f"bad pipeline settings: {exc}") from exc


def _prompt_config_from(config: dict) -> PromptConfig:
    return PromptConfig.from_dict(config.get("prompt", {}))


def _resolve_types(spec: str, registry_path: str | None):
    registry = load_entity_types(registry_path)
    type_ids = [t.strip() for t in spec.split(",") if t.strip()]
    if not type_ids:
        raise ConfigError("--types needs at least one entity type id")
    missing = [t for t in type_ids if t not in registry]
    if missing:
        raise ConfigError(f"unknown entity types {missing}; registry has {len(registry)}")
    return [registry[t] for t in type_ids]


def _build_backend(args, run_dir: Path, oracle_sentences, entity_types):
    name = args.backend
    if name == "echo":
        inner = EchoBackend()
    elif name == "oracle":
        inner = OracleBackend(oracle_sentences, entity_types)
    elif name == "noisy-oracle":
        inner = make_noisy_oracle(
            oracle_sentences,
            entity_types,
            seed=args.noise_seed,
            drop_prob=args.drop_prob,
            spurious_prob=args.spurious_prob,
        )
    elif name == "http":
        inner = HttpCompletionBackend.from_env()
    else:
        raise ConfigError(f"unknown backend {name!r}")
    if args.no_cache:
        return inner
    cache_dir = Path(args.cache_dir) if args.cache_dir else run_dir / "generations"
    return CachedBackend(inner, DiskCache(cache_dir))


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    _write(path, json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def _run_meta(started: float, pipeline, extra: dict) -> dict:
    return {
        "wall_clock_seconds": time.monotonic() - started,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "backend_calls": pipeline.backend_calls,
        "backend_id": pipeline.backend.backend_id,
        **extra,
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_convert(args) -> int:
    corpus = load_corpus(args.input, args.from_format, language=args.language)
    save_corpus(corpus, args.output, args.to_format)
    print(f"wrote {len(corpus)} sentences to {args.output} ({args.to_format})")
    return 0


def cmd_sample(args) -> int:
    corpus = load_corpus(args.corpus, args.format, language=args.language)
    sample = sample_fewshot(corpus, args.k, args.seed, source_corpus=str(args.corpus))
    by_id = {s.id: s for s in corpus}
    save_corpus([by_id[sid] for sid in sample.sentence_ids], args.output, "jsonl")
    manifest = Path(args.manifest) if args.manifest else Path(args.output).with_suffix(".meta.json")
    _write_json(
        manifest,
        {
            "k": sample.k,
            "p": sample.p,
            "sentence_ids": list(sample.sentence_ids),
            "source_corpus": sample.source_corpus,
        },
    )
    print(f"sampled {sample.k} sentences with seed {sample.p} -> {args.output}")
    return 0


def cmd_optimize(args) -> int:
    run_dir = Path(args.run_dir)
    config, applied = _load_run_config(args)
    settings = _settings_from(config)
    sample = load_corpus(args.sample, args.format, language=settings.prompt_language)
    types = _resolve_types(args.types, args.registry)
    backend = _build_backend(args, run_dir, sample, types)
    pipeline = PromptingPipeline(sample, types, backend, settings)
    base = _prompt_config_from(config)
    started = time.monotonic()
    if args.strategy == "greedy":
        best, trace = greedy_search(pipeline, base, second_pass=args.second_pass)
    else:
        best, trace = grid_search(pipeline, base, acknowledge_cost=args.acknowledge_cost)
    best_f1 = max(e.micro_f1 for e in trace.evaluations)
    _write_json(run_dir / "config.json", {"run": config, "overrides": applied})
    _write(run_dir / "trace.json", trace.to_json() + "\n")
    _write_json(
        run_dir / "best_config.json",
        {"bitmask": best.bitmask, "prompt": best.to_dict()},
    )
    _write_json(
        run_dir / "run_meta.json",
        _run_meta(
            started,
            pipeline,
            {
                "strategy": args.strategy,
                "evaluations": len(trace.evaluations),
                "search_wall_clock_seconds": trace.wall_clock_seconds,
            },
        ),
    )
    print(
        f"{args.strategy} search: {len(trace.evaluations)} evaluations, "
        f"best micro-F1 {best_f1:.4f}, features {list(best.enabled_features())}"
    )
    print(f"artifacts in {run_dir}")
    return 0


def cmd_predict(args) -> int:
    run_dir = Path(args.run_dir)
    config, applied = _load_run_config(args)
    settings = _settings_from(config)
    sample = load_corpus(args.sample, args.format, language=settings.prompt_language)
    test = load_corpus(args.test, args.format, language=settings.prompt_language)
    types = _resolve_types(args.types, args.registry)
    if args.best_config:
        prompt = _read_json_object(args.best_config, "best config file").get("prompt")
        if not isinstance(prompt, dict):
            raise ConfigError(f"best config file {args.best_config} has no prompt object")
        prompt_config = PromptConfig.from_dict(prompt)
    else:
        prompt_config = _prompt_config_from(config)
    # The oracle backends answer from gold, so they must know the test
    # sentences too; a sentence present in both corpora counts once.
    union = {s.id: s for s in list(test) + list(sample)}
    backend = _build_backend(args, run_dir, list(union.values()), types)
    pipeline = PromptingPipeline(sample, types, backend, settings)
    started = time.monotonic()
    predictions = pipeline.predict(prompt_config, test)
    _write_json(
        run_dir / "config.json",
        {"run": config, "overrides": applied, "prompt": prompt_config.to_dict()},
    )
    _write(run_dir / "predictions.json", predictions.to_json() + "\n")
    _write_json(
        run_dir / "run_meta.json",
        _run_meta(
            started,
            pipeline,
            {
                "n_test_sentences": len(test),
                "model_name": settings.model_name,
                "prompt_language": settings.prompt_language,
                "seed": settings.seed,
            },
        ),
    )
    print(
        f"predicted {predictions.total_spans()} spans over {len(test)} sentences "
        f"-> {run_dir / 'predictions.json'}"
    )
    return 0


def cmd_evaluate(args) -> int:
    predictions = PredictionSet.from_dict(
        _read_json_object(args.predictions, "predictions file", DataError)
    )
    gold = load_corpus(args.gold, args.format, language=args.language)
    type_ids = None
    if args.types:
        type_ids = [t.id for t in _resolve_types(args.types, args.registry)]
    report = score(predictions, gold, type_ids)
    out_dir = Path(args.run_dir)
    _write(out_dir / "report.json", report.to_json() + "\n")
    _write(out_dir / "report.csv", report.to_csv())
    _write(out_dir / "report.md", report.to_markdown() + "\n")
    print(
        f"micro-F1 {report.micro_f1:.4f} (P {report.micro_precision:.4f} / "
        f"R {report.micro_recall:.4f}), macro-F1 {report.macro_f1:.4f} "
        f"over {len(report.per_type)} types"
    )
    return 0


def cmd_carbon(args) -> int:
    hardware = HardwareProfile(
        device_power_w=args.device_w,
        usage_factor=args.usage_factor,
        memory_gb=args.memory_gb,
        memory_w_per_gb=args.memory_w_per_gb,
    )
    grid = GridProfile(pue=args.pue, carbon_intensity_g_per_kwh=args.intensity)
    estimate = estimate_carbon(args.runtime_h, hardware, grid)
    if args.output:
        _write_json(Path(args.output), estimate.to_dict())
    print(
        f"{estimate.co2e_g:.2f} gCO2e for {args.runtime_h} h "
        f"({estimate.adjusted_energy_kwh:.4f} kWh after PUE)"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_corpus_args(p, language="en"):
    p.add_argument("--format", default="jsonl", choices=CORPUS_FORMATS, help="corpus file format")
    p.add_argument("--language", default=language, help="corpus language code")


def _add_backend_args(p):
    p.add_argument(
        "--backend",
        default="oracle",
        choices=("echo", "oracle", "noisy-oracle", "http"),
        help="completion backend",
    )
    p.add_argument("--noise-seed", type=int, default=0, help="noisy oracle seed")
    p.add_argument("--drop-prob", type=float, default=0.0, help="noisy oracle miss rate")
    p.add_argument(
        "--spurious-prob", type=float, default=0.0, help="noisy oracle false-positive rate"
    )
    p.add_argument("--cache-dir", default=None, help="completion cache directory")
    p.add_argument("--no-cache", action="store_true", help="disable the completion cache")


def _add_config_args(p):
    p.add_argument("--model", default=None, help="model name sent with every request")
    p.add_argument("--config", default=None, help="JSON run configuration file")
    p.add_argument(
        "--set",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="dotted config override, e.g. --set pipeline.token_budget=2048",
    )
    p.add_argument("--registry", default=None, help="entity type registry JSON path")
    p.add_argument("--types", required=True, help="comma-separated entity type ids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewner",
        description="True few-shot NER prompting: sampling, feature search, "
        "prediction, evaluation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a corpus between formats")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--from", dest="from_format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--to", dest="to_format", required=True, choices=CORPUS_FORMATS)
    p.add_argument("--language", default="en")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("sample", help="draw the k-sentence annotated sample")
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="sampling seed p")
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", default=None)
    _add_corpus_args(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("optimize", help="search feature configurations by LOOCV micro-F1")
    p.add_argument("--sample", required=True, help="annotated sample corpus")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--strategy", default="greedy", choices=("greedy", "grid"))
    p.add_argument(
        "--acknowledge-cost",
        action="store_true",
        help="confirm the 512-evaluation grid search",
    )
    p.add_argument(
        "--second-pass",
        action="store_true",
        help="retry rejected features once after the greedy sweep",
    )
    p.add_argument("--seed", type=int, default=None, help="pipeline seed")
    _add_corpus_args(p, language=None)
    _add_backend_args(p)
    _add_config_args(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("predict", help="annotate a test corpus")
    p.add_argument("--sample", required=True, help="annotated sample corpus")
    p.add_argument("--test", required=True, help="test corpus to annotate")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--best-config", default=None, help="best_config.json from optimize")
    _add_corpus_args(p, language=None)
    _add_backend_args(p)
    _add_config_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--types", default=None, help="comma-separated entity type ids")
    p.add_argument("--registry", default=None)
    _add_corpus_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("carbon", help="estimate emissions for a runtime")
    p.add_argument("--runtime-h", type=float, required=True)
    p.add_argument("--device-w", type=float, default=HardwareProfile.device_power_w)
    p.add_argument("--usage-factor", type=float, default=HardwareProfile.usage_factor)
    p.add_argument("--memory-gb", type=float, default=HardwareProfile.memory_gb)
    p.add_argument(
        "--memory-w-per-gb", type=float, default=HardwareProfile.memory_w_per_gb
    )
    p.add_argument("--pue", type=float, default=GridProfile.pue)
    p.add_argument("--intensity", type=float, default=GridProfile.carbon_intensity_g_per_kwh)
    p.add_argument("--output", default=None, help="write the estimate as JSON here")
    p.set_defaults(func=cmd_carbon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except FewnerError as exc:
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
