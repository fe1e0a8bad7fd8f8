"""The benchmark's three workloads.

Each pass of a workload sets up from scratch (timed as set-up), runs its
timed phase once with a cold cache, then, untimed, collects and checks what
the program produced.  Inputs derive from the workload seed alone; at
``PINNED_SEED`` the outputs must also equal the values pinned below.

* grid-b0: ``grid_search`` over all 512 masks on B0 (``synthetic_corpus(400,
  seed)``, k=10, DISO and CHEM, noisy oracle with drop 0.2 and spurious 0.3)
  behind an in-memory cache.  The model answers instantly, so host-side
  work in the search, prompt and cache layers is all there is.
* greedy-remote: ``greedy_search(second_pass=True)`` at k=20 on the same
  corpus, through ``HttpCompletionBackend`` and a fake endpoint that sleeps
  5 ms per call and fails about 2% of attempts, behind a cold ``DiskCache``.
  Waiting on the model dominates.
* predict-cli: ``fewner sample`` (set-up), then ``fewner predict`` and
  ``fewner evaluate`` on a 2000-sentence synthetic jsonl corpus with mask
  100 and the default, cold disk cache.  It covers corpus I/O, the CLI and
  cache writes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import fewner.cli
import fewner.corpus
import fewner.search
import fewner.synthetic
from fewner.backend import CachedBackend, DiskCache, HttpCompletionBackend, make_noisy_oracle
from fewner.search import PipelineSettings, PromptingPipeline
from fewner.templates import FEATURE_NAMES, PromptConfig

from .fakes import CallCounter, FakeTransport, MemoryStore
from .tracing import Hooks, Tracer

TYPES = ("DISO", "CHEM")
DROP_PROB = 0.2
SPURIOUS_PROB = 0.3
PREDICT_MASK = 100  # self_verification, specialist_persona, label_definitions

PINNED_SEED = 3
PINNED = {
    "grid-b0": {
        "trace_sha256": "a803d43e341c9bfb36fef7290de8061b865e076eb8ee3b844c75a5fcb7ee0732",
        "best_mask": 4,
        "evaluations": 512,
        "requests": 14080,
        "model_calls": 2664,
    },
    "greedy-remote": {
        "trace_sha256": "b85e35d4024fdf24c341894998d6347143b74427943554bf20472570556ae579",
        "best_mask": 4,
        "evaluations": 18,
        "requests": 1215,
        "model_calls": 492,
    },
    "predict-cli": {
        "predictions_sha256": "4e89f5c042ba93f3fc319b2a3ee082f16b4dd148074d10a406692205192ab6a9",
        "micro_f1": 0.8862185505069471,
        "sentences": 1990,
        "requests": 7506,
        "model_calls": 7506,
    },
}


@dataclass
class Pass:
    """What one pass measured and produced.

    outputs must be identical across the passes of a run; counts feed the
    metrics; checks maps each output check to whether it held.  Each set-up
    and the timed phase have a wall time and the process's CPU time.
    """

    setup_s: list[float] = field(default_factory=list)
    setup_cpu_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    evaluations: int = 0
    outputs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    error: str | None = None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dir_usage(path: Path) -> tuple[int, int]:
    """Files under path and their total size in bytes."""
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _timed(step, arg):
    """step(arg), its wall time and the process's CPU time over it."""
    wall, cpu = time.perf_counter(), time.process_time()
    out = step(arg)
    return out, time.perf_counter() - wall, time.process_time() - cpu


class Workload:
    """Set-up, timed phase and output checks of one workload at one seed."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        """Write the generated inputs, once per run and untimed."""

    def hook(self, hooks: Hooks, tracer: Tracer | None) -> None:
        """Install counters where the program builds its own backend."""

    def setup(self, tracer: Tracer | None):
        raise NotImplementedError

    def execute(self, state):
        """The timed phase."""
        raise NotImplementedError

    def collect(self, state, produced) -> Pass:
        """Read and check the outputs of the timed phase."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Drop what a pass left behind, so the next starts cold."""

    def run_pass(self, tracer: Tracer | None = None, setups: int = 1) -> Pass:
        setup_s: list[float] = []
        setup_cpu_s: list[float] = []
        wall = cpu = 0.0
        with Hooks() as hooks:
            if tracer is not None:
                tracer.install(hooks)
            self.hook(hooks, tracer)
            try:
                for _ in range(setups):
                    self.cleanup()
                    state, s_wall, s_cpu = _timed(self.setup, tracer)
                    setup_s.append(s_wall)
                    setup_cpu_s.append(s_cpu)
                produced, wall, cpu = _timed(self.execute, state)
                result = self.collect(state, produced)
            except Exception as exc:  # a failed request or a program error
                result = Pass(error=f"{type(exc).__name__}: {exc}")
        self.cleanup()
        result.setup_s, result.setup_cpu_s = setup_s, setup_cpu_s
        result.wall_s, result.cpu_s = wall, cpu
        result.counts["missing_hooks"] = list(hooks.missing)
        return result


# ---------------------------------------------------------------------------
# In-process searches


@dataclass
class SearchState:
    pipeline: PromptingPipeline
    requests: CallCounter
    model: CallCounter
    store: object = None
    transport: FakeTransport | None = None


def _b0(seed: int, corpus_size: int, k: int):
    """The annotated sample, entity types and noisy oracle of B0."""
    corpus, types = fewner.synthetic.synthetic_corpus(corpus_size, seed)
    sample = fewner.corpus.sample_fewshot(corpus, k, seed)
    by_id = {s.id: s for s in corpus}
    annotated = [by_id[sid] for sid in sample.sentence_ids]
    oracle = make_noisy_oracle(
        corpus, types, seed=seed, drop_prob=DROP_PROB, spurious_prob=SPURIOUS_PROB
    )
    return annotated, types, oracle


def _search_pass(state: SearchState, best, trace) -> Pass:
    n = len(trace.evaluations)
    return Pass(
        evaluations=n,
        outputs={
            "trace_sha256": _sha256(trace.to_json()),
            "best_mask": best.bitmask,
            "evaluations": n,
            "requests": state.requests.calls,
            "model_calls": state.model.calls,
        },
        counts={
            "requests": state.requests.calls,
            "model_calls": state.model.calls,
            "peak_in_flight": state.model.peak_in_flight,
        },
    )


class GridB0(Workload):
    name = "grid-b0"
    corpus_size = 400
    k = 10

    def setup(self, tracer):
        annotated, types, oracle = _b0(self.seed, self.corpus_size, self.k)
        model = CallCounter(oracle)
        store = MemoryStore()
        requests = CallCounter(CachedBackend(model, store))
        if tracer is not None:
            tracer.instrument(model, "generate", "model")
            tracer.instrument(requests, "generate", "cache")
            tracer.instrument(store, "get", "cache")
            tracer.instrument(store, "put", "cache")
        pipeline = PromptingPipeline(annotated, types, requests, PipelineSettings(seed=self.seed))
        return SearchState(pipeline, requests, model, store=store)

    def execute(self, state):
        return fewner.search.grid_search(state.pipeline, acknowledge_cost=True)

    def collect(self, state, produced):
        best, trace = produced
        result = _search_pass(state, best, trace)
        scores = [e.micro_f1 for e in trace.evaluations]
        result.checks = {
            "grid visits every mask in order": [e.bitmask for e in trace.evaluations]
            == list(range(1 << len(FEATURE_NAMES))),
            "grid keeps the first best mask": best.bitmask == scores.index(max(scores)),
            "each model call stored once": len(state.store) == state.model.calls,
        }
        return result


class GreedyRemote(Workload):
    name = "greedy-remote"
    corpus_size = 400
    k = 20
    latency_s = 0.005

    @property
    def cache_dir(self) -> Path:
        return self.workdir / "generations"

    def cleanup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def setup(self, tracer):
        annotated, types, oracle = _b0(self.seed, self.corpus_size, self.k)
        transport = FakeTransport(oracle, seed=self.seed, latency_s=self.latency_s)
        send = transport if tracer is None else tracer.wrap(transport, "model.transport", "model")
        http = HttpCompletionBackend("http://model.test", transport=send, backoff_s=0.001)
        model = CallCounter(http)
        requests = CallCounter(CachedBackend(model, DiskCache(self.cache_dir)))
        if tracer is not None:
            tracer.instrument(model, "generate", "http")
            tracer.instrument(requests, "generate", "cache")
        pipeline = PromptingPipeline(annotated, types, requests, PipelineSettings(seed=self.seed))
        return SearchState(pipeline, requests, model, transport=transport)

    def execute(self, state):
        return fewner.search.greedy_search(state.pipeline, second_pass=True)

    def collect(self, state, produced):
        best, trace = produced
        result = _search_pass(state, best, trace)
        transport = state.transport
        files, size = _dir_usage(self.cache_dir)
        result.counts |= {
            "peak_in_flight": transport.peak_in_flight,
            "attempts": transport.attempts,
            "retries": transport.attempts - state.model.calls,
            "cache_files": files,
            "cache_bytes": size,
        }
        # Replay the strict-improvement rule over the trace.
        top, accepted = trace.evaluations[0].micro_f1, trace.evaluations[0]
        for entry in trace.evaluations[1:]:
            if entry.micro_f1 > top:
                top, accepted = entry.micro_f1, entry
        result.checks = {
            "greedy keeps only strict improvements": best.bitmask == accepted.bitmask,
            "each model call cached once": files == state.model.calls,
        }
        return result


# ---------------------------------------------------------------------------
# CLI


class PredictCli(Workload):
    name = "predict-cli"
    corpus_size = 2000
    sample_size = 10

    def prepare(self):
        corpus, _ = fewner.synthetic.synthetic_corpus(self.corpus_size, self.seed)
        fewner.corpus.save_corpus(corpus, self.workdir / "corpus.jsonl", "jsonl")
        sample = fewner.corpus.sample_fewshot(corpus, self.sample_size, self.seed)
        picked = set(sample.sentence_ids)
        self.test = [s for s in corpus if s.id not in picked]
        fewner.corpus.save_corpus(self.test, self.workdir / "test.jsonl", "jsonl")
        best = PromptConfig.from_bitmask(PREDICT_MASK)
        (self.workdir / "best_config.json").write_text(
            json.dumps({"bitmask": PREDICT_MASK, "prompt": best.to_dict()}), encoding="utf-8"
        )

    @property
    def run_dir(self) -> Path:
        return self.workdir / "run"

    def cleanup(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def hook(self, hooks, tracer):
        self.counters = counters = {}

        def count(role, layer, make):
            def build(*args, **kwargs):
                counter = counters[role] = CallCounter(make(*args, **kwargs))
                if tracer is not None:
                    tracer.instrument(counter, "generate", layer)
                return counter

            return build

        hooks.replace("fewner.cli", "make_noisy_oracle", lambda f: count("model", "model", f))
        hooks.replace("fewner.cli", "CachedBackend", lambda f: count("requests", "cache", f))

    def _main(self, *argv: str) -> None:
        code = fewner.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"fewner {argv[0]} exited with {code}")

    def setup(self, tracer):
        self._main(
            "sample",
            "--corpus", str(self.workdir / "corpus.jsonl"),
            "--k", str(self.sample_size),
            "--seed", str(self.seed),
            "--output", str(self.workdir / "sample.jsonl"),
        )
        return self.counters

    def execute(self, counters):
        self._main(
            "predict",
            "--sample", str(self.workdir / "sample.jsonl"),
            "--test", str(self.workdir / "test.jsonl"),
            "--run-dir", str(self.run_dir),
            "--best-config", str(self.workdir / "best_config.json"),
            "--types", ",".join(TYPES),
            "--backend", "noisy-oracle",
            "--noise-seed", str(self.seed),
            "--drop-prob", str(DROP_PROB),
            "--spurious-prob", str(SPURIOUS_PROB),
        )
        self._main(
            "evaluate",
            "--predictions", str(self.run_dir / "predictions.json"),
            "--gold", str(self.workdir / "test.jsonl"),
            "--run-dir", str(self.run_dir),
            "--types", ",".join(TYPES),
        )

    def collect(self, counters, produced):
        predictions = (self.run_dir / "predictions.json").read_text(encoding="utf-8")
        micro = json.loads((self.run_dir / "report.json").read_text(encoding="utf-8"))["micro"]
        files, size = _dir_usage(self.run_dir / "generations")
        result = Pass(
            evaluations=1,
            outputs={"predictions_sha256": _sha256(predictions), "micro_f1": micro["f1"]},
            counts={"cache_files": files, "cache_bytes": size},
        )
        # A counter is absent when its hook target no longer exists.
        if "requests" in counters:
            requests = counters["requests"]
            result.outputs["requests"] = requests.calls
            result.counts["requests"] = requests.calls
        if "model" in counters:
            model = counters["model"]
            result.outputs["model_calls"] = model.calls
            result.counts |= {"model_calls": model.calls, "peak_in_flight": model.peak_in_flight}
            result.checks["each model call cached once"] = files == model.calls

        predicted = json.loads(predictions)["sentences"]
        tp = fp = fn = 0
        for sentence in self.test:
            for type_id in TYPES:
                rows = predicted.get(sentence.id, {}).get(type_id, [])
                guess = Counter((r["start"], r["end"], r["type"]) for r in rows)
                gold = Counter((s.start, s.end, s.type) for s in sentence.spans_of(type_id))
                hit = sum((guess & gold).values())
                tp += hit
                fp += sum(guess.values()) - hit
                fn += sum(gold.values()) - hit
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        result.outputs["sentences"] = len(predicted)
        result.checks |= {
            "every test sentence predicted": set(predicted) == {s.id for s in self.test},
            "report counts match a recount": (micro["tp"], micro["fp"], micro["fn"]) == (tp, fp, fn),
            "report micro-F1 matches a recount": abs(micro["f1"] - f1) < 1e-12,
        }
        return result


WORKLOADS = {w.name: w for w in (GridB0, GreedyRemote, PredictCli)}
