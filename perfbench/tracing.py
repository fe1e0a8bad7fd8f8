"""Spans around the public functions of each fewner layer, and the
per-layer metrics computed from them.

Every hook replaces a name where its caller looks it up (a module global
such as ``fewner.search.fit_to_budget``, or a method on a class), records a
span for each call, and is undone when the traced pass ends.  A span is
``(name, layer, start, end, parent, request)``: parent is the index of the
enclosing span in the same thread, and request numbers one
``PromptingPipeline.annotate`` call, inherited by everything it causes.
Spans stay in memory until the pass ends.

A hook whose target no longer exists is recorded in ``Hooks.missing``; the
metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# (owner, attribute, layer, observer).  The observer, when named, sees each
# call's return value and adds to the pass's tallies.
HOOKS = (
    ("fewner.search", "grid_search", "search", None),
    ("fewner.search", "greedy_search", "search", None),
    ("fewner.search.PromptingPipeline", "evaluate_loocv", "search", None),
    ("fewner.search.PromptingPipeline", "predict", "search", None),
    ("fewner.search.PromptingPipeline", "annotate", "search", None),
    ("fewner.selection", "build_index", "selection", None),
    ("fewner.selection", "select_nearest", "selection", None),
    ("fewner.selection", "select_entity_rich", "selection", None),
    ("fewner.search", "fit_to_budget", "templates", "prompt"),
    ("fewner.search", "render_verification_prompt", "templates", "prompt"),
    ("fewner.search", "estimate_tokens", "templates", None),
    ("fewner.templates", "render_main_prompt", "templates", None),
    ("fewner.templates", "estimate_tokens", "templates", None),
    ("fewner.backend", "request_digest", "cache", None),
    ("fewner.backend.DiskCache", "get", "cache", None),
    ("fewner.backend.DiskCache", "put", "cache", None),
    ("fewner.search", "decode_tagged", "decode", "decoded"),
    ("fewner.search", "decode_listing", "decode", "decoded"),
    ("fewner.search", "parse_verification", "decode", None),
    ("fewner.search", "apply_verification", "decode", None),
    ("fewner.search", "span_match_counts", "evaluation", None),
    ("fewner.search", "f1_from_counts", "evaluation", None),
    ("fewner.cli", "score", "evaluation", None),
    ("fewner.synthetic", "synthetic_corpus", "corpus", None),
    ("fewner.corpus", "sample_fewshot", "corpus", None),
    ("fewner.cli", "sample_fewshot", "corpus", None),
    ("fewner.cli", "load_corpus", "corpus", None),
    ("fewner.cli", "save_corpus", "corpus", None),
    ("fewner.cli", "main", "cli", None),
)

REQUEST_ROOT = "search.annotate"


def _resolve(path: str):
    """The module or class named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return owner
    return None


class Hooks:
    """Replaces names for the length of a ``with`` block and puts them back.

    ``replace`` takes a factory that receives the original and returns the
    stand-in.  A target that does not exist is listed in ``missing``.
    """

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner_path: str, attr: str, factory) -> bool:
        owner = _resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{owner_path}.{attr}")
            return False
        own = attr in vars(owner)
        # vars() keeps a staticmethod/classmethod wrapper intact for undo.
        saved = vars(owner)[attr] if own else None
        setattr(owner, attr, factory(original))
        self._undo.append((owner, attr, saved, own))
        return True

    def __enter__(self) -> "Hooks":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, saved, own = self._undo.pop()
            if own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)


class Tracer:
    """Records spans and tallies for one traced pass."""

    def __init__(self):
        self.records: list[list] = []
        self.tally: Counter[str] = Counter()
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    def wrap(self, fn, name: str, layer: str, observer: str | None = None):
        records, local, clock = self.records, self._local, time.perf_counter
        observe = getattr(self, f"_observe_{observer}") if observer else None
        new_request = name == REQUEST_ROOT

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if new_request:
                request = next(self._requests)
            else:
                request = parent[5] if parent is not None else None
            record = [name, layer, 0.0, 0.0, parent, request]
            records.append(record)
            stack.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def instrument(self, obj, attr: str, layer: str) -> None:
        """Trace one object's method, for objects the benchmark builds."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), f"{layer}.{attr}", layer))

    def install(self, hooks: Hooks) -> None:
        for owner, attr, layer, observer in HOOKS:
            hooks.replace(
                owner,
                attr,
                lambda fn, attr=attr, layer=layer, observer=observer: self.wrap(
                    fn, f"{layer}.{attr}", layer, observer
                ),
            )

    def _observe_prompt(self, prompt) -> None:
        with self._lock:
            self.tally["prompt_tokens"] += prompt.estimated_tokens
            self.tally["dropped_demos"] += prompt.dropped_demos

    def _observe_decoded(self, result) -> None:
        with self._lock:
            self.tally["unmatched"] += result.diagnostics.unmatched_mentions
            self.tally["unbalanced"] += result.diagnostics.unbalanced_tags

    def spans(self) -> list[tuple]:
        """The recorded spans, with parents as indices into the list."""
        index = {id(r): i for i, r in enumerate(self.records)}
        return [
            (name, layer, start, end, None if parent is None else index[id(parent)], request)
            for name, layer, start, end, parent, request in self.records
        ]


def write_spans(spans: list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time_by_layer(spans: list[tuple]) -> dict[str, float]:
    """Seconds per layer not covered by the spans' own children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (_, layer, start, end, _, _) in enumerate(spans):
        out[layer] += (end - start) - _covered(children.get(i, []), start, end)
    return dict(out)


def busy_time(spans: list[tuple], layer: str) -> float:
    """Seconds during which at least one span of the layer was open."""
    intervals = [(s[2], s[3]) for s in spans if s[1] == layer]
    if not intervals:
        return 0.0
    return _covered(intervals, min(i[0] for i in intervals), max(i[1] for i in intervals))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (unit, hook names it needs).  Counts the workloads supply
# (requests, model calls, transport and cache figures) need no hook.
LAYER_METRICS = {
    "templates.ms": ("ms", ("templates.*",)),
    "templates.token_count_ms": ("ms", ("templates.estimate_tokens",)),
    "templates.renders_per_fit": ("count", ("templates.render_main_prompt", "templates.fit_to_budget")),
    "templates.prompt_tokens": ("count", ("templates.fit_to_budget", "templates.render_verification_prompt")),
    "templates.dropped_demos": ("count", ("templates.fit_to_budget",)),
    "search.self_ms": ("ms", ("search.*",)),
    "search.requests": ("count", ()),
    "search.verify_requests": ("count", ("templates.render_verification_prompt",)),
    "search.eval_ms_p50": ("ms", ("search.evaluate_loocv",)),
    "search.eval_ms_p95": ("ms", ("search.evaluate_loocv",)),
    "search.annotate_ms_p50": ("ms", ("search.annotate",)),
    "search.annotate_ms_p99": ("ms", ("search.annotate",)),
    "selection.ms": ("ms", ("selection.*",)),
    "selection.calls": ("count", ("selection.select_nearest", "selection.select_entity_rich")),
    "selection.index_builds": ("count", ("selection.build_index",)),
    "cache.ms": ("ms", ("cache.*",)),
    "cache.digest_ms": ("ms", ("cache.request_digest",)),
    "cache.get_ms": ("ms", ("cache.get",)),
    "cache.put_ms": ("ms", ("cache.put",)),
    "cache.hits": ("count", ()),
    "cache.hit_ratio": ("ratio", ()),
    "cache.files": ("count", ()),
    "cache.bytes": ("bytes", ()),
    "model.busy_ms": ("ms", ()),
    "model.call_ms_p50": ("ms", ()),
    "model.call_ms_p99": ("ms", ()),
    "model.peak_in_flight": ("count", ()),
    "model.calls_per_request": ("ratio", ()),
    "http.attempts": ("count", ()),
    "http.retries": ("count", ()),
    "http.overhead_ms": ("ms", ()),
    "decode.ms": ("ms", ("decode.*",)),
    "decode.calls": ("count", ("decode.decode_tagged", "decode.decode_listing")),
    "decode.unmatched": ("count", ("decode.decode_tagged", "decode.decode_listing")),
    "decode.unbalanced": ("count", ("decode.decode_tagged", "decode.decode_listing")),
    "evaluation.ms": ("ms", ("evaluation.*",)),
    "corpus.ms": ("ms", ("corpus.*",)),
    "cli.self_ms": ("ms", ("cli.*",)),
    "trace.spans": ("count", ()),
    "trace.overhead_ms": ("ms", ()),
}


def available_metrics(missing: list[str]) -> list[str]:
    """Metric names whose hooks all exist, given missing 'owner.attr' targets.

    A missing hook loses its own span name and, with it, its layer's self
    time ('layer.*').
    """
    lost = set()
    for owner, attr, layer, _ in HOOKS:
        if f"{owner}.{attr}" in missing:
            lost.update((f"{layer}.{attr}", f"{layer}.*"))
    return [m for m, (_, needs) in LAYER_METRICS.items() if not lost.intersection(needs)]


def layer_metrics(spans: list[tuple], tally: Counter, counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    counts carries what the benchmark's own counters saw: requests,
    model_calls, peak_in_flight, attempts, retries, cache_files, cache_bytes.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for name, _, start, end, _, _ in spans:
        durations[name].append(end - start)
    n = {name: len(d) for name, d in durations.items()}
    total_ms = {name: sum(d) * 1000.0 for name, d in durations.items()}
    own = self_time_by_layer(spans)
    eval_ms = [d * 1000.0 for d in durations.get("search.evaluate_loocv", ())]
    annotate_ms = [d * 1000.0 for d in durations.get("search.annotate", ())]
    model_ms = [(s[3] - s[2]) * 1000.0 for s in spans if s[1] == "model"]
    requests, model_calls = counts.get("requests"), counts.get("model_calls")
    hits = None if requests is None or model_calls is None else requests - model_calls
    values = {
        "templates.ms": own.get("templates", 0.0) * 1000.0,
        "templates.token_count_ms": total_ms.get("templates.estimate_tokens", 0.0),
        "templates.renders_per_fit": _ratio(
            n.get("templates.render_main_prompt", 0), n.get("templates.fit_to_budget", 0)
        ),
        "templates.prompt_tokens": tally["prompt_tokens"],
        "templates.dropped_demos": tally["dropped_demos"],
        "search.self_ms": own.get("search", 0.0) * 1000.0,
        "search.requests": requests,
        "search.verify_requests": n.get("templates.render_verification_prompt", 0),
        "search.eval_ms_p50": percentile(eval_ms, 50),
        "search.eval_ms_p95": percentile(eval_ms, 95),
        "search.annotate_ms_p50": percentile(annotate_ms, 50),
        "search.annotate_ms_p99": percentile(annotate_ms, 99),
        "selection.ms": own.get("selection", 0.0) * 1000.0,
        "selection.calls": n.get("selection.select_nearest", 0) + n.get("selection.select_entity_rich", 0),
        "selection.index_builds": n.get("selection.build_index", 0),
        "cache.ms": own.get("cache", 0.0) * 1000.0,
        "cache.digest_ms": total_ms.get("cache.request_digest", 0.0),
        "cache.get_ms": total_ms.get("cache.get", 0.0),
        "cache.put_ms": total_ms.get("cache.put", 0.0),
        "cache.hits": hits,
        "cache.hit_ratio": None if hits is None else _ratio(hits, requests),
        "cache.files": counts.get("cache_files", 0),
        "cache.bytes": counts.get("cache_bytes", 0),
        "model.busy_ms": busy_time(spans, "model") * 1000.0,
        "model.call_ms_p50": percentile(model_ms, 50),
        "model.call_ms_p99": percentile(model_ms, 99),
        "model.peak_in_flight": counts.get("peak_in_flight"),
        "model.calls_per_request": None if hits is None else _ratio(model_calls, requests),
        "http.attempts": counts.get("attempts", 0),
        "http.retries": counts.get("retries", 0),
        "http.overhead_ms": total_ms.get("http.generate", 0.0) - total_ms.get("model.transport", 0.0),
        "decode.ms": own.get("decode", 0.0) * 1000.0,
        "decode.calls": n.get("decode.decode_tagged", 0) + n.get("decode.decode_listing", 0),
        "decode.unmatched": tally["unmatched"],
        "decode.unbalanced": tally["unbalanced"],
        "evaluation.ms": own.get("evaluation", 0.0) * 1000.0,
        "corpus.ms": own.get("corpus", 0.0) * 1000.0,
        "cli.self_ms": own.get("cli", 0.0) * 1000.0,
        "trace.spans": len(spans),
    }
    return {name: value for name, value in values.items() if value is not None}
