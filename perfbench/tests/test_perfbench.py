"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import fewner.search  # noqa: E402
from fewner.backend import EchoBackend, GenerationRequest, HttpCompletionBackend  # noqa: E402

from perfbench.fakes import FAULTY_ATTEMPTS, CallCounter, FakeTransport  # noqa: E402
from perfbench.speed import REFERENCE_S, at_reference_speed  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Hooks,
    Tracer,
    available_metrics,
    busy_time,
    layer_metrics,
    percentile,
    self_time_by_layer,
)
from perfbench.workloads import GreedyRemote, GridB0, PredictCli  # noqa: E402


def _payload(i: int) -> dict:
    return {"model": "", "prompt": f"Input: s{i}\nOutput:", "max_tokens": 8, "temperature": 0.0}


def _statuses(transport: FakeTransport, order: list[int], attempts: int) -> dict:
    out = {}
    for i in order:
        for attempt in range(attempts):
            status, _ = transport(
                "http://model.test/v1/completions", {}, _payload(i), 1.0
            )
            out[(i, attempt)] = status
    return out


def test_fault_schedule_depends_only_on_seed_request_and_attempt():
    forward = _statuses(FakeTransport(EchoBackend(), seed=7, latency_s=0.0), list(range(300)), 3)
    backward = _statuses(
        FakeTransport(EchoBackend(), seed=7, latency_s=0.0), list(reversed(range(300))), 3
    )
    other = _statuses(FakeTransport(EchoBackend(), seed=8, latency_s=0.0), list(range(300)), 3)
    assert forward == backward
    assert forward != other
    assert {s for s in forward.values()} <= {200, 429, 503}
    assert any(status != 200 for status in forward.values())
    # Only the first FAULTY_ATTEMPTS attempts of a request can fail.
    assert all(
        status == 200
        for (_, attempt), status in forward.items()
        if attempt >= FAULTY_ATTEMPTS
    )


def test_fault_rate_is_about_two_percent():
    transport = FakeTransport(EchoBackend(), seed=1, latency_s=0.0)
    failures = sum(
        transport.fault_status(f"{i:064x}", attempt) is not None
        for i in range(5000)
        for attempt in range(2)
    )
    assert 0.01 < failures / 10000 < 0.03


def test_http_client_recovers_every_fault_and_counts_add_up():
    transport = FakeTransport(EchoBackend(), seed=3, latency_s=0.0)
    client = HttpCompletionBackend("http://model.test", transport=transport, backoff_s=0.0)
    for i in range(500):
        request = GenerationRequest(prompt=f"Input: s{i}\nOutput:", max_new_tokens=8)
        assert client.generate(request) == f"s{i}"
    assert transport.faults > 0
    assert transport.attempts == 500 + transport.faults


def test_transport_sleeps_so_concurrent_calls_overlap():
    transport = FakeTransport(EchoBackend(), seed=0, latency_s=0.2)
    threads = [
        threading.Thread(target=transport, args=("u", {}, _payload(i), 1.0)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert transport.attempts == 2
    assert transport.peak_in_flight == 2


def test_counters_lose_no_update_under_contention():
    counter = CallCounter(EchoBackend())
    transport = FakeTransport(EchoBackend(), seed=0, latency_s=0.0)
    request = GenerationRequest(prompt="Input: s\nOutput:", max_new_tokens=8)

    def work():
        for i in range(300):
            counter.generate(request)
            transport("u", {}, _payload(i), 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert counter.calls == 1200
    assert 1 <= counter.peak_in_flight <= 4
    assert transport.attempts == 1200


def test_self_time_subtracts_children_once():
    # name, layer, start, end, parent, request
    spans = [
        ("search.annotate", "search", 0.0, 10.0, None, 1),
        ("templates.fit_to_budget", "templates", 1.0, 4.0, 0, 1),
        ("templates.estimate_tokens", "templates", 2.0, 3.0, 1, 1),
        ("cache.generate", "cache", 5.0, 9.0, 0, 1),
        ("model.generate", "model", 6.0, 8.0, 3, 1),
    ]
    own = self_time_by_layer(spans)
    assert own == {"search": 3.0, "templates": 3.0, "cache": 2.0, "model": 2.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        ("cache.generate", "cache", 0.0, 10.0, None, None),
        ("model.generate", "model", 1.0, 5.0, 0, None),
        ("model.generate", "model", 3.0, 7.0, 0, None),
        ("model.generate", "model", 9.0, 12.0, 0, None),  # ends after its parent
    ]
    assert self_time_by_layer(spans)["cache"] == 10.0 - 6.0 - 1.0
    assert busy_time(spans, "model") == 6.0 + 3.0


def test_reference_speed_rescales_only_cpu_seconds():
    assert at_reference_speed(3.0, 1.0, REFERENCE_S) == 3.0
    # A host at half speed: the CPU second counts as half a second.
    assert at_reference_speed(3.0, 1.0, 2 * REFERENCE_S) == pytest.approx(2.5)
    # CPU time read a little above wall time counts as wall time.
    assert at_reference_speed(1.0, 1.2, REFERENCE_S / 2) == pytest.approx(2.0)


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([4.0], 99) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(map(float, range(101))), 95) == 95.0


def test_missing_hook_target_drops_only_its_metrics():
    with Hooks() as hooks:
        assert not hooks.replace("fewner.search", "no_such_function", lambda f: f)
        assert not hooks.replace("fewner.no_such_module", "x", lambda f: f)
    assert hooks.missing == ["fewner.search.no_such_function", "fewner.no_such_module.x"]
    kept = available_metrics(["fewner.search.fit_to_budget"])
    assert "templates.renders_per_fit" not in kept
    assert "templates.ms" not in kept
    assert "cache.digest_ms" in kept and "search.requests" in kept


def test_hooks_are_undone():
    original = fewner.search.fit_to_budget
    with Hooks() as hooks:
        Tracer().install(hooks)
        assert fewner.search.fit_to_budget is not original
        assert not hooks.missing
    assert fewner.search.fit_to_budget is original
    assert "annotate" in vars(fewner.search.PromptingPipeline)


class TinyGrid(GridB0):
    corpus_size = 30
    k = 3


class TinyGreedy(GreedyRemote):
    corpus_size = 30
    k = 4
    latency_s = 0.0


class TinyPredict(PredictCli):
    corpus_size = 40
    sample_size = 4


@pytest.mark.parametrize("workload_class", [TinyGrid, TinyGreedy, TinyPredict])
def test_traced_pass_reproduces_the_untraced_outputs(workload_class, tmp_path):
    workload = workload_class(5, tmp_path)
    workload.prepare()
    plain = workload.run_pass(setups=2)
    tracer = Tracer()
    traced = workload.run_pass(tracer)
    assert plain.error is None and traced.error is None
    assert plain.outputs == traced.outputs
    assert all(plain.checks.values()) and all(traced.checks.values())
    assert len(plain.setup_s) == len(plain.setup_cpu_s) == 2 and len(traced.setup_s) == 1
    assert 0 < plain.cpu_s

    spans = tracer.spans()
    figures = layer_metrics(spans, tracer.tally, traced.counts)
    assert figures["search.requests"] == traced.counts["requests"]
    assert figures["cache.hits"] + traced.counts["model_calls"] == traced.counts["requests"]
    assert figures["templates.renders_per_fit"] >= 1.0
    assert figures["decode.calls"] == sum(1 for s in spans if s[0] == "search.annotate")
    # Every span of a request lies inside its annotate call.
    roots = {s[5]: s for s in spans if s[0] == "search.annotate"}
    for name, _, start, end, _, request in spans:
        if request is not None:
            assert roots[request][2] <= start <= end <= roots[request][3]


def test_run_without_fewner_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-b0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.run import END_TO_END_UNITS
    from perfbench.tracing import LAYER_METRICS

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == ["grid-b0", "greedy-remote", "predict-cli"]
