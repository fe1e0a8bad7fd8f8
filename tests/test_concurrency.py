"""The pipeline's pool, the one place where requests run at once, and
CachedBackend under threads."""

import sys
import threading
import time
from dataclasses import replace

import pytest

from conftest import MemoryCache
from fewner.backend import (
    CachedBackend,
    EchoBackend,
    GenerationRequest,
    make_noisy_oracle,
    request_digest,
)
from fewner.errors import ProtocolError
from fewner.search import MAX_IN_FLIGHT, PipelineSettings, PromptingPipeline, greedy_search
from fewner.synthetic import synthetic_corpus
from fewner.templates import PromptConfig

THREADS = 8


class SlowBackend:
    """Sleeps before answering from the inner backend; tracks the most
    calls open at once and fails the calls whose number is in fail_on."""

    def __init__(self, inner, delay_s, fail_on=()):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.delay_s = delay_s
        self.fail_on = set(fail_on)
        self.calls = 0
        self.peak_in_flight = 0
        self.failed_in = []  # thread names of the failed calls
        self._in_flight = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.calls += 1
            number = self.calls
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            time.sleep(self.delay_s)
            if number in self.fail_on:
                self.failed_in.append(threading.current_thread().name)
                raise ProtocolError("completion request rejected", status=400)
            return self.inner.generate(request)
        finally:
            with self._lock:
                self._in_flight -= 1


class StallOnce:
    """Answers from the inner backend, after a sleep on the first call only."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.delay_s = delay_s

    def generate(self, request):
        delay_s, self.delay_s = self.delay_s, 0.0
        time.sleep(delay_s)
        return self.inner.generate(request)


def run_threads(target):
    """Start THREADS threads at once on target() and return their results.

    The interpreter switches threads far more often than by default, so a
    read-modify-write without a lock loses updates.
    """
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS

    def work(i):
        barrier.wait(timeout=10)
        results[i] = target()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def pool_threads():
    return {t for t in threading.enumerate() if t.name.startswith("fewner-request")}


def oracle_pipeline(wrap=lambda oracle: oracle):
    """A pipeline over six sentences and a noisy oracle, wrapped by wrap."""
    sentences, types = synthetic_corpus(6, seed=11)
    oracle = make_noisy_oracle(sentences, types, seed=5, drop_prob=0.3, spurious_prob=0.3)
    return PromptingPipeline(sentences, types, wrap(oracle), PipelineSettings(seed=5))


def test_cached_backend_sends_one_request_once_under_threads():
    """Equal requests at once from several threads may each reach the
    model, but every thread gets the completion and the store one record."""
    slow = SlowBackend(EchoBackend(), delay_s=0.002)
    cache = MemoryCache()
    cached = CachedBackend(slow, cache)
    request = GenerationRequest(prompt="Input: a b.\nOutput:", max_new_tokens=8)
    assert run_threads(lambda: cached.generate(request)) == ["a b."] * THREADS
    assert 1 <= slow.calls <= THREADS
    assert len(cache) == 1 and cache.get(request_digest(request)).completion == "a b."
    slow.fail_on = {slow.calls + 1}
    failing = GenerationRequest(prompt="Input: c d.\nOutput:", max_new_tokens=8)
    with pytest.raises(ProtocolError):  # the next call fails
        cached.generate(failing)
    assert cached.generate(request) == "a b."
    assert len(cache) == 1 and cache.get(request_digest(failing)) is None


def test_waiting_backend_overlaps_calls_without_changing_the_trace():
    waiting = oracle_pipeline(lambda oracle: SlowBackend(oracle, delay_s=0.005))
    base = PromptConfig(self_verification=True)
    _, expected = greedy_search(oracle_pipeline(), base)
    _, got = greedy_search(waiting, base)
    assert got.to_json() == expected.to_json()
    assert 1 < waiting.backend.peak_in_flight <= MAX_IN_FLIGHT
    assert waiting.backend_calls == waiting.backend.calls


def test_instant_backend_never_starts_a_pool_thread():
    before = pool_threads()
    pipeline = oracle_pipeline()
    greedy_search(pipeline, PromptConfig(self_verification=True))
    sample, _ = synthetic_corpus(6, seed=11)
    pipeline.predict(PromptConfig(), sample)
    assert pool_threads() - before == set()


def test_one_stall_of_an_in_process_backend_starts_no_pool_thread():
    before = pool_threads()
    pipeline = oracle_pipeline(lambda oracle: StallOnce(oracle, delay_s=0.03))
    pipeline.evaluate_loocv(PromptConfig(self_verification=True))
    assert pipeline.backend.delay_s == 0.0
    assert pool_threads() - before == set()


def test_pool_sends_each_distinct_request_of_a_send_once():
    sentences, types = synthetic_corpus(10, seed=11)
    # One annotated sentence, so every prompt of a text and type is the
    # same; the copies come after the calls that start the pool.
    sample = sentences[:1]
    tests = sentences[3:7] + [replace(sentences[7], id=f"copy-{i}") for i in range(5)]
    oracle = make_noisy_oracle(sentences, types, seed=5)
    slow = SlowBackend(oracle, delay_s=0.005)
    pooled = PromptingPipeline(sample, types, slow)
    got = pooled.predict(PromptConfig(), tests)
    assert pooled._threads is not None
    assert pooled.backend_calls == len(tests) * len(types)
    assert slow.calls == (4 + 1) * len(types)
    expected = PromptingPipeline(sample, types, oracle).predict(PromptConfig(), tests)
    assert got.total_spans() > 0 and got.to_json() == expected.to_json()


@pytest.mark.parametrize("delay_s, pooled", [(0.0, False), (0.005, True)])
def test_failing_request_raises_its_own_error(delay_s, pooled):
    slow = SlowBackend(EchoBackend(), delay_s, fail_on={12})
    sentences, types = synthetic_corpus(8, seed=11)
    pipeline = PromptingPipeline(sentences, types, slow)
    with pytest.raises(ProtocolError, match="rejected"):
        pipeline.evaluate_loocv(PromptConfig())
    assert [name.startswith("fewner-request") for name in slow.failed_in] == [pooled]


def test_inline_calls_do_not_read_the_thread_clock_per_call(monkeypatch):
    reads = []
    thread_time = time.thread_time
    monkeypatch.setattr(time, "thread_time", lambda: reads.append(1) or thread_time())
    pipeline = oracle_pipeline()
    pipeline.evaluate_loocv(PromptConfig())
    # One wave of a main request per fold and type, answered in process:
    # the clock is read at its start and end, and once more only after a
    # call ends 5 ms past the last reading, which a loaded host may cause.
    assert pipeline.backend_calls == 6 * len(pipeline.entity_types)
    assert 2 <= len(reads) < pipeline.backend_calls
