"""The locks that concurrent requests rely on, and the pipeline's pool."""

import sys
import threading
import time

import pytest

from conftest import MemoryCache
from fewner.backend import CachedBackend, EchoBackend, GenerationRequest, make_noisy_oracle
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
    slow = SlowBackend(EchoBackend(), delay_s=0.05)
    cached = CachedBackend(slow, MemoryCache())
    request = GenerationRequest(prompt="Input: a b.\nOutput:", max_new_tokens=8)
    assert run_threads(lambda: cached.generate(request)) == ["a b."] * THREADS
    assert slow.calls == 1


def test_cached_backend_keeps_no_lock_once_its_requests_end():
    slow = SlowBackend(EchoBackend(), delay_s=0.002, fail_on={2})
    cached = CachedBackend(slow, MemoryCache())
    request = GenerationRequest(prompt="Input: a b.\nOutput:", max_new_tokens=8)
    assert run_threads(lambda: cached.generate(request)) == ["a b."] * THREADS
    assert slow.calls == 1 and cached._locks == {}
    with pytest.raises(ProtocolError):  # the second call fails
        cached.generate(GenerationRequest(prompt="Input: c d.\nOutput:", max_new_tokens=8))
    assert cached.generate(request) == "a b."
    assert cached._locks == {}
    sequential = oracle_pipeline(lambda oracle: CachedBackend(oracle, MemoryCache()))
    greedy_search(sequential, PromptConfig(self_verification=True))
    assert sequential.backend._locks == {}
    pooled = oracle_pipeline(
        lambda oracle: CachedBackend(SlowBackend(oracle, delay_s=0.005), MemoryCache())
    )
    greedy_search(pooled, PromptConfig(self_verification=True))
    assert pooled.backend.inner.peak_in_flight > 1
    assert pooled.backend._locks == {}


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
