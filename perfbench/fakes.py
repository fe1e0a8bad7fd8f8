"""Stand-ins the benchmark owns: an in-memory record store, a counting
backend wrapper, and a fake completion endpoint with seeded faults."""

from __future__ import annotations

import hashlib
import json
import threading
import time

from fewner.backend import GenerationRequest

# Share of attempts that fail with 429 or 503, and how many attempts of one
# request can fail: the client's 3 retries therefore always succeed.
FAULT_RATE = 0.02
FAULTY_ATTEMPTS = 2


class MemoryStore:
    """Cache store keeping records in a dict; the benchmark's own, so that
    moving or removing the library's test helpers cannot change it."""

    def __init__(self):
        self._records: dict = {}

    def get(self, key):
        return self._records.get(key)

    def put(self, key, record) -> None:
        self._records[key] = record

    def __len__(self) -> int:
        return len(self._records)


class CallCounter:
    """Thread-safe count of generate calls through a backend, and of the
    most calls in flight at once."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0
        self.peak_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            return self.inner.generate(request)
        finally:
            with self._lock:
                self._in_flight -= 1


def fault_draw(seed: int, digest: str, attempt: int) -> float:
    """Uniform draw in [0, 1) fixed by (seed, request digest, attempt)."""
    blob = hashlib.sha256(f"{seed}\x1f{digest}\x1f{attempt}".encode()).digest()
    return int.from_bytes(blob[:8], "big") / 2.0**64


class FakeTransport:
    """An OpenAI-compatible completions endpoint, in process.

    Called as ``transport(url, headers, payload, timeout_s)``, it sleeps
    ``latency_s`` (sleeping, not spinning, so concurrent callers overlap
    their waits) and answers from ``model``.  An attempt fails with 429 or
    503 when its draw, keyed by (seed, request digest, attempt number), is
    below ``FAULT_RATE``; only the first ``FAULTY_ATTEMPTS`` attempts of a
    request can fail, so a client that retries at least that often never
    loses a request.  The schedule depends on no timing and no call order
    across requests.
    """

    def __init__(self, model, seed: int, latency_s: float = 0.005):
        self.model = model
        self.seed = seed
        self.latency_s = latency_s
        self.attempts = 0
        self.faults = 0
        self.peak_in_flight = 0
        self._in_flight = 0
        self._tries: dict[str, int] = {}
        self._lock = threading.Lock()

    def fault_status(self, digest: str, attempt: int) -> int | None:
        """The error status this attempt gets, or None when it succeeds."""
        if attempt >= FAULTY_ATTEMPTS:
            return None
        draw = fault_draw(self.seed, digest, attempt)
        if draw >= FAULT_RATE:
            return None
        return 429 if draw < FAULT_RATE / 2 else 503

    def __call__(self, url, headers, payload, timeout_s):
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
        ).hexdigest()
        with self._lock:
            attempt = self._tries.get(digest, 0)
            self._tries[digest] = attempt + 1
            self.attempts += 1
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        try:
            time.sleep(self.latency_s)
            status = self.fault_status(digest, attempt)
            if status is not None:
                with self._lock:
                    self.faults += 1
                return status, "server busy"
            completion = self.model.generate(
                GenerationRequest(
                    prompt=payload["prompt"],
                    max_new_tokens=payload["max_tokens"],
                    temperature=payload["temperature"],
                    stop_sequences=tuple(payload.get("stop", ())),
                    model_name=payload["model"],
                )
            )
            return 200, json.dumps({"choices": [{"text": completion}]})
        finally:
            with self._lock:
                self._in_flight -= 1
