"""Completion backends: an OpenAI-compatible HTTP client, deterministic
offline mocks, and a caching wrapper.

All backends answer GenerationRequests with plain completion strings.  The
mocks never look at anything but the prompt text, so they exercise exactly
the same prompt-rendering and decoding paths as a real server.

Mock limitations (deliberate, to keep them simple): sentence texts must be
unique within the corpus handed to OracleBackend, and must not contain the
double quotes that frame them in a verification question, nor may mention
surfaces.  OracleBackend reads a main prompt's answer format from its task
header, else from the intro line before the test turn, else from its demo
turns.  When a persona header comes without an intro, the text gives no
evidence of the format in three cases, and the oracle answers in a default
one: with no demos (@@/## tagging), in tagging mode with alt taggers and
no tagged demo (@@/## tags), and with the newline separator (comma-joined
mentions).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import secrets
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _encode_string
from math import isfinite
from pathlib import Path
from typing import Callable, Protocol

from . import rng
from .corpus import AnnotatedSentence, EntitySpan, EntityType
from .errors import ConfigError, ProtocolError, TransportError
from .templates import ALT_TAGS, DEFAULT_TAGS, TagPair, fragments, outermost_spans, tag_sentence

logger = logging.getLogger(__name__)

ENV_API_BASE = "FEWNER_API_BASE"
ENV_API_KEY = "FEWNER_API_KEY"

_WORD = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class GenerationRequest:
    """One completion request: the prompt and how to complete it.

    digest, when not empty, must equal request_digest of the other five
    fields; only the pipeline sets one, from its memo of the requests it
    has hashed.  CachedBackend keys by it, so a request repeated across
    configurations is hashed once.  It takes no part in equality or repr.
    """

    prompt: str
    max_new_tokens: int
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ()
    model_name: str = ""
    digest: str = field(default="", compare=False, repr=False)


@dataclass(frozen=True)
class GenerationRecord:
    request_hash: str
    completion: str
    latency_s: float
    backend_id: str
    timestamp: float


# What json.dumps(payload, sort_keys=True, ensure_ascii=False) writes.
_CANONICAL_REQUEST = (
    '{"max_new_tokens": %d, "model_name": %s, "prompt": %s, '
    '"stop_sequences": [%s], "temperature": %r}'
)


def request_digest(request: GenerationRequest) -> str:
    """Stable cache key: sha256 over the canonical JSON of the five content
    fields; a carried digest is not read.

    The JSON is what json.dumps(..., sort_keys=True, ensure_ascii=False)
    writes.  It is built by hand when every field has its plain type (an
    int, a finite float or int temperature, strings, a tuple of strings),
    and by json.dumps otherwise; both give the same text, so digests never
    depend on the path.  The text is UTF-8 encoded with "surrogatepass", so
    a lone surrogate, which a server's JSON escape can produce, hashes
    instead of raising; valid text encodes as plain UTF-8.
    """
    max_new_tokens, temperature = request.max_new_tokens, request.temperature
    model_name, prompt, stops = request.model_name, request.prompt, request.stop_sequences
    if (
        type(max_new_tokens) is int
        and (type(temperature) is int or type(temperature) is float and isfinite(temperature))
        and type(model_name) is str
        and type(prompt) is str
        and type(stops) is tuple
    ):
        encoded = []
        for stop in stops:
            if type(stop) is not str:
                break
            encoded.append(_encode_string(stop))
        else:
            blob = _CANONICAL_REQUEST % (
                max_new_tokens, _encode_string(model_name), _encode_string(prompt),
                ", ".join(encoded), temperature,
            )
            return hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()
    payload = {
        "prompt": prompt,
        "max_new_tokens": max_new_tokens,
        "temperature": temperature,
        "stop_sequences": list(stops),
        "model_name": model_name,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()


def truncate_at_stop(text: str, stop_sequences: tuple[str, ...]) -> str:
    """Cut text at the earliest occurrence of any stop sequence."""
    cut = len(text)
    for stop in stop_sequences:
        idx = text.find(stop)
        if idx != -1 and idx < cut:
            cut = idx
    return text[:cut]


class CompletionBackend(Protocol):
    backend_id: str

    def generate(self, request: GenerationRequest) -> str: ...


# ---------------------------------------------------------------------------
# HTTP


# transport(url, headers, payload, timeout_s) -> (status_code, body_text)
Transport = Callable[[str, dict[str, str], dict, float], tuple[int, str]]


def _requests_transport(
    url: str, headers: dict[str, str], payload: dict, timeout_s: float
) -> tuple[int, str]:
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout_s)
    except requests.RequestException as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    return resp.status_code, resp.text


class HttpCompletionBackend:
    """Client for an OpenAI-compatible /v1/completions endpoint.

    Retries transport failures and 429/5xx responses with exponential
    backoff; other non-200 responses fail immediately.  The client keeps no
    state between requests, so callers may send from several threads.  Each
    request names its model (request.model_name), so the model is part of
    every cache key.  Stop sequences are sent to the server and re-applied
    client-side, since some servers ignore them.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        transport: Transport | None = None,
        max_retries: int = 3,
        backoff_s: float = 1.0,
        timeout_s: float = 120.0,
    ):
        if not base_url:
            raise ConfigError("the HTTP backend needs a non-empty base URL")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.backend_id = f"http:{self.base_url}"
        self._transport = transport or _requests_transport
        self._max_retries = max_retries
        self._backoff_s = backoff_s
        self._timeout_s = timeout_s

    @classmethod
    def from_env(cls) -> "HttpCompletionBackend":
        base = os.environ.get(ENV_API_BASE, "")
        if not base:
            raise ConfigError(f"set {ENV_API_BASE} to use the HTTP backend")
        return cls(base, api_key=os.environ.get(ENV_API_KEY))

    def _payload(self, request: GenerationRequest) -> dict:
        payload = {
            "model": request.model_name,
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
        }
        if request.stop_sequences:
            payload["stop"] = list(request.stop_sequences)
        return payload

    def generate(self, request: GenerationRequest) -> str:
        url = self.base_url + "/v1/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = self._payload(request)
        last_error: Exception | None = None
        for attempt in range(self._max_retries + 1):
            if attempt:
                delay = self._backoff_s * 2 ** (attempt - 1)
                logger.warning("retrying completion request in %.1fs", delay)
                time.sleep(delay)
            try:
                status, body = self._transport(url, headers, payload, self._timeout_s)
            except TransportError as exc:
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = ProtocolError(
                    "server busy or failing", status=status, body_excerpt=body[:200]
                )
                continue
            if status != 200:
                raise ProtocolError(
                    "completion request rejected", status=status, body_excerpt=body[:200]
                )
            return self._parse_body(body, request)
        assert last_error is not None
        raise last_error

    def _parse_body(self, body: str, request: GenerationRequest) -> str:
        try:
            parsed = json.loads(body)
            text = parsed["choices"][0]["text"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(
                f"malformed completion response: {exc}", body_excerpt=body[:200]
            ) from exc
        if not isinstance(text, str):
            raise ProtocolError("completion text is not a string", body_excerpt=body[:200])
        return truncate_at_stop(text, request.stop_sequences)


# ---------------------------------------------------------------------------
# Deterministic mocks


def _final_input_text(prompt: str) -> str:
    """The test slot content: the last Input line, or the last dash line."""
    lines = prompt.rstrip("\n").rsplit("\n", 2)
    if lines[-1].strip() == "-":
        return lines[-2][2:] if lines[-2].startswith("- ") else lines[-2]
    # Classic layout: final line is a bare output label, test input before it.
    if len(lines) < 2 or ":" not in lines[-2]:
        return ""
    return lines[-2].split(":", 1)[1].lstrip()


class EchoBackend:
    """Returns the test sentence untagged: a model that never finds entities."""

    backend_id = "echo"

    def generate(self, request: GenerationRequest) -> str:
        return _final_input_text(request.prompt)


def _inverse(template: str) -> re.Pattern[str]:
    """A pattern that matches exactly the lines template.format writes, with
    each {field} captured as the group of that name."""
    return re.compile(re.sub(r"\\\{(\w+)\\\}", r"(?P<\1>.+?)", re.escape(template)))


# The fragments that can write a prompt's first line, and those that can
# write the line before a main prompt's test turn.
_HEADERS = ("verification_task", "task_tagging", "task_listing", "persona")
_INTROS = ("intro_tagging", "intro_listing")


class OracleBackend:
    """Answers prompts from gold annotations, inferring the task from the
    prompt text alone.

    Tagging prompts get the test sentence with gold outermost spans tagged,
    listing prompts the separator-joined gold mentions, verification prompts
    Yes or No (in the prompt's language) by gold membership of the candidate
    mention.  The task is read by matching lines against the template
    fragments that wrote them.  Subclasses can perturb the answered span set
    by overriding _spans_for_answer, which must be a pure function of the
    sentence and the type: the oracle keeps its outermost spans per
    (sentence id, type).
    """

    backend_id = "oracle"

    def __init__(self, sentences: list[AnnotatedSentence], entity_types: list[EntityType]):
        self._by_text: dict[str, AnnotatedSentence] = {}
        for s in sentences:
            if s.text in self._by_text:
                raise ConfigError(
                    f"oracle backend needs unique sentence texts; {s.id!r} duplicates one"
                )
            self._by_text[s.text] = s
        # (language, "singular" or "plural", name) -> type id
        self._type_ids = {
            (lang, form, name): t.id
            for t in entity_types
            for lang, forms in t.names.items()
            for form, name in forms.items()
        }
        frags = fragments()
        # (language, fragment key, pattern) candidates for _match.
        self._headers, self._intros = (
            [(lang, key, _inverse(frags[lang][key])) for lang in frags for key in keys]
            for keys in (_HEADERS, _INTROS)
        )
        self._questions = {lang: _inverse(frags[lang]["verification_question"]) for lang in frags}
        # (sentence id, type) -> outermost answered spans; at most one entry
        # per sentence and type of the corpus above.
        self._answered: dict[tuple[str, str], tuple[EntitySpan, ...]] = {}

    # Overridden by noisy variants.
    def _spans_for_answer(
        self, sentence: AnnotatedSentence, type_id: str
    ) -> list[EntitySpan]:
        return sorted(sentence.spans_of(type_id), key=lambda s: (s.start, s.end))

    def _sentence(self, text: str) -> AnnotatedSentence:
        try:
            return self._by_text[text]
        except KeyError:
            raise ConfigError(f"oracle backend does not know the sentence {text!r}") from None

    def _type_id(self, lang: str, form: str, name: str) -> str:
        try:
            return self._type_ids[lang, form, name]
        except KeyError:
            raise ConfigError(f"no entity type has the {lang} {form} name {name!r}") from None

    def generate(self, request: GenerationRequest) -> str:
        prompt = request.prompt
        header = _match(prompt.partition("\n")[0], self._headers)
        if header is None:
            raise ConfigError("prompt names no known entity type on its first line")
        lang, key, match = header
        frags = fragments()[lang]
        text = _final_input_text(prompt)
        if key == "verification_task":
            question = self._questions[lang].fullmatch(text)
            if question is None:
                raise ConfigError("verification prompt without a final question")
            type_id = self._type_id(lang, "singular", question["singular"])
            gold = self._sentence(question["sentence"]).spans_of(type_id)
            is_gold = any(sp.mention == question["mention"] for sp in gold)
            return frags["answer_yes" if is_gold else "answer_no"]
        type_id = self._type_id(lang, "plural", match["plural"])
        if key == "persona":
            # The header names no format; the line before the test turn may.
            intro = prompt.rstrip("\n").rsplit("\n", 3)[-3]
            _, key, match = _match(intro, self._intros) or header
        if key.endswith("_tagging"):
            answer_format = TagPair(match["open"], match["close"])
        elif key.endswith("_listing"):
            answer_format = "\n" if match["separator"] == frags["separator_newline"] else ", "
        else:
            answer_format = _demo_format(prompt, frags)
        sentence = self._sentence(text)
        spans = self._answered.get((sentence.id, type_id))
        if spans is None:
            spans = self._answered[sentence.id, type_id] = outermost_spans(
                self._spans_for_answer(sentence, type_id)
            )
        if isinstance(answer_format, TagPair):
            return tag_sentence(sentence.text, spans, answer_format)
        return answer_format.join(sp.mention for sp in spans)


def _match(line: str, candidates) -> tuple[str, str, re.Match] | None:
    """(language, fragment key, match) of the first of the candidate
    (language, fragment key, pattern) triples whose fragment wrote line."""
    for lang, key, pattern in candidates:
        match = pattern.fullmatch(line)
        if match:
            return lang, key, match
    return None


def _demo_format(prompt: str, frags: dict[str, str]) -> TagPair | str:
    """The tag pair or listing separator the demo turns show, for a prompt
    whose header and intro name neither."""
    for tags in (ALT_TAGS, DEFAULT_TAGS):
        if tags.open in prompt:
            return tags
    dialogue = prompt.endswith("\n-")
    labels = ("-", "-") if dialogue else (frags["input_label"], frags["output_label"])
    # An untagged output repeats its input only in tagging mode, and tagging
    # outputs are never empty, so any other demo turn implies listing.  With
    # no demo turn beside the test turn, assume tagging (the default mode).
    passthrough = re.search(
        "^%s (.+)\n%s \\1$" % tuple(map(re.escape, labels)), prompt, re.MULTILINE
    )
    if passthrough is None and prompt.count("\n" + labels[0]) > (2 if dialogue else 1):
        return ", "
    return DEFAULT_TAGS


class NoisyOracleBackend(OracleBackend):
    """Oracle whose main answers drop gold spans and add spurious ones with
    fixed probabilities.

    Every decision is a pure function of (seed, sentence id, type, span), so
    answers are identical regardless of request order or caching.
    Verification answers stay truthful to gold.
    """

    def __init__(
        self,
        sentences: list[AnnotatedSentence],
        entity_types: list[EntityType],
        seed: int,
        drop_prob: float = 0.0,
        spurious_prob: float = 0.0,
    ):
        super().__init__(sentences, entity_types)
        if not 0.0 <= drop_prob <= 1.0 or not 0.0 <= spurious_prob <= 1.0:
            raise ConfigError("noise probabilities must be within [0, 1]")
        self.backend_id = f"noisy-oracle:{seed}:{drop_prob}:{spurious_prob}"
        self._seed = seed
        self._drop_prob = drop_prob
        self._spurious_prob = spurious_prob

    def _spans_for_answer(
        self, sentence: AnnotatedSentence, type_id: str
    ) -> list[EntitySpan]:
        kept = [
            sp
            for sp in super()._spans_for_answer(sentence, type_id)
            if rng.unit_uniform(self._seed, "drop", sentence.id, type_id, sp.start, sp.end)
            >= self._drop_prob
        ]
        if (
            self._spurious_prob > 0.0
            and rng.unit_uniform(self._seed, "spur", sentence.id, type_id)
            < self._spurious_prob
        ):
            gold = sentence.spans_of(type_id)
            candidates = [
                (m.start(), m.end(), m.group())
                for m in _WORD.finditer(sentence.text)
                if not any(sp.start < m.end() and m.start() < sp.end for sp in gold)
            ]
            if candidates:
                pick = int(
                    rng.unit_uniform(self._seed, "spurpick", sentence.id, type_id)
                    * len(candidates)
                )
                start, end, surface = candidates[min(pick, len(candidates) - 1)]
                kept.append(EntitySpan(start, end, type_id, surface))
        return sorted(kept, key=lambda s: (s.start, s.end))


def make_noisy_oracle(
    sentences: list[AnnotatedSentence],
    entity_types: list[EntityType],
    seed: int,
    drop_prob: float = 0.0,
    spurious_prob: float = 0.0,
) -> NoisyOracleBackend:
    return NoisyOracleBackend(sentences, entity_types, seed, drop_prob, spurious_prob)


# ---------------------------------------------------------------------------
# Wrappers


class DiskCache:
    """One JSON file per request digest.

    Corrupt entries, including a record filed under another request's
    digest and one whose completion is not a string, are logged and
    treated as misses, then overwritten by the fresh result; they never
    poison a run.  Each put writes a temp file of its own and renames it
    into place, so threads and processes sharing the directory never see
    or clobber a half-written entry.  Entries are
    written as compact JSON; get reads any layout, such as the indented
    one of older caches.  Entries are ASCII, with every other character
    escaped, so any completion string can be stored, a lone surrogate
    included.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> GenerationRecord | None:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = GenerationRecord(
                request_hash=payload["request_hash"],
                completion=payload["completion"],
                latency_s=payload["latency_s"],
                backend_id=payload["backend_id"],
                timestamp=payload["timestamp"],
            )
        except FileNotFoundError:  # never written, or removed by another process
            return None
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError) as exc:
            logger.warning("ignoring corrupt cache entry %s: %s", path, exc)
            return None
        if record.request_hash != key:
            logger.warning(
                "ignoring corrupt cache entry %s: it holds request %s",
                path,
                record.request_hash,
            )
            return None
        if not isinstance(record.completion, str):
            logger.warning(
                "ignoring corrupt cache entry %s: its completion %r is not a string",
                path,
                record.completion,
            )
            return None
        return record

    def put(self, key: str, record: GenerationRecord) -> None:
        path = self._path(key)
        payload = {
            "request_hash": record.request_hash,
            "completion": record.completion,
            "latency_s": record.latency_s,
            "backend_id": record.backend_id,
            "timestamp": record.timestamp,
        }
        tmp = path.with_name(f"{key}.{secrets.token_hex(8)}.tmp")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            with open(tmp, "x", encoding="utf-8") as out:
                out.write(blob)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


class CachedBackend:
    """Memoizes completions by request digest: the one the request carries,
    else request_digest of its fields.

    A read-through cache with no lock: each call reads the store once,
    and on a miss calls the wrapped backend and puts the record.  Callers
    that send equal requests at once from several threads may each reach
    the wrapped backend and each put the same record; that costs calls,
    never changes output, and is also true of processes sharing one disk
    cache.  The pipeline sends each distinct request of a pooled send
    once, so its own requests reach the model once per cache lifetime.
    """

    def __init__(self, inner: CompletionBackend, cache):
        self.inner = inner
        self.cache = cache
        self.backend_id = f"cached:{inner.backend_id}"

    def generate(self, request: GenerationRequest) -> str:
        key = request.digest or request_digest(request)
        record = self.cache.get(key)
        if record is not None:
            return record.completion
        started = time.monotonic()
        completion = self.inner.generate(request)
        record = GenerationRecord(
            request_hash=key,
            completion=completion,
            latency_s=time.monotonic() - started,
            backend_id=self.inner.backend_id,
            timestamp=time.time(),
        )
        self.cache.put(key, record)
        return completion
