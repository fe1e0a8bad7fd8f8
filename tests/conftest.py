import pytest

from fewner.corpus import AnnotatedSentence, EntitySpan, load_entity_types
from fewner.templates import FEATURE_NAMES


class MemoryCache:
    """In-process record store for CachedBackend, counting hits and misses."""

    def __init__(self):
        self._store = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        record = self._store.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, key, record):
        self._store[key] = record

    def __len__(self):
        return len(self._store)


class CallCounter:
    """Wraps a backend and counts the generate calls that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


def sent(id, text, spans=(), language="en"):
    """Shorthand sentence factory for tests."""
    return AnnotatedSentence(id=id, text=text, spans=tuple(spans), language=language)


def span(start, end, type_, mention):
    return EntitySpan(start=start, end=end, type=type_, mention=mention)


def additive_scorer(weights, base=0.5):
    """A configuration scorer with no feature interactions.

    score(config) = base + sum of weights[name] over enabled features; a
    greedy sweep and an exhaustive grid must agree on the argmax for any
    such scorer.
    """

    def score(config):
        return base + sum(weights.get(name, 0.0) for name in config.enabled_features())

    return score


@pytest.fixture(scope="session")
def registry():
    return load_entity_types()


@pytest.fixture
def diso(registry):
    return registry["DISO"]


@pytest.fixture
def chem(registry):
    return registry["CHEM"]


def nine_weights(rng_values):
    """Map an iterable of nine floats onto the feature names."""
    return dict(zip(FEATURE_NAMES, rng_values))
