"""Exception hierarchy shared across the toolkit.

The CLI maps these categories onto process exit codes (config/usage -> 1,
data -> 2, backend -> 3), so new exception types should subclass one of the
three category roots below.
"""

from __future__ import annotations


class FewnerError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FewnerError):
    """Invalid usage or configuration."""


class DataError(FewnerError):
    """Invalid or malformed input data."""


class ParseError(DataError):
    """A corpus file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class SpanValidationError(DataError):
    """An entity span is inconsistent with its sentence."""


class BackendError(FewnerError):
    """A generation backend failed."""


class TransportError(BackendError):
    """The request never produced a usable HTTP response."""


class ProtocolError(BackendError):
    """The server answered, but not with a usable completion."""

    def __init__(self, message: str, status: int | None = None, body_excerpt: str = ""):
        self.status = status
        self.body_excerpt = body_excerpt
        detail = message
        if status is not None:
            detail += f" (HTTP {status})"
        if body_excerpt:
            detail += f": {body_excerpt}"
        super().__init__(detail)
