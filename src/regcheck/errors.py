"""Shared exception types for the regcheck pipelines."""

from __future__ import annotations


class RegcheckError(Exception):
    """Base class for all regcheck-specific failures."""


class MalformedInput(RegcheckError):
    """Raw document text failed structural validation."""


class UnchunkableText(RegcheckError):
    """A single sentence alone exceeds the token budget."""


class SchemaError(RegcheckError):
    """A concept model or ruleset record violates an invariant.

    Carries the offending field path, after the file and line of its record
    (e.g. "concepts.jsonl:3: concepts[2].keywords"), so data authors can locate it.
    """

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path


class TemplateError(RegcheckError):
    """A prompt template is missing a required placeholder."""


class ParseError(RegcheckError):
    """A model response did not follow the expected identifier grammar.

    The unit's result, not the exception, keeps the response for audit.
    """


class BackendError(RegcheckError):
    """A model backend call failed after retry exhaustion."""

    def __init__(self, message: str, attempts: int = 1, last_status: int | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_status = last_status


class UnknownModelPrice(RegcheckError):
    """The price table has no entry for a model seen in the usage stream."""


class CorruptCacheEntry(RegcheckError):
    """A persisted cache entry could not be decoded; it is ignored and recomputed."""


class UnitMismatch(RegcheckError):
    """Predicted and gold records do not cover the same unit set."""
