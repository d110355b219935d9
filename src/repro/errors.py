"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors from semantic errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DTDError(ReproError):
    """Problems with a DTD definition (unknown element types, bad content)."""


class DTDParseError(DTDError):
    """Raised when DTD text cannot be parsed."""


class XPathSyntaxError(ReproError):
    """Raised when an XPath expression cannot be parsed."""


class XPathTranslationError(ReproError):
    """Raised when an XPath query cannot be translated over the given DTD."""


class ExtendedXPathError(ReproError):
    """Problems constructing or evaluating an extended XPath query."""


class ValidationError(ReproError):
    """Raised when an XML tree does not conform to a DTD."""


class MutationError(ValidationError):
    """Raised when a live-document mutation is rejected.

    Covers mutations that would leave the tree non-conforming to its DTD
    (so the invariant Q(T) = Q'(tau_d(T)) would no longer be checkable),
    mutations referencing unknown nodes, and malformed mutation payloads.
    A script with a rejected mutation applies not at all: the tree and
    every store are left as they were before the script.
    """


class RelationalError(ReproError):
    """Problems with relational schemas, instances or algebra programs."""


class SchemaError(RelationalError):
    """Raised for schema mismatches (unknown relations or columns)."""


class ExecutionError(RelationalError):
    """Raised when a relational-algebra program cannot be executed."""


class ShreddingError(ReproError):
    """Raised when a document cannot be shredded into relations."""


class ViewError(ReproError):
    """Problems defining or using GAV XML views."""


class GenerationError(ReproError):
    """Raised when the synthetic XML generator cannot satisfy its parameters."""


class ConfigError(ReproError, ValueError):
    """Raised for invalid :class:`~repro.api.EngineConfig` values.

    Also subclasses :class:`ValueError` so pre-facade callers that caught
    ``ValueError`` around constructor kwargs keep working unchanged.
    """


class SessionError(ReproError, ValueError):
    """Base class for engine/session lifecycle and document-registry errors.

    Also subclasses :class:`ValueError` for backward compatibility with the
    pre-facade :class:`~repro.service.QueryService` error contract.
    """


class SessionClosedError(SessionError):
    """Raised when a closed :class:`~repro.api.Session`/service is used."""


class UnknownDocumentError(SessionError):
    """Raised when a document id does not name a registered document."""


class DuplicateDocumentError(SessionError):
    """Raised when a document id is registered twice."""


class WorkerError(ReproError):
    """An unexpected exception escaped a pool worker process.

    Errors that map onto a :class:`ReproError` subclass are re-raised as
    that subclass in the dispatching process; anything else surfaces as a
    ``WorkerError`` carrying the remote type name and message.
    """


class WorkerCrashError(WorkerError):
    """A pool worker process died mid-request (crash, kill, OOM).

    The pool respawns the worker and retries the request once; a second
    crash propagates this error to the caller.
    """
