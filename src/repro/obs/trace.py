"""Hierarchical spans: where one query's time actually goes.

A :class:`Span` is one timed region of work — a name, free-form attributes,
wall-clock and per-thread CPU time, and child spans — and a finished trace
is just the root span of such a tree.  Tracing is *off by default* and
per-thread: instrumentation points throughout the engine call
:func:`span` unconditionally, and when no trace is active on the calling
thread the call returns a shared no-op object whose enter/exit/annotate
methods do nothing.  That no-op fast path is the contract the disabled-
observability overhead benchmark (``benchmarks/test_bench_obs_overhead.py``)
pins: code paths stay instrumented permanently because un-traced calls cost
one thread-local read.

Starting a trace (:func:`start_trace` / the :func:`trace` context manager)
makes subsequent :func:`span` calls on the same thread record real child
spans.  Traces nest: an inner
``start_trace``/``end_trace`` pair inside an active trace produces a child
span that is also returned as that inner trace's root.

Spans serialize to plain dicts (:meth:`Span.to_dict` /
:meth:`Span.from_dict`, an exact JSON round-trip) and render as an indented
tree (:func:`render_span_tree`, the ``repro answer --trace`` output).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "span",
    "trace",
    "start_trace",
    "end_trace",
    "current_span",
    "is_tracing",
    "render_span_tree",
]


def _thread_cpu() -> float:
    # thread_time is per-thread CPU; fall back to process_time on platforms
    # without it (none of the supported ones, but the API is optional).
    try:
        return time.thread_time()
    except AttributeError:  # pragma: no cover - py<3.7 / exotic platforms
        return time.process_time()


class Span:
    """One timed, attributed region of work; a node of a trace tree.

    Spans are context managers: entering records start times and makes the
    span the thread's current one, exiting finalizes ``wall_seconds`` /
    ``cpu_seconds`` and restores the parent.  Attributes set via
    :meth:`set` (or the ``span(name, key=value)`` shorthand) must be
    JSON-representable — they travel into ``to_dict``.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "wall_seconds",
        "cpu_seconds",
        "_parent",
        "_start_wall",
        "_start_cpu",
    )

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs)
        self.children: List["Span"] = []
        self.wall_seconds: float = 0.0
        self.cpu_seconds: float = 0.0
        self._parent: Optional["Span"] = None
        self._start_wall: float = 0.0
        self._start_cpu: float = 0.0

    def __bool__(self) -> bool:
        # Real spans are truthy; the no-op span is falsy, so call sites can
        # guard trace-only work with ``if sp: ...``.
        return True

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (JSON-safe values) to the span."""
        self.attrs.update(attrs)
        return self

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Span":
        self._parent = getattr(_STATE, "span", None)
        if self._parent is not None:
            self._parent.children.append(self)
        _STATE.span = self
        self._start_wall = time.perf_counter()
        self._start_cpu = _thread_cpu()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_seconds = time.perf_counter() - self._start_wall
        self.cpu_seconds = _thread_cpu() - self._start_cpu
        _STATE.span = self._parent

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """The first span named ``name`` in depth-first order (or ``None``)."""
        for candidate in self.walk():
            if candidate.name == name:
                return candidate
        return None

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form; inverse of :meth:`from_dict`."""
        record: Dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a (finished) span tree from :meth:`to_dict` output."""
        if not isinstance(data, dict) or "name" not in data:
            raise ValueError(f"not a serialized span: {data!r}")
        rebuilt = cls(str(data["name"]), **data.get("attrs", {}))
        rebuilt.wall_seconds = float(data.get("wall_seconds", 0.0))
        rebuilt.cpu_seconds = float(data.get("cpu_seconds", 0.0))
        rebuilt.children = [
            cls.from_dict(child) for child in data.get("children", [])
        ]
        return rebuilt

    def render(self) -> str:
        """The span tree as indented text (one line per span)."""
        return render_span_tree(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, wall={self.wall_seconds * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """The shared do-nothing span returned when no trace is active."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


class _TraceState(threading.local):
    """Per-thread trace state.  ``span`` defaults to ``None`` on the class,
    so the untraced check in :func:`span` is one attribute read, not a
    ``getattr`` call with a default."""

    span: Optional[Span] = None


_NOOP = _NoopSpan()
_STATE = _TraceState()


def current_span() -> Optional[Span]:
    """The calling thread's innermost open span (``None`` when not tracing)."""
    return _STATE.span


def is_tracing() -> bool:
    """True when a trace is active on the calling thread."""
    return _STATE.span is not None


def span(name: str, **attrs: Any):
    """A child span of the current trace — or a shared no-op when not tracing.

    This is *the* instrumentation primitive: call it unconditionally in any
    code path worth timing; the un-traced cost is one thread-local read.
    """
    if _STATE.span is None:
        return _NOOP
    return Span(name, **attrs)


def start_trace(name: str, **attrs: Any) -> Span:
    """Open a trace root on this thread; pair with :func:`end_trace`.

    Inside an already-active trace this opens a nested root: the span both
    joins the outer tree as a child and is returned by the matching
    :func:`end_trace`.
    """
    root = Span(name, **attrs)
    root.__enter__()
    roots = getattr(_STATE, "roots", None)
    if roots is None:
        roots = _STATE.roots = []
    roots.append(root)
    return root


def end_trace() -> Optional[Span]:
    """Close the innermost open trace and return its (finished) root span.

    Spans left open inside the trace (an exception unwound past them) are
    closed on the way out.  Returns ``None`` when no trace is active.
    """
    roots = getattr(_STATE, "roots", None)
    if not roots:
        return None
    root = roots.pop()
    # Close any still-open descendants, then the root itself.
    current = getattr(_STATE, "span", None)
    while current is not None and current is not root:
        current.__exit__(None, None, None)
        current = getattr(_STATE, "span", None)
    if current is root:
        root.__exit__(None, None, None)
    return root


class trace:
    """Context manager form of :func:`start_trace`/:func:`end_trace`.

    ``with obs.trace("answer") as root: ...`` — after the block, ``root``
    carries the finished timings and children.
    """

    def __init__(self, name: str, **attrs: Any) -> None:
        self._name = name
        self._attrs = attrs
        self.root: Optional[Span] = None

    def __enter__(self) -> Span:
        self.root = start_trace(self._name, **self._attrs)
        return self.root

    def __exit__(self, *exc_info: object) -> None:
        end_trace()


def render_span_tree(root: Span) -> str:
    """Indented one-line-per-span rendering of a trace (CLI ``--trace``)."""
    lines: List[str] = []

    def emit(node: Span, depth: int) -> None:
        attrs = ""
        if node.attrs:
            rendered = " ".join(
                f"{key}={value!r}" for key, value in sorted(node.attrs.items())
            )
            attrs = f"  [{rendered}]"
        lines.append(
            f"{'  ' * depth}{node.name:<{max(28 - 2 * depth, 1)}} "
            f"{node.wall_seconds * 1000:9.3f}ms  cpu {node.cpu_seconds * 1000:8.3f}ms"
            f"{attrs}"
        )
        for child in node.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
