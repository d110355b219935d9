"""``repro.obs`` — zero-dependency tracing, metrics and structured logs.

The observability seam for the whole engine:

- :mod:`repro.obs.trace` — hierarchical :class:`Span` trees with a no-op
  fast path (``span()`` costs one thread-local read when no trace is
  active), ``start_trace``/``end_trace``/``trace``/``attach``.
- :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry` of
  thread-safe counters, gauges and p50/p95/p99 histograms.
- :mod:`repro.obs.logs` — JSON-lines event emission, off by default.
- :class:`Timer` — the one shared elapsed-time utility; every ad-hoc
  ``time.perf_counter()`` block in the repo routes through it.

Everything here is stdlib-only and imports nothing from the rest of
``repro``, so any layer (plan cache, backends, service, facade) can
instrument itself without import cycles.
"""

from __future__ import annotations

import time

from .logs import configure as configure_logs
from .logs import disable as disable_logs
from .logs import emit, emit_span
from .logs import is_enabled as logs_enabled
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    registry,
    set_registry,
)
from .trace import (
    Span,
    attach,
    current_span,
    end_trace,
    is_tracing,
    render_span_tree,
    span,
    start_trace,
    trace,
)

__all__ = [
    # trace
    "Span",
    "span",
    "trace",
    "start_trace",
    "end_trace",
    "current_span",
    "is_tracing",
    "attach",
    "render_span_tree",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "registry",
    "set_registry",
    # logs
    "configure_logs",
    "disable_logs",
    "logs_enabled",
    "emit",
    "emit_span",
    # timing
    "Timer",
]


class Timer:
    """The shared elapsed-time block: ``with Timer() as t: ...; t.seconds``.

    Wall-clock via ``time.perf_counter()``.  ``seconds`` reads live while
    the block is still open (useful for progress output) and freezes at
    exit.  Optionally records into a registry histogram::

        with Timer(metric="fuzz.case_seconds"):
            run_case()
    """

    __slots__ = ("_start", "_elapsed", "_metric")

    def __init__(self, metric: str = "") -> None:
        self._start = 0.0
        self._elapsed: float = -1.0
        self._metric = metric

    def __enter__(self) -> "Timer":
        self._elapsed = -1.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._elapsed = time.perf_counter() - self._start
        if self._metric:
            registry().histogram(self._metric).observe(self._elapsed)

    @property
    def seconds(self) -> float:
        """Elapsed seconds — live inside the block, frozen after exit."""
        if self._elapsed >= 0.0:
            return self._elapsed
        return time.perf_counter() - self._start
