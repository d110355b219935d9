"""The translation-plan cache: reuse compiled plans across queries.

Translating one XPath query runs CycleEX/CycleE over the DTD graph and the
Sect. 5 lowering — work that depends only on the query once the DTD,
storage mapping, strategy, lowering options and optimizer level are fixed,
and never on the document.  Each
:class:`~repro.core.pipeline.XPathToSQLTranslator` fixes all of those, so
it keys its own :class:`PlanCache` by the canonical query text alone
(:meth:`~repro.core.pipeline.XPathToSQLTranslator.plan_key`), and no cache
is shared between translators:

* the cache is bounded (LRU eviction at ``capacity``) and thread-safe, so
  one cache can sit behind a multi-threaded :class:`~repro.service.QueryService`;
* :meth:`PlanCache.cache_info` exposes hit/miss/eviction counters in the
  spirit of :func:`functools.lru_cache`, which is what the service
  benchmarks and the cache-policy tests read.

The cache stores opaque values (in practice
:class:`~repro.core.pipeline.TranslationResult` objects); it never inspects
them, so each document store reuses it for prepared programs and results
under the same keys.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro import obs
from repro.dtd.model import DTD

__all__ = ["CacheInfo", "PlanCache", "dtd_fingerprint"]


def dtd_fingerprint(dtd: DTD) -> str:
    """A short content hash of a DTD (name + grammar text).

    Two DTDs share a fingerprint iff they serialize identically; the
    process pool hashes it with a document id to place the document.
    """
    digest = hashlib.sha256(f"{dtd.name}\n{dtd.to_text()}".encode("utf-8"))
    return digest.hexdigest()[:16]


class _InFlight:
    """One in-progress factory call: followers block on ``event`` and then
    read the leader's ``value`` (or re-raise its ``error``)."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = _UNSET
        self.error: Optional[BaseException] = None


_UNSET = object()


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of cache counters (:func:`functools.lru_cache` style)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """A bounded, thread-safe LRU mapping a key to a plan.

    ``capacity`` bounds the number of retained plans; 0 disables retention
    entirely (every lookup misses) while keeping the counters live, which is
    how benchmarks measure the uncached baseline through identical code
    paths.

    :meth:`get_or_create` is the primary API: it looks up the key and calls
    the factory on a miss.  The factory runs *outside* the internal lock —
    translation can take milliseconds and must not serialize unrelated
    lookups — but misses on the *same* key are single-flight: one caller
    becomes the leader and runs the factory, concurrent callers for that key
    block on a per-key in-flight record and receive the leader's result (or
    re-raise its exception) instead of duplicating the work.

    ``name`` labels the cache in the process-wide metrics registry: every
    hit/miss/eviction also increments ``cache.<name>.hits`` etc., so
    ``repro stats`` sees all caches of a kind aggregated together while
    :meth:`cache_info` stays per-instance.
    """

    def __init__(self, capacity: int = 128, name: str = "plan") -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._inflight: "dict[Hashable, _InFlight]" = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.name = name
        registry = obs.registry()
        self._hit_counter = registry.counter(f"cache.{name}.hits")
        self._miss_counter = registry.counter(f"cache.{name}.misses")
        self._eviction_counter = registry.counter(f"cache.{name}.evictions")

    @property
    def capacity(self) -> int:
        """Maximum number of retained plans."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached plan for ``key``, or ``None`` (counts a hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                value = self._entries[key]
            else:
                self._misses += 1
                value = None
        if value is not None:
            self._hit_counter.inc()
        else:
            self._miss_counter.inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry at capacity."""
        evicted = 0
        with self._lock:
            if self._capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            self._eviction_counter.inc(evicted)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached plan for ``key``, creating it via ``factory`` on a miss.

        Concurrent misses on the same key are deduplicated (single-flight):
        exactly one caller runs ``factory`` while the others block and share
        its result.  A factory exception is propagated to every waiter and
        nothing is cached, so the next call retries.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                value = self._entries[key]
                leader = None
            else:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                    self._misses += 1
                else:
                    leader = False
        if leader is None:
            self._hit_counter.inc()
            return value

        if leader:
            self._miss_counter.inc()
            try:
                value = factory()
            except BaseException as exc:
                flight.error = exc
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            # Publish to the cache *before* retiring the flight so a thread
            # arriving in between sees the entry rather than starting a
            # duplicate flight.
            self.put(key, value)
            flight.value = value
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            return value

        flight.event.wait()
        if flight.error is not None:
            raise flight.error
        # Joining an in-flight computation avoided a duplicate factory run —
        # account for it as a hit, exactly like finding the finished entry.
        with self._lock:
            self._hits += 1
        self._hit_counter.inc()
        return flight.value

    def cache_info(self) -> CacheInfo:
        """Current hit/miss/eviction counters and occupancy."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"PlanCache(capacity={info.capacity}, size={info.size}, "
            f"hits={info.hits}, misses={info.misses})"
        )
