"""The query service layer: cached plans over prepared document stores.

:class:`QueryService` is the one route from a query to an answer: it owns
one DTD and a translator with an LRU
:class:`~repro.core.plancache.PlanCache` of compiled plans, holds
registered documents as *prepared stores* (shredded once, backend loaded
once, plans prepared once) and answers queries — singly, in batches, and
concurrently from many threads.

Threads do not speed up this pure-Python CPU workload (the frozen
``BENCH_3.json`` record), so :mod:`repro.service.pool` adds the
process-based tier — :class:`ProcessQueryService`, N worker processes with
sharded document stores behind one facade — and :mod:`repro.service.http`
puts an asyncio HTTP/JSON front end (and a verifying load generator) on top
of it.  The repository benchmark (``python3 -m bench run``) times whole
requests through that stack.
"""

from __future__ import annotations

from repro.core.plancache import CacheInfo, PlanCache, dtd_fingerprint
from repro.service.pool import PoolAnswer, ProcessQueryService
from repro.service.service import DocumentStore, QueryService

__all__ = [
    "CacheInfo",
    "DocumentStore",
    "PlanCache",
    "PoolAnswer",
    "ProcessQueryService",
    "QueryService",
    "dtd_fingerprint",
]
