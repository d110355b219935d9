"""The traced pass: one workload sample split by layer, measured from outside.

A fresh server at document version 0 and a 200-request sample of the
workload's sequence.  Each request goes, one at a time and in lockstep,
through five arms, so all of them see the same host phase:

* **http** - ``POST`` to the bench server (the client's round trip);
* **pool** - the same call on the bench's own ``ProcessQueryService`` with
  the server's settings (round trip, plus the worker's
  ``PoolAnswer.elapsed_seconds``, plus ``json.dumps`` of the answer, which
  is the server's encode step).  Its workers are spawned: forked from this
  process they would inherit its heap, and collecting it made them slower
  than the server's own workers;
* **service** - an untraced in-process ``QueryService`` (``answer_ms``,
  ``update_ms`` and its cache counters);
* **replay** - the service's steps called one public function at a time,
  each inside one bench span: ``parse_xpath``, ``plan_key``, ``to_extended``,
  ``lower_extended``, ``ProgramOptimizer.run``, ``Backend.prepare``,
  ``execute_prepared``, ``nodes_for_ids``, ``DocumentMutator.apply_script``
  and ``Backend.apply_delta``, behind plan, prepared-program and result
  caches of the configured sizes;
* **untraced replay** - the same steps with spans off; against the
  replay it gives the tracing overhead.

Only bench spans are recorded; the program's own spans stay off.  The
per-layer metrics are means per call over every call the replay made
(document set-up, warm-up and sample), so a layer that the sample never
reaches still reports what one call costs.  The decomposition (see
:func:`_decompose`) is per sample request; ``unattributed_ms`` is the
service time no layer call covers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.backends import create_backend
from repro.core.optimize import ProgramOptimizer
from repro.core.pipeline import XPathToSQLTranslator
from repro.live.mutations import DocumentMutator, mutation_from_dict
from repro.service import ProcessQueryService, QueryService
from repro.shredding.shredder import shred_document
from repro.xpath.parser import parse_xpath

from bench.client import Connection, Record, Server, answer_digest
from bench.host import ref_loop_ms
from bench.runner import ROOT, provenance
from bench.verify import verify
from bench.workloads import Workload, build

__all__ = ["SAMPLE", "Tracer", "traced_run"]

SAMPLE = 200


class Tracer:
    """Bench-side spans: name, start, duration, attributes, children."""

    def __init__(self) -> None:
        self.roots: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        began = time.perf_counter()
        node: Dict[str, Any] = {
            "name": name,
            "start_ms": (began - self._origin) * 1000.0,
            "attrs": attrs,
            "children": [],
        }
        (self._stack[-1]["children"] if self._stack else self.roots).append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node["ms"] = (time.perf_counter() - began) * 1000.0
            self._stack.pop()

    def walk(self, roots: Optional[List[Dict[str, Any]]] = None) -> Iterator[Dict[str, Any]]:
        pending = list(self.roots if roots is None else roots)
        while pending:
            node = pending.pop()
            yield node
            pending.extend(node["children"])


class NullTracer:
    """The same interface recording nothing: the untraced replay."""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        yield {"attrs": {}}


class _LRU:
    """A bounded LRU mirroring the service's caches (capacity 0 = off)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any) -> Any:
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> None:
        if self.capacity <= 0:
            return
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def clear(self) -> None:
        self._items.clear()


class Replay:
    """The service's answer and update steps, one traced public call each."""

    def __init__(self, workload: Workload, tracer) -> None:
        config = workload.wl.config
        self.dtd = workload.dtd
        self.tracer = tracer
        self.translator = XPathToSQLTranslator(self.dtd, config=config)
        self.optimizer = ProgramOptimizer(
            dtd=self.dtd, mapping=self.translator.mapping,
            level=self.translator.optimize_level,
        )
        span = tracer.span
        with span("setup"):
            with span("xmltree.generate"):
                tree = workload.document.generate(self.dtd)
            with span("shredding.shred") as sp:
                self.shredded = shred_document(tree, self.dtd, self.translator.mapping)
                sp["attrs"]["rows"] = self.shredded.database.total_rows()
            with span("backends.load"):
                self.backend = create_backend(config, self.shredded.database)
        self.plans = _LRU(config.plan_cache_size)
        self.prepared = _LRU(config.plan_cache_size)
        self.results = _LRU(config.result_cache_size)
        self.mutator: Optional[DocumentMutator] = None

    def answer(self, query: str) -> List[int]:
        span = self.tracer.span
        with span("xpath.parse"):
            path = parse_xpath(query)
        with span("core.plan_key"):
            key = self.translator.plan_key(path)
        result = self.results.get(key)
        if result is None:
            program = self.plans.get(key)
            if program is None:
                with span("core.translate"):
                    with span("core.to_extended"):
                        extended = self.translator.to_extended(path)
                    with span("core.lower") as sp:
                        program = self.translator.lower_extended(extended)
                        sp["attrs"]["operators"] = program.operator_profile().total
                    with span("core.optimize") as sp:
                        program = self.optimizer.run(program)
                        sp["attrs"]["operators"] = program.operator_profile().total
                self.plans.put(key, program)
            prepared = self.prepared.get(key)
            if prepared is None:
                with span("backends.prepare") as sp:
                    prepared = self.backend.prepare(program)
                    sp["attrs"]["statements"] = len(getattr(prepared.payload, "statements", ()))
                self.prepared.put(key, prepared)
            with span("backends.execute") as sp:
                result = self.backend.execute_prepared(prepared)
                sp["attrs"].update(result.stats)
            self.results.put(key, result)
        with span("service.materialize"):
            nodes = self.shredded.nodes_for_ids(result.node_ids())
        return [node.node_id for node in nodes]

    def update(self, script) -> None:
        span = self.tracer.span
        if self.mutator is None:
            self.mutator = DocumentMutator(
                self.shredded.tree, self.dtd, mapping=self.shredded.mapping
            )
        with span("live.mutate") as sp:
            delta = self.mutator.apply_script([mutation_from_dict(m) for m in script])
            sp["attrs"]["delta_rows"] = delta.delete_count() + delta.insert_count()
        if not delta.is_empty():
            with span("backends.apply_delta"):
                self.backend.apply_delta(delta)
        self.results.clear()

    def close(self) -> None:
        self.backend.close()


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


#: Per-call span means reported as per-layer metrics: metric -> span name.
_SPAN_MS = {
    "xpath.parse_ms": "xpath.parse",
    "core.plan_key_ms": "core.plan_key",
    "core.translate_ms": "core.translate",
    "core.to_extended_ms": "core.to_extended",
    "core.lower_ms": "core.lower",
    "core.optimize_ms": "core.optimize",
    "backends.prepare_ms": "backends.prepare",
    "backends.execute_ms": "backends.execute",
    "backends.load_ms": "backends.load",
    "backends.apply_delta_ms": "backends.apply_delta",
    "service.materialize_ms": "service.materialize",
    "shredding.shred_ms": "shredding.shred",
    "xmltree.generate_ms": "xmltree.generate",
    "live.mutate_ms": "live.mutate",
}

#: Per-call attribute means: metric -> (span name, attribute).
_SPAN_COUNTS = {
    "core.operators_lowered": ("core.lower", "operators"),
    "core.operators_optimized": ("core.optimize", "operators"),
    "backends.sql_statements": ("backends.prepare", "statements"),
    "backends.result_rows": ("backends.execute", "rows"),
    "relational.fixpoint_iterations": ("backends.execute", "fixpoint_iterations"),
    "relational.join_output_rows": ("backends.execute", "join_output_rows"),
    "relational.tuples_materialized": ("backends.execute", "tuples_materialized"),
    "shredding.rows": ("shredding.shred", "rows"),
    "live.delta_rows": ("live.mutate", "delta_rows"),
}

#: The spans that split the service's time in the decomposition.
_TABLE_SPANS = (
    "xpath.parse", "core.plan_key", "core.translate", "backends.prepare", "backends.execute",
    "service.materialize", "live.mutate", "backends.apply_delta",
)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-call means of every bench span (ms) and span attribute (counts)."""
    durations: Dict[str, List[float]] = defaultdict(list)
    attrs: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for node in tracer.walk():
        durations[node["name"]].append(node["ms"])
        attrs[node["name"]].append(node["attrs"])
    out: Dict[str, float] = {}
    for metric, name in _SPAN_MS.items():
        if durations[name]:
            out[metric] = _mean(durations[name])
    for metric, (name, attr) in _SPAN_COUNTS.items():
        if attrs[name]:
            out[metric] = _mean([float(a.get(attr, 0)) for a in attrs[name]])
    return out


async def _sample(
    workload: Workload, server: Server, tracer: Tracer, size: int
) -> Dict[str, Any]:
    config = workload.wl.config
    pool = ProcessQueryService(
        workload.dtd, config=config, workers=2, replicas=2, warmup=workload.warm,
        start_method="spawn",
    )
    service = QueryService(workload.dtd, config=config)
    connection = Connection(server.port)
    replays: List[Replay] = []
    try:
        pool.register_generated("doc", workload.document)
        service.register_document("doc", workload.document.generate(workload.dtd))
        untraced = Replay(workload, NullTracer())
        replays.append(untraced)
        replay = Replay(workload, tracer)
        replays.append(replay)
        for query in workload.warm:
            pool.answer(query, "doc", include_nodes=False)
            service.answer(query, "doc")
            untraced.answer(query)
            with tracer.span("warm"):
                replay.answer(query)
        plan_before = service.cache_info()
        result_before = service.result_cache_info()

        workload.stream.extend(size)
        sample = workload.stream.requests[:size]
        versions, current = [], 0  # the document version each request observes
        for request in sample:
            versions.append(current)
            if request.kind == "update":
                current = request.version
        done: Dict[str, Dict[int, Any]] = defaultdict(dict)

        async def remote(i: int) -> None:
            request = sample[i]
            read = request.kind == "read"
            began = time.perf_counter()
            status, payload = await connection.request(
                "POST",
                "/answer" if read else "/update",
                {"query": request.query, "include_nodes": False} if read
                else {"mutations": list(request.script)},
            )
            http_ms = (time.perf_counter() - began) * 1000.0
            began = time.perf_counter()
            if read:
                answer = pool.answer(request.query, "doc", include_nodes=False)
            else:
                answer = pool.update_document(list(request.script), "doc")
            pool_ms = (time.perf_counter() - began) * 1000.0
            encode_ms = None
            if read:
                began = time.perf_counter()
                json.dumps(answer.to_dict())
                encode_ms = (time.perf_counter() - began) * 1000.0
            done["remote"][i] = (http_ms, status, payload, pool_ms, answer, encode_ms)

        async def traced(i: int) -> None:
            request = sample[i]
            with tracer.span("request", index=i, kind=request.kind) as root:
                if request.kind == "read":
                    ids = replay.answer(request.query)
                else:
                    ids = replay.update(request.script)
            done["traced"][i] = (root, ids)

        async def plain(i: int) -> None:
            request = sample[i]
            began = time.perf_counter()
            if request.kind == "read":
                untraced.answer(request.query)
            else:
                untraced.update(request.script)
            done["untraced"][i] = (time.perf_counter() - began) * 1000.0

        async def served(i: int) -> None:
            request = sample[i]
            began = time.perf_counter()
            if request.kind == "read":
                nodes = [node.node_id for node in service.answer(request.query, "doc")]
            else:
                nodes = service.update_document(list(request.script), "doc")
            done["service"][i] = ((time.perf_counter() - began) * 1000.0, nodes)

        # Staggered lockstep: in one step each arm handles a different
        # request, so no arm runs right after another arm computed the same
        # answer, while all arms share the host's current speed.  The
        # in-process arms also rotate their order: whichever runs first
        # after the round trips finds the caches cold (by about 30% on
        # fresh-plans), so each takes every position equally often.
        # The collector runs between steps only: this process holds a
        # document copy per arm, and a pause landing inside one arm's call
        # would be charged to whichever layer was running.
        local = [(1, traced), (2, plain), (3, served)]
        gc.disable()
        for step in range(len(sample) + len(local)):
            if step < len(sample):
                await remote(step)
            turn = step % len(local)
            for offset, stage in local[turn:] + local[:turn]:
                if 0 <= step - offset < len(sample):
                    await stage(step - offset)
            if step % 16 == 15:
                gc.collect()
        gc.enable()

        arms: Dict[str, List[Record]] = defaultdict(list)
        rows: Dict[str, List[float]] = defaultdict(list)
        errors: List[str] = []
        for i, request in enumerate(sample):
            http_ms, status, payload, pool_ms, answer, encode_ms = done["remote"][i]
            root, replayed = done["traced"][i]
            service_ms, nodes = done["service"][i]
            if status != 200:
                errors.append(f"http: request {i}: HTTP {status}: {payload}")
            rows["http_rtt"].append(http_ms)
            rows["http.overhead"].append(http_ms - pool_ms)
            rows["traced"].append(root["ms"])
            rows["untraced"].append(done["untraced"][i])
            if request.kind == "read":
                worker_ms = answer.elapsed_seconds * 1000.0
                rows["worker"].append(worker_ms)
                rows["http.encode"].append(encode_ms)
                rows["pool.overhead"].append(pool_ms - worker_ms)
                rows["service.answer"].append(service_ms)
                for arm, ids in (
                    ("http", payload["node_ids"] if status == 200 else None),
                    ("pool", answer.node_ids),
                    ("service", nodes),
                    ("replay", replayed),
                ):
                    arms[arm].append(Record(
                        i, "read", 0.0, 200, versions[i],
                        answer=None if ids is None else answer_digest(ids),
                    ))
            else:
                rows["pool.update"].append(pool_ms)
                rows["service.update"].append(service_ms)
        roots = [done["traced"][i][0] for i in range(len(sample))]

        plan_after = service.cache_info()
        result_after = service.result_cache_info()
        status, stats = await connection.request("GET", "/stats")
        counters = stats["pool"]["metrics"].get("counters", {}) if status == 200 else {}
        for arm, records in arms.items():
            errors.extend(f"{arm}: {line}" for line in verify(workload, records))
        return {
            "rows": rows,
            "roots": roots,
            "reads": len(rows["service.answer"]),
            "plan_misses": plan_after.misses - plan_before.misses,
            "result_hits": result_after.hits - result_before.hits,
            "respawns": counters.get("pool.respawns", 0),
            "errors": errors,
        }
    finally:
        gc.enable()
        await connection.close()
        for replay in replays:
            replay.close()
        service.close()
        pool.close()


def _stop_resource_tracker() -> None:
    """End the tracker process that spawning the pools' workers started.

    It would otherwise outlive this process by a moment and be left
    without a parent to reap it.  The pools' semaphores are collected
    first, so the tracker has none left to clean up; ``_stop`` closes its
    pipe and waits for it.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _decompose(tracer: Tracer, sample: Dict[str, Any]) -> Dict[str, Any]:
    """Two tables per sample request, each summing to the time it splits.

    ``remote`` splits the HTTP round trip by the round trips and the
    worker's own clock.  ``local`` splits the untraced service's time by
    the replay's spans; both run in this process with the collector
    paused, so the remainder (``unattributed``) is service work that no
    layer call covers.
    """
    rows = sample["rows"]
    count = len(rows["http_rtt"])
    remote = [
        (name, sum(rows[key]) / count)
        for name, key in (
            ("http.overhead", "http.overhead"),
            ("pool.overhead", "pool.overhead"),
            ("worker", "worker"),
            ("pool.update", "pool.update"),
        )
        if rows[key]
    ]
    per_span: Dict[str, float] = defaultdict(float)
    for node in tracer.walk(sample["roots"]):
        if node["name"] in _TABLE_SPANS:
            per_span[node["name"]] += node["ms"]
    service_ms = (sum(rows["service.answer"]) + sum(rows["service.update"])) / count
    local = [(name, per_span[name] / count) for name in _TABLE_SPANS if name in per_span]
    unattributed = service_ms - sum(ms for _, ms in local)
    local.append(("unattributed", unattributed))
    return {
        "total_ms": _mean(rows["http_rtt"]),
        "remote": remote,
        "service_ms": service_ms,
        "local": local,
        "unattributed_ms": unattributed,
        # What a worker spends on a read beyond the same call made here
        # with the collector paused: mostly garbage collection.
        "worker_gap_ms": _mean(rows["worker"]) - _mean(rows["service.answer"]),
    }


def traced_run(names, seed: int, trace_out, sample_size: int = SAMPLE) -> Dict[str, Any]:
    """The traced pass of each workload; writes span trees to ``trace_out``
    and returns the report dict."""
    report: Dict[str, Any] = {
        "kind": "trace",
        "provenance": provenance(seed),
        "sample": sample_size,
        "workloads": {},
    }
    traces: Dict[str, Any] = {}
    for name in names:
        workload = build(name, seed)
        ref = ref_loop_ms()
        server = Server(ROOT, workload.server_recipe())
        tracer = Tracer()
        try:
            sample = asyncio.run(_sample(workload, server, tracer, sample_size))
            rss = server.rss_mb()
        finally:
            server.stop()
            _stop_resource_tracker()
        rows = sample["rows"]
        reads = sample["reads"]
        metrics = layer_metrics(tracer)
        metrics.update({
            "http.overhead_ms": _mean(rows["http.overhead"]),
            "http.encode_ms": _mean(rows["http.encode"]),
            "pool.overhead_ms": _mean(rows["pool.overhead"]),
            "pool.rss_mb": rss,
            "pool.respawns": float(sample["respawns"]),
            "service.answer_ms": _mean(rows["service.answer"]),
            "service.plan_hit_ratio": 1.0 - sample["plan_misses"] / reads,
            "service.result_hit_ratio": sample["result_hits"] / reads,
            "host.ref_loop_ms": ref,
        })
        if rows["pool.update"]:
            metrics["pool.update_ms"] = _mean(rows["pool.update"])
            metrics["service.update_ms"] = _mean(rows["service.update"])
        decomposition = _decompose(tracer, sample)
        metrics["unattributed_ms"] = decomposition["unattributed_ms"]
        report["workloads"][name] = {
            "attempted": len(rows["http_rtt"]),
            "failed": len(sample["errors"]),
            "error_samples": sample["errors"][:5],
            "metrics": metrics,
            "decomposition": decomposition,
            "tracing_overhead": sum(rows["traced"]) / sum(rows["untraced"]) - 1.0,
        }
        traces[name] = tracer.roots
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w") as handle:
        json.dump(traces, handle)
    return report
