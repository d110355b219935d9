"""The measured run: servers launched, slices timed, answers verified.

One invocation builds every selected workload's inputs from the seed and
launches each workload's server ``launches`` times in turn; the median
launch-to-ready time is ``setup_s``.  Every launch then serves an untimed
warm-up round and one timed slice, replaying the workload's request
sequence from its start on the fresh server.  With several workloads, all
their servers of one launch are up together and their rounds run
round-robin, one server driven at a time.

A slice lasts at least ``seconds / launches`` and carries at least
``MIN_READS`` reads, so its p95 has ten samples beyond it.  Metrics are
medians over slices (over launches for ``setup_s``).  Each slice has a
launch of its own because on a 2-core host hot-read's throughput spread by
about 22% from launch to launch but by about 8% between windows against
one server.

Every time metric is scaled to the host's speed (see :mod:`bench.host`):
the echo probe runs before every round and every launch, times are
multiplied by ``NOMINAL_RTT_US`` over the run's median probe and rates are
divided by it.  The report keeps the raw values beside the scaled ones.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from bench.client import LoadClient, Record, Server
from bench.host import NOMINAL_RTT_US, EchoProbe, ref_loop_ms
from bench.stats import slice_metrics, summarize
from bench.verify import verify
from bench.workloads import Workload, build

__all__ = ["ROOT", "REPORT_ONLY", "benchmark_config", "end_to_end", "provenance", "run"]

ROOT = Path(__file__).resolve().parent.parent

#: Reads per slice: p95 with ten samples beyond it.
MIN_READS = 200

#: Server launches per run: timed slices, and set-up times to take the
#: median of.
LAUNCHES = 5

#: Seconds of the untimed warm-up round of each launch.
WARMUP_S = 0.5

#: Requests generated before a round, as a multiple of what the fastest
#: rate seen so far would send in it.  A round that still runs out pauses,
#: generates more with its clock stopped, and goes on.
LOOKAHEAD = 1.5

#: End-to-end metrics in every report and in ``compare`` but not in
#: ``BENCHMARK.json``: name -> (unit, better, bound).  The serving metrics
#: do not hold a 0.10 bound from one run to the next on a shared host (see
#: ``bench/results/README.md``), so they are not contract metrics; compare
#: them on runs of both commits made in turn, close together.
#: ``update_p50_ms`` exists only on live-mixed and ``error_rate`` is 0 in a
#: correct run, while a contract metric must exist on every workload and
#: never be 0.
REPORT_ONLY: Dict[str, Tuple[str, str, float]] = {
    "throughput_rps": ("req/s", "higher", 0.1),
    "latency_p50_ms": ("ms", "lower", 0.1),
    "latency_p95_ms": ("ms", "lower", 0.1),
    "update_p50_ms": ("ms", "lower", 0.1),
    "error_rate": ("ratio", "lower", 0.0),
}

#: How a metric follows the host's speed, by unit: times scale with it,
#: rates inversely.
_TIME_UNITS = ("ms", "s")
_RATE_UNITS = ("req/s",)


def benchmark_config() -> Dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def end_to_end(benchmark: Dict[str, Any]) -> Dict[str, Tuple[str, str, float]]:
    """Every end-to-end metric a run reports: name -> (unit, better, bound)."""
    table = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    for name, entry in REPORT_ONLY.items():
        table.setdefault(name, entry)
    return table


def provenance(seed: int) -> Dict[str, Any]:
    """Host and source identity recorded in every report."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


async def _round(
    client: LoadClient, workload: Workload, start: int, seconds: float, min_reads: int,
    rate: Dict[str, float],
) -> Tuple[List[Record], float, int]:
    """One warm-up or timed slice, generating requests ahead of it."""
    stream = workload.stream
    records: List[Record] = []
    wall = 0.0
    position = start
    while True:
        remaining_s = max(0.0, seconds - wall)
        remaining_reads = max(0, min_reads - sum(1 for r in records if r.kind == "read"))
        ahead = math.ceil(LOOKAHEAD * max(rate[workload.name] * remaining_s, remaining_reads)) + 16
        missing = position + ahead - len(stream.requests)
        if missing > 0:
            stream.extend(missing)
        # The client's collector would pause it mid-request with a cost
        # that grows with the records kept so far.
        gc.collect()
        gc.disable()
        try:
            part, part_wall, position, finished = await client.run_slice(
                stream.requests, position, remaining_s, remaining_reads
            )
        finally:
            gc.enable()
        records.extend(part)
        wall += part_wall
        if part_wall > 0:
            rate[workload.name] = max(rate[workload.name], len(part) / part_wall)
        if finished:
            return records, wall, position


async def _drive(
    workloads: Sequence[Workload],
    servers: Dict[str, Server],
    probe: EchoProbe,
    rtt: List[float],
    slice_s: float,
    min_reads: int,
    rate: Dict[str, float],
) -> Dict[str, List[Dict[str, Any]]]:
    """One launch's load: a warm-up round, then a round of timed slices."""
    clients = {w.name: LoadClient(servers[w.name].port) for w in workloads}
    position = {w.name: 0 for w in workloads}
    out: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in workloads}
    # The warm-up pays lazy set-up in the server and the client (threads,
    # buffers, the interpreter's specialized code) before any slice is
    # timed.  Its answers are still verified.
    rounds = [(WARMUP_S, 0), (slice_s, min_reads)]
    try:
        for number, (seconds, reads) in enumerate(rounds):
            for workload in workloads:
                name = workload.name
                rtt.append(probe.rtt_us())
                ref = ref_loop_ms()
                records, wall, position[name] = await _round(
                    clients[name], workload, position[name], seconds, reads, rate
                )
                out[name].append({
                    "wall_s": wall, "ref_loop_ms": ref, "rtt_us": rtt[-1],
                    "records": records, "warmup": number == 0,
                })
    finally:
        for client in clients.values():
            await client.close()
    return out


def _scaled(unit: str, value: float, scale: float) -> float:
    if unit in _TIME_UNITS:
        return value * scale
    if unit in _RATE_UNITS:
        return value / scale
    return value


def _summarize_workload(
    workload: Workload,
    metrics_table: Dict[str, Tuple[str, str, float]],
    setup: List[float],
    slices: List[Dict[str, Any]],
    min_reads: int,
    scale: float,
) -> Dict[str, Any]:
    records: List[Record] = [r for s in slices for r in s["records"]]
    errors = [r.error for r in records if r.error]
    mismatches = verify(workload, records)
    per_slice = []
    for entry in slices:
        if entry["warmup"]:
            continue
        ok = [r for r in entry["records"] if r.status == 200]
        measured = slice_metrics(
            entry["wall_s"],
            len(ok),
            [r.latency_s for r in entry["records"] if r.kind == "read"],
            [r.latency_s for r in entry["records"] if r.kind == "update"],
            min_beyond=max(1, min_reads // 20),
        )
        per_slice.append({
            "wall_s": entry["wall_s"],
            "ref_loop_ms": entry["ref_loop_ms"],
            "rtt_us": entry["rtt_us"],
            "requests": len(entry["records"]),
            "reads": sum(1 for r in entry["records"] if r.kind == "read"),
            **{k: v for k, v in measured.items() if v is not None},
        })
    attempted = len(records)
    failed = len(errors) + len(mismatches)
    metrics: Dict[str, Any] = {}
    for name, (unit, _, _) in metrics_table.items():
        if name == "setup_s":
            raw = setup
        elif name == "error_rate":
            raw = [failed / attempted]
        else:
            raw = [entry[name] for entry in per_slice if name in entry]
        if raw:
            values = [_scaled(unit, value, scale) for value in raw]
            metrics[name] = {"unit": unit, "values": values, "raw_values": raw, **summarize(values)}
    return {
        "document_elements": workload.tree.size(),
        "attempted": attempted,
        "failed": failed,
        "error_samples": (errors + mismatches)[:5],
        "slices": per_slice,
        "metrics": metrics,
    }


def run(
    names: Sequence[str],
    seed: int,
    seconds: float,
    launches: int = LAUNCHES,
    min_reads: int = MIN_READS,
) -> Dict[str, Any]:
    """Measure ``names``; returns the report dict."""
    metrics_table = end_to_end(benchmark_config())
    workloads = [build(name, seed) for name in names]
    setup: Dict[str, List[float]] = {w.name: [] for w in workloads}
    rounds: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in workloads}
    rate = {w.name: 0.0 for w in workloads}
    rtt: List[float] = []
    with EchoProbe() as probe:
        for _ in range(launches):
            rtt.append(probe.rtt_us())
            servers: Dict[str, Server] = {}
            try:
                for workload in workloads:
                    servers[workload.name] = Server(ROOT, workload.server_recipe())
                    setup[workload.name].append(servers[workload.name].setup_s)
                driven = asyncio.run(_drive(
                    workloads, servers, probe, rtt, seconds / launches, min_reads, rate
                ))
                for name, entries in driven.items():
                    rounds[name].extend(entries)
            finally:
                for server in servers.values():
                    server.stop()
    rtt_median = statistics.median(rtt)
    scale = NOMINAL_RTT_US / rtt_median
    return {
        "kind": "run",
        "provenance": provenance(seed),
        "seconds": seconds,
        "launches": launches,
        "host": {
            "rtt_us": rtt,
            "rtt_us_median": rtt_median,
            "nominal_rtt_us": NOMINAL_RTT_US,
            "scale": scale,
        },
        "workloads": {
            w.name: _summarize_workload(w, metrics_table, setup[w.name], rounds[w.name], min_reads, scale)
            for w in workloads
        },
    }
