"""The executor benchmark: columnar batch engine vs tuple-at-a-time engine.

One harness feeds both ``repro bench-executor`` and
``benchmarks/test_bench_executor.py`` (which writes the repo's perf
baseline ``BENCH_6.json``), so the CLI smoke run in CI and the asserted
benchmark measure exactly the same scenarios:

``warm_plan``
    The memory backend at warm-plan steady state — the regime BENCH_3's
    ``plan_cached`` phase measures and the regime the serving tier lives
    in: plans compiled and prepared, the result cache *off*, every call
    paying pure execution.  Each BENCH_3 workload (dept, cross, gedml) is
    answered ``repeats`` times through a :class:`~repro.service.QueryService`
    once per executor; the headline number is the cross workload's
    ``speedup`` (tuple seconds / columnar seconds).

``fuzz_sweep``
    The differential fuzz oracle's hot loop — the other consumer the
    columnar engine was built for (the ROADMAP's "visibly cheaper fuzz
    sweeps").  One seeded sweep over the memory engines of the grid, run
    once per executor; both sweeps must be clean.

Every scenario cross-checks node-for-node that the two executors returned
identical answers (``results_match``) — a benchmark that got faster by
being wrong must fail loudly.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.config import EngineConfig
from repro.core.xpath_to_expath import DescendantStrategy
from repro.fuzz.harness import FuzzConfig, run_fuzz
from repro.relational.columnar import EXECUTOR_NAMES
from repro.service.bench import ServiceBenchConfig, _node_ids, _workloads
from repro.service.service import QueryService

__all__ = [
    "ExecutorBenchConfig",
    "describe_report",
    "run_executor_benchmark",
    "write_report",
]

BENCH_NAME = "columnar-executor"
BENCH_ISSUE = 6


@dataclass(frozen=True)
class ExecutorBenchConfig:
    """Knobs of one benchmark run (the defaults are the committed baseline)."""

    elements: int = 1200
    repeats: int = 5
    seed: int = 11
    cache_capacity: int = 128
    fuzz_budget: int = 40

    @classmethod
    def quick(cls) -> "ExecutorBenchConfig":
        """A tiny-budget configuration for CI smoke runs."""
        return cls(elements=300, repeats=2, fuzz_budget=8)

    def _service_config(self) -> ServiceBenchConfig:
        """The BENCH_3 workload shapes this benchmark reuses."""
        return ServiceBenchConfig(elements=self.elements, seed=self.seed)


def _bench_warm_plan(config: ExecutorBenchConfig) -> Dict[str, object]:
    """Warm-plan steady state per workload, once per executor."""
    workloads: Dict[str, object] = {}
    for label, dtd, queries, tree in _workloads(config._service_config()):
        seconds: Dict[str, float] = {}
        answers: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        for executor in EXECUTOR_NAMES:
            service = QueryService(
                dtd,
                config=EngineConfig(
                    backend="memory",
                    executor=executor,
                    plan_cache_size=config.cache_capacity,
                    result_cache_size=0,  # steady state = pure execution
                ),
            )
            service.register_document(label, tree)
            # Warm pass: compile + prepare every plan (and record answers
            # for the cross-executor match check).
            answers[executor] = {
                name: _node_ids(service.answer(query, label))
                for name, query in queries.items()
            }
            start = time.perf_counter()
            for _ in range(config.repeats):
                for query in queries.values():
                    service.answer(query, label)
            seconds[executor] = time.perf_counter() - start
        columnar_seconds = seconds["columnar"]
        tuple_seconds = seconds["tuple"]
        workloads[label] = {
            "queries": len(queries),
            "calls": len(queries) * config.repeats,
            "tuple_seconds": tuple_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": (tuple_seconds / columnar_seconds) if columnar_seconds else 0.0,
            "results_match": answers["tuple"] == answers["columnar"],
        }
    return {
        "workloads": workloads,
        "results_match": all(w["results_match"] for w in workloads.values()),
    }


def _bench_fuzz_sweep(config: ExecutorBenchConfig) -> Dict[str, object]:
    """One seeded fuzz sweep over the memory engines, once per executor."""
    entry: Dict[str, object] = {}
    seconds: Dict[str, float] = {}
    clean: Dict[str, bool] = {}
    for executor in EXECUTOR_NAMES:
        engines = [
            EngineConfig(
                backend="memory",
                strategy=strategy,
                push_selections=True,
                executor=executor,
            )
            for strategy in DescendantStrategy
        ]
        fuzz_config = FuzzConfig(
            seed=config.seed, budget=config.fuzz_budget, shrink=False
        )
        start = time.perf_counter()
        report = run_fuzz(fuzz_config, engines)
        seconds[executor] = time.perf_counter() - start
        clean[executor] = report.ok
    columnar_seconds = seconds["columnar"]
    tuple_seconds = seconds["tuple"]
    entry.update(
        {
            "cases": config.fuzz_budget,
            "engines_per_sweep": len(list(DescendantStrategy)),
            "tuple_seconds": tuple_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": (tuple_seconds / columnar_seconds) if columnar_seconds else 0.0,
            # Both sweeps compare each engine against the XPath evaluator,
            # so two clean sweeps mean both executors matched the reference
            # on every case.
            "results_match": clean["tuple"] and clean["columnar"],
        }
    )
    return entry


def run_executor_benchmark(
    config: Optional[ExecutorBenchConfig] = None,
) -> Dict[str, object]:
    """Run every scenario and return the (JSON-serializable) report."""
    config = config or ExecutorBenchConfig()
    report: Dict[str, object] = {
        "bench": BENCH_NAME,
        "issue": BENCH_ISSUE,
        "created_unix": int(time.time()),
        "config": asdict(config),
        "scenarios": {
            "warm_plan": _bench_warm_plan(config),
            "fuzz_sweep": _bench_fuzz_sweep(config),
        },
    }
    scenarios = report["scenarios"]
    report["ok"] = bool(
        scenarios["warm_plan"]["results_match"]
        and scenarios["fuzz_sweep"]["results_match"]
    )
    return report


def write_report(report: Dict[str, object], path: str) -> None:
    """Write a report as pretty-printed JSON (the ``BENCH_6.json`` format)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def describe_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a report (the CLI output)."""
    scenarios = report["scenarios"]
    warm = scenarios["warm_plan"]
    sweep = scenarios["fuzz_sweep"]
    lines: List[str] = [
        f"executor benchmark ({report['bench']}, "
        f"{report['config']['elements']} elements, "
        f"{report['config']['repeats']} warm passes)"
    ]
    for label, entry in warm["workloads"].items():
        lines.append(
            f"  warm plan [{label}]: tuple {entry['tuple_seconds']:.3f}s "
            f"-> columnar {entry['columnar_seconds']:.3f}s "
            f"({entry['speedup']:.1f}x, match={entry['results_match']})"
        )
    lines.append(
        f"  fuzz sweep ({sweep['cases']} cases x {sweep['engines_per_sweep']} "
        f"engines): tuple {sweep['tuple_seconds']:.3f}s "
        f"-> columnar {sweep['columnar_seconds']:.3f}s "
        f"({sweep['speedup']:.1f}x, match={sweep['results_match']})"
    )
    lines.append(f"  ok={report['ok']}")
    return "\n".join(lines)
