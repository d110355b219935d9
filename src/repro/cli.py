"""Command-line interface: translate queries, inspect DTDs, run workloads.

Installed as ``python -m repro`` (see ``repro.__main__``).  Subcommands:

``describe``
    Print the structural summary and productions of a named paper DTD or of
    a DTD file in the grammar syntax of :func:`repro.dtd.parser.parse_dtd`.

``translate``
    Translate an XPath query over a DTD into extended XPath, the relational
    program and SQL text (choose the dialect and the descendant strategy).

``answer``
    Generate (or load nothing — generation is always synthetic here), shred
    and answer a query, printing the matching node paths; handy for quickly
    checking what a translated query returns.  ``--backend sqlite`` runs
    the translated SQL for real on SQLite instead of the in-memory engine.
    Answering goes through the :class:`~repro.service.QueryService` layer:
    ``--repeat N`` answers the query N times against the warm store (and
    prints plan-cache statistics), ``--no-cache`` disables the plan cache.

``explain``
    Print the plan summary for a query (strategy, optimizer level,
    operator profile, the program; with ``--backend sqlite`` also SQLite's
    query plan of each statement); ``--timing`` additionally translates
    fresh under a trace and appends the per-phase span tree.

``stats``
    Run a small query workload through the service and dump the
    process-wide metrics registry (cache counters, histograms) as one
    JSON document on stdout — the machine-readable observability surface.
    ``--workers N`` routes the same workload through a
    :class:`~repro.service.ProcessQueryService` instead and dumps the
    metrics *merged* across the worker processes.

``serve``
    Boot the multiprocess serving tier behind the asyncio HTTP/JSON
    front end (:mod:`repro.service.http`): N worker processes, generated
    documents registered by recipe (so load generators can rebuild a
    local verification oracle from ``GET /meta``), serving until
    SIGINT/SIGTERM.

``loadtest``
    Drive fuzz-generated queries at a live ``repro serve`` over
    ``--concurrency`` keep-alive connections and verify every response
    node-for-node against a locally rebuilt serial service; prints one
    JSON report (rps, p50/p99, failures, mismatches) and exits non-zero
    on any failure or cross-engine mismatch.

The engine-configuration flags (``--strategy``, ``--backend``,
``--optimize-level``, ``--push-selections``) are declared once in the shared
:func:`_engine_flags` parent parser; each subcommand
composes the subset it needs, and handlers convert the parsed flags into
one :class:`~repro.api.EngineConfig` via :func:`engine_config_from_args`.
Most query-translating subcommands take ``--optimize-level {0,1,2}``
(program-optimizer level, default 2) and accept ``--strategy auto`` for
per-query descendant-strategy selection.

This module is CLI plumbing, not public API — scripts should import
:mod:`repro.api` instead.

``experiment``
    Run one of the paper's experiments (exp1..exp5) with ``--quick`` sweeps
    and an optional ``--backend`` axis.

``diff``
    Replay the fixed workloads — every query of
    :mod:`repro.workloads.queries` plus a non-recursive DTD, one fuzz case
    per distinct (DTD, query) pair — through the differential oracle: every
    engine of the default grid must return the XPath evaluator's answer.

``generate``
    Generate a DTD-conforming document with explicit shape knobs
    (``--seed``, ``--elements``, ``--x-l``, ``--x-r``) and print it as XML
    and/or a structural summary — the reproducibility companion of
    ``answer`` and ``experiment``.

``fuzz``
    Randomized differential fuzzing: generate seeded random (DTD, document,
    query) triples and answer each on the XPath evaluator, the in-memory
    engine under every descendant strategy and optimisation setting, and
    SQLite; disagreements are auto-shrunk to minimal repros and optionally
    saved as a replayable JSON corpus (``--save-failures``, ``--replay``).
    ``--mutations`` switches to mutation fuzzing: each case additionally
    applies a random schema-valid mutation script and every engine answers
    twice — once through the incremental delta path and once over a
    from-scratch reshred of the mutated tree — so an unsound delta shows up
    as a cross-arm disagreement.  ``--replay`` runs each saved case the
    way its format says: mutation cases on both arms, read-only cases once.

``mutate``
    Generate a document, register it with the query service, push a seeded
    random mutation script through the live-update path
    (:meth:`~repro.service.QueryService.update_document`) and print the
    delta summary plus a query's answers before and after — the CLI face
    of :mod:`repro.live`.

Examples
--------
::

    python -m repro describe dept
    python -m repro translate dept "dept//project" --dialect db2
    python -m repro translate cross "a/b//c/d" --strategy recursive-union
    python -m repro translate cross "a//d" --dialect sqlite
    python -m repro translate cross "a//d" --strategy auto --optimize-level 2
    python -m repro answer cross "a//d" --elements 2000 --seed 7
    python -m repro answer cross "a//d" --backend sqlite
    python -m repro answer cross "a//d" --repeat 50
    python -m repro answer cross "a//d" --trace
    python -m repro explain dept "dept//project" --timing
    python -m repro stats dept "dept//project" --repeat 10
    python -m repro stats cross "a//d" --workers 2 --repeat 10
    python -m repro serve cross --port 8080 --workers 2 --documents 3
    python -m repro loadtest --port 8080 --budget 1000 --concurrency 50
    python -m repro mutate dept "dept//project" --mutations 8
    python -m repro fuzz --mutations --budget 50
    python -m repro explain cross "a//d" --backend sqlite
    python -m repro translate cross "a//d" --strategy interval --dialect sqlite
    python -m repro experiment exp5
    python -m repro experiment exp3 --quick --backend sqlite
    python -m repro experiment exp1 --quick --seed 7 --elements 800
    python -m repro diff --quick
    python -m repro generate gedml --seed 3 --elements 500 --show stats
    python -m repro fuzz --seed 42 --budget 100
    python -m repro fuzz --seed 7 --budget 200 --save-failures failures/
    python -m repro fuzz --replay failures/
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import obs
from repro.api.config import EngineConfig, dialect_names, strategy_names
from repro.backends import backend_names
from repro.core.optimize import OPTIMIZE_LEVELS
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.dtd import samples
from repro.errors import ReproError
from repro.relational.sqlgen import SQLDialect
from repro.xmltree.generator import generate_document

__all__ = ["main", "build_parser", "engine_config_from_args"]


def _load_dtd(name_or_path: str) -> DTD:
    """Resolve a DTD argument: a paper DTD name or a path to a grammar file."""
    named = samples.paper_dtds()
    if name_or_path in named:
        return named[name_or_path]
    try:
        with open(name_or_path, "r", encoding="utf-8") as handle:
            return parse_dtd(handle.read(), name=name_or_path)
    except FileNotFoundError:
        known = ", ".join(sorted(named))
        raise SystemExit(
            f"unknown DTD {name_or_path!r}: pass one of [{known}] or a DTD file path"
        )


def _engine_flags(
    strategy: bool = False,
    backend: bool = False,
    optimize: bool = False,
    push_selections: bool = False,
) -> argparse.ArgumentParser:
    """The shared parent parser for the engine-configuration flags.

    Every subcommand that takes engine knobs composes this parent
    (``parents=[...]``) instead of re-declaring the flags, and its handler
    turns the parsed namespace into one
    :class:`~repro.api.EngineConfig` via :func:`engine_config_from_args` —
    a new knob is added here (and in the config) exactly once.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("engine configuration")
    if strategy:
        group.add_argument(
            "--strategy", choices=strategy_names(), default="cycleex",
            help="descendant-axis expansion (default: cycleex)",
        )
    if backend:
        group.add_argument(
            "--backend", choices=backend_names(), default="memory",
            help="execution backend (default: memory)",
        )
    if optimize:
        group.add_argument(
            "--optimize-level", type=int, choices=OPTIMIZE_LEVELS, default=None,
            help="program-optimizer level (default: 2)",
        )
    if push_selections:
        group.add_argument(
            "--push-selections", action="store_true",
            help="apply the Sect. 5.2 push-selection optimisation",
        )
    return parent


def engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Build an :class:`~repro.api.EngineConfig` from parsed engine flags.

    Absent flags (subcommands opt into subsets of :func:`_engine_flags`)
    fall back to the config defaults, so one conversion serves every
    subcommand.
    """
    return EngineConfig(
        strategy=getattr(args, "strategy", None) or "cycleex",
        optimize_level=getattr(args, "optimize_level", None),
        backend=getattr(args, "backend", None) or "memory",
        push_selections=bool(getattr(args, "push_selections", False)),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XPath-to-SQL translation over recursive DTDs (Fan et al., VLDB 2005)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    describe = commands.add_parser("describe", help="print a DTD and its graph summary")
    describe.add_argument("dtd", help="paper DTD name (e.g. dept, cross, gedml) or file path")

    translate = commands.add_parser(
        "translate",
        help="translate an XPath query to SQL",
        parents=[_engine_flags(strategy=True, optimize=True, push_selections=True)],
    )
    translate.add_argument("dtd", help="paper DTD name or file path")
    translate.add_argument("query", help="XPath query, e.g. 'dept//project'")
    translate.add_argument(
        "--dialect", choices=dialect_names(), default="generic",
        help="SQL dialect to render (default: generic)",
    )
    translate.add_argument(
        "--show", choices=["extended", "program", "sql", "all"], default="all",
        help="which artifact(s) to print",
    )

    answer = commands.add_parser(
        "answer",
        help="generate a document, shred it and answer a query",
        parents=[_engine_flags(strategy=True, backend=True, optimize=True)],
    )
    answer.add_argument("dtd", help="paper DTD name or file path")
    answer.add_argument("query", help="XPath query to answer")
    answer.add_argument("--elements", type=int, default=2000, help="approximate document size")
    answer.add_argument("--seed", type=int, default=0, help="generator seed")
    answer.add_argument("--x-l", type=int, default=10, help="maximum levels (X_L)")
    answer.add_argument("--x-r", type=int, default=4, help="maximum repetition (X_R)")
    answer.add_argument("--limit", type=int, default=20, help="print at most this many matches")
    answer.add_argument(
        "--repeat", type=int, default=1,
        help="answer the query this many times through the warm service (default: 1)",
    )
    answer.add_argument(
        "--no-cache", action="store_true",
        help="disable the translation-plan cache (every repeat re-translates)",
    )
    answer.add_argument(
        "--trace", action="store_true",
        help="record a span tree of the (cold) answer and print it after the matches",
    )
    answer.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="additionally write the trace as JSON to PATH (implies --trace)",
    )

    explain = commands.add_parser(
        "explain",
        help="print the plan summary for a query (optionally with phase timings)",
        parents=[_engine_flags(strategy=True, backend=True, optimize=True, push_selections=True)],
    )
    explain.add_argument("dtd", help="paper DTD name or file path")
    explain.add_argument("query", help="XPath query to explain")
    explain.add_argument(
        "--timing", action="store_true",
        help="translate fresh under a trace and append the per-phase span tree",
    )

    stats = commands.add_parser(
        "stats",
        help="run a query workload and dump the metrics registry as JSON",
        parents=[_engine_flags(strategy=True, backend=True, optimize=True)],
    )
    stats.add_argument("dtd", help="paper DTD name or file path")
    stats.add_argument("query", help="XPath query to answer")
    stats.add_argument("--elements", type=int, default=500, help="approximate document size")
    stats.add_argument("--seed", type=int, default=0, help="generator seed")
    stats.add_argument("--x-l", type=int, default=8, help="maximum levels (X_L)")
    stats.add_argument("--x-r", type=int, default=4, help="maximum repetition (X_R)")
    stats.add_argument(
        "--repeat", type=int, default=5,
        help="answer the query this many times before the dump (default: 5)",
    )
    stats.add_argument(
        "--workers", type=int, default=0,
        help="route the workload through a process pool of this size and "
        "dump metrics merged across workers (default: 0 = in-process)",
    )

    experiment = commands.add_parser(
        "experiment",
        help="run one of the paper's experiments",
        parents=[_engine_flags(backend=True, optimize=True)],
    )
    experiment.add_argument("name", choices=["exp1", "exp2", "exp3", "exp4", "exp5"])
    experiment.add_argument("--quick", action="store_true", help="reduced sweep")
    experiment.add_argument(
        "--seed", type=int, default=None,
        help="document-generator seed for exp1-exp4 (default: each experiment's fixed seed)",
    )
    experiment.add_argument(
        "--elements", type=int, default=None,
        help="document element budget for exp1-exp4 (default: each experiment's sweep)",
    )

    diff = commands.add_parser(
        "diff", help="replay the workload queries on every engine against the evaluator"
    )
    diff.add_argument("--quick", action="store_true", help="smaller documents")

    generate = commands.add_parser(
        "generate", help="generate a DTD-conforming document with explicit shape knobs"
    )
    generate.add_argument("dtd", help="paper DTD name or file path")
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument("--elements", type=int, default=500, help="element budget")
    generate.add_argument("--x-l", type=int, default=8, help="maximum levels (X_L)")
    generate.add_argument("--x-r", type=int, default=4, help="maximum repetition (X_R)")
    generate.add_argument(
        "--distinct-values", type=int, default=100,
        help="distinct text values per text element type",
    )
    generate.add_argument(
        "--show", choices=["xml", "stats", "both"], default="both",
        help="print the document, its structural summary, or both",
    )
    generate.add_argument("--out", default=None, help="write the XML to this file instead of stdout")

    fuzz = commands.add_parser(
        "fuzz",
        help="randomized cross-engine differential fuzzing",
        parents=[_engine_flags(optimize=True)],
    )
    fuzz.add_argument("--seed", type=int, default=0, help="master seed of the sweep")
    fuzz.add_argument("--budget", type=int, default=100, help="number of generated cases")
    fuzz.add_argument("--min-types", type=int, default=3, help="minimum DTD element types")
    fuzz.add_argument("--max-types", type=int, default=7, help="maximum DTD element types")
    fuzz.add_argument(
        "--max-cycle-edges", type=int, default=3,
        help="maximum injected DTD cycles (0 = non-recursive only)",
    )
    fuzz.add_argument(
        "--queries-per-dtd", type=int, default=4, help="cases generated per random DTD"
    )
    fuzz.add_argument("--elements", type=int, default=150, help="document element budget")
    fuzz.add_argument("--x-l", type=int, default=8, help="maximum document levels (X_L)")
    fuzz.add_argument("--x-r", type=int, default=3, help="maximum repetition (X_R)")
    fuzz.add_argument(
        "--strategies", default=None,
        help=f"comma-separated descendant strategies (default: all of {','.join(strategy_names())})",
    )
    fuzz.add_argument(
        "--backends", default=None,
        help=f"comma-separated backends (default: {','.join(backend_names())})",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="report failures without auto-shrinking"
    )
    fuzz.add_argument(
        "--save-failures", metavar="DIR", default=None,
        help="write failing cases (original + shrunk) as JSON into DIR",
    )
    fuzz.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay a saved corpus (a .json case file or a directory) instead of fuzzing",
    )
    fuzz.add_argument(
        "--mutations", action="store_true",
        help="mutation fuzzing: apply a random valid mutation script per case and "
             "check the incremental delta path against a from-scratch reshred",
    )
    fuzz.add_argument(
        "--mutations-per-case", type=int, default=4,
        help="mutation script length per case (with --mutations; default: 4)",
    )

    mutate = commands.add_parser(
        "mutate",
        help="apply a random mutation script through the live-update path",
        parents=[_engine_flags(strategy=True, backend=True, optimize=True)],
    )
    mutate.add_argument("dtd", help="paper DTD name or file path")
    mutate.add_argument("query", help="XPath query answered before and after the script")
    mutate.add_argument("--elements", type=int, default=500, help="approximate document size")
    mutate.add_argument("--seed", type=int, default=0, help="document generator seed")
    mutate.add_argument("--x-l", type=int, default=10, help="maximum levels (X_L)")
    mutate.add_argument("--x-r", type=int, default=4, help="maximum repetition (X_R)")
    mutate.add_argument("--mutations", type=int, default=8, help="mutation script length")
    mutate.add_argument(
        "--mutation-seed", type=int, default=0, help="mutation generator seed"
    )
    mutate.add_argument(
        "--limit", type=int, default=10, help="print at most this many matches per side"
    )

    serve = commands.add_parser(
        "serve",
        help="serve a process pool over HTTP/JSON until SIGINT/SIGTERM",
        parents=[_engine_flags(strategy=True, backend=True, optimize=True)],
    )
    serve.add_argument("dtd", help="paper DTD name or file path")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (default: 0 = min(4, cpu_count))",
    )
    serve.add_argument(
        "--replicas", type=int, default=0,
        help="store replicas per document (default: 0 = every worker)",
    )
    serve.add_argument(
        "--start-method", choices=["fork", "spawn", "forkserver"], default=None,
        help="multiprocessing start method (default: fork where available)",
    )
    serve.add_argument(
        "--documents", type=int, default=1,
        help="generated documents to register as doc0..docN-1 (default: 1)",
    )
    serve.add_argument("--elements", type=int, default=500, help="element budget per document")
    serve.add_argument("--seed", type=int, default=0, help="generator seed of doc0")
    serve.add_argument("--x-l", type=int, default=8, help="maximum levels (X_L)")
    serve.add_argument("--x-r", type=int, default=3, help="maximum repetition (X_R)")

    loadtest = commands.add_parser(
        "loadtest",
        help="drive verified fuzz queries at a live 'repro serve'",
    )
    loadtest.add_argument("--host", default="127.0.0.1", help="server address")
    loadtest.add_argument("--port", type=int, default=8080, help="server port")
    loadtest.add_argument(
        "--budget", type=int, default=1000, help="total requests to send (default: 1000)"
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=50,
        help="concurrent keep-alive sessions (default: 50)",
    )
    loadtest.add_argument("--seed", type=int, default=0, help="query-generator seed")
    loadtest.add_argument(
        "--query-pool", type=int, default=40,
        help="distinct fuzz queries to draw from (default: 40)",
    )
    loadtest.add_argument(
        "--no-verify", action="store_true",
        help="skip the local-oracle node-for-node verification",
    )
    loadtest.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout in seconds"
    )
    loadtest.add_argument(
        "--out", metavar="PATH", default=None,
        help="additionally write the JSON report to PATH",
    )

    return parser


def _cmd_describe(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd)
    print(samples.describe(dtd))
    print()
    print(dtd.to_text())
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    dtd = _load_dtd(args.dtd)
    config = engine_config_from_args(args)
    translator = XPathToSQLTranslator(dtd, config=config)
    result = translator.translate(args.query)
    if args.strategy == "auto" and result.strategy is not None:
        print(f"-- strategy: auto -> {result.strategy.value} --")
        print()
    if args.show in ("extended", "all"):
        print("-- extended XPath --")
        print(result.extended)
        print()
    if args.show in ("program", "all"):
        print("-- relational program --")
        print(result.program)
        print()
    if args.show in ("sql", "all"):
        print(f"-- SQL ({args.dialect}) --")
        print(result.sql(SQLDialect(args.dialect)))
    profile = result.operator_profile()
    print()
    print(
        f"-- profile: {profile.joins} joins, {profile.unions} unions, "
        f"{profile.lfps} LFPs, {profile.recursive_unions} SQL'99 recursions"
    )
    return 0


def _cmd_answer(args: argparse.Namespace) -> int:
    from repro.service import QueryService

    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    dtd = _load_dtd(args.dtd)
    document = generate_document(
        dtd, x_l=args.x_l, x_r=args.x_r, seed=args.seed, max_elements=args.elements
    )
    config = engine_config_from_args(args)
    if args.no_cache:
        config = config.with_(plan_cache_size=0, result_cache_size=0)
    tracing = args.trace or args.trace_out is not None
    trace_root = None
    with QueryService(dtd, config=config) as service:
        store = service.register_document("doc", document)
        if tracing:
            obs.start_trace("answer", query=args.query, dtd=dtd.name)
            try:
                executed = service.execute(args.query)
            finally:
                trace_root = obs.end_trace()
        else:
            executed = service.execute(args.query)
        node_ids = executed.node_ids()
        if args.repeat > 1:
            with obs.Timer() as warm_timer:
                for _ in range(args.repeat - 1):
                    service.execute(args.query)
            elapsed = warm_timer.seconds
        plans = service.cache_info()
        results = service.result_cache_info()
    print(
        f"document: {document.size()} elements; matches: {len(node_ids)} "
        f"(backend: {executed.backend}, {executed.stats['elapsed_seconds']:.3f}s)"
    )
    if args.repeat > 1:
        per_query = 1000.0 * elapsed / (args.repeat - 1)
        cache_note = (
            f"cache: {results.hits} result hits, "
            f"{plans.hits} plan hits / {plans.misses} misses"
            if not args.no_cache
            else "cache: disabled"
        )
        print(
            f"  repeated {args.repeat - 1} more time(s) warm: {elapsed:.3f}s total, "
            f"{per_query:.2f}ms/query ({cache_note})"
        )
    for node in store.shredded.nodes_for_ids(node_ids[: args.limit]):
        path = "/".join(node.path_from_root())
        value = f" = {node.value!r}" if node.value is not None else ""
        print(f"  node {node.node_id}: {path}{value}")
    if len(node_ids) > args.limit:
        print(f"  ... and {len(node_ids) - args.limit} more")
    if trace_root is not None:
        if args.trace:
            print("-- trace (cold answer) --")
            print(obs.render_span_tree(trace_root))
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(trace_root.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote trace to {args.trace_out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.api import Engine

    dtd = _load_dtd(args.dtd)
    engine = Engine(dtd, engine_config_from_args(args))
    print(engine.explain(args.query, timing=args.timing))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a small workload and dump the metrics registry.

    Stdout is exactly one JSON document (CI parses it), carrying the
    registry snapshot plus the workload parameters it was gathered under.
    """
    from repro.service import QueryService

    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0")
    dtd = _load_dtd(args.dtd)
    document = generate_document(
        dtd, x_l=args.x_l, x_r=args.x_r, seed=args.seed, max_elements=args.elements
    )
    config = engine_config_from_args(args)
    if args.workers:
        # Pool mode: the same workload through worker processes; the dump is
        # the metrics registry merged across every worker (plus the parent).
        from repro.service import ProcessQueryService

        with ProcessQueryService(
            dtd, config=config, workers=args.workers, replicas=args.workers,
            warmup=[args.query],
        ) as pool:
            pool.register_document("doc", document)
            for _ in range(args.repeat):
                pool.answer(args.query, "doc", include_nodes=False)
            pool_stats = pool.stats()
        payload = {
            "workload": {
                "dtd": dtd.name,
                "query": args.query,
                "elements": document.size(),
                "repeat": args.repeat,
                "backend": config.backend,
                "workers": pool_stats["workers"],
            },
            "pool": {
                name: pool_stats[name]
                for name in ("workers", "replicas", "start_method", "documents")
            },
            "metrics": pool_stats["metrics"],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    with QueryService(dtd, config=config) as service:
        service.register_document("doc", document)
        for _ in range(args.repeat):
            service.execute(args.query)
        plans = service.cache_info()
        results = service.result_cache_info()
    payload = {
        "workload": {
            "dtd": dtd.name,
            "query": args.query,
            "elements": document.size(),
            "repeat": args.repeat,
            "backend": config.backend,
        },
        "plan_cache": {
            "hits": plans.hits,
            "misses": plans.misses,
            "evictions": plans.evictions,
            "size": plans.size,
            "capacity": plans.capacity,
        },
        "result_cache": {
            "hits": results.hits,
            "misses": results.misses,
            "evictions": results.evictions,
            "size": results.size,
            "capacity": results.capacity,
        },
        "metrics": obs.registry().snapshot(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import exp1, exp2, exp3, exp4, exp5

    modules = {"exp1": exp1, "exp2": exp2, "exp3": exp3, "exp4": exp4, "exp5": exp5}
    module = modules[args.name]
    argv: List[str] = ["--quick"] if args.quick else []
    execution_flags = []
    if args.backend != "memory":
        execution_flags.append(f"--backend={args.backend}")
    if args.seed is not None:
        execution_flags.append(f"--seed={args.seed}")
    if args.elements is not None:
        execution_flags.append(f"--elements={args.elements}")
    if args.optimize_level is not None:
        execution_flags.append(f"--optimize-level={args.optimize_level}")
    if execution_flags:
        if args.name == "exp5":
            # Exp-5 reports static operator counts of the raw lowering;
            # nothing executes and no document is generated.
            print(
                "note: exp5 is translation-only, "
                "--backend/--seed/--elements/--optimize-level have no effect"
            )
        else:
            argv.extend(execution_flags)
    return module.main(argv)


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.fuzz.oracle import default_engines
    from repro.workloads.cases import workload_cases

    cases = workload_cases(max_elements=200 if args.quick else 400)
    return _replay(cases, default_engines(), "workload")


def _replay(source: object, engines: List[EngineConfig], noun: str) -> int:
    """Replay cases (a corpus path or the cases themselves, see
    :func:`~repro.fuzz.harness.replay_corpus`) through the oracle, print
    each verdict and an N/M summary; exit status 1 when any case disagrees."""
    from repro.fuzz import replay_corpus

    outcomes = replay_corpus(source, engines)
    for outcome in outcomes:
        print(outcome.describe())
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    print(
        f"{len(outcomes) - failed}/{len(outcomes)} {noun} case(s) agree "
        f"on {len(engines)} engine(s)"
    )
    return 1 if failed else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.xmltree.validator import validate

    dtd = _load_dtd(args.dtd)
    document = generate_document(
        dtd,
        x_l=args.x_l,
        x_r=args.x_r,
        seed=args.seed,
        max_elements=args.elements,
        distinct_values=args.distinct_values,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document.to_xml())
    elif args.show in ("xml", "both"):
        print(document.to_xml())
    if args.show in ("stats", "both"):
        labels = ", ".join(
            f"{label}={count}" for label, count in sorted(document.labels().items())
        )
        problems = validate(document, dtd)
        print(
            f"document: {document.size()} elements, height {document.height()}; "
            f"dtd: {dtd.name}; seed={args.seed} x_l={args.x_l} x_r={args.x_r} "
            f"elements<={args.elements}"
        )
        print(f"labels: {labels}")
        print(f"conforms: {not problems}")
        for problem in problems[:5]:
            print(f"  violation: {problem}")
        if problems:
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the process pool + HTTP front end and serve until a signal.

    Documents are registered by *recipe* (``register_generated``) so that
    ``GET /meta`` exposes how to rebuild them — that is what lets
    ``repro loadtest`` verify responses against a local oracle.
    """
    import os

    from repro.fuzz.cases import DocumentSpec
    from repro.service import ProcessQueryService
    from repro.service.http import QueryHTTPServer

    if args.documents < 1:
        raise SystemExit("--documents must be >= 1")
    if args.workers < 0 or args.replicas < 0:
        raise SystemExit("--workers and --replicas must be >= 0")
    dtd = _load_dtd(args.dtd)
    config = engine_config_from_args(args)
    workers = args.workers if args.workers > 0 else max(1, min(4, os.cpu_count() or 1))
    replicas = args.replicas if args.replicas > 0 else workers
    pool = ProcessQueryService(
        dtd,
        config=config,
        workers=workers,
        replicas=replicas,
        start_method=args.start_method,
        warmup=[dtd.root],
    )
    try:
        for index in range(args.documents):
            pool.register_generated(
                f"doc{index}",
                DocumentSpec(
                    x_l=args.x_l,
                    x_r=args.x_r,
                    max_elements=args.elements,
                    seed=args.seed + index,
                ),
            )
        server = QueryHTTPServer(pool, host=args.host, port=args.port)
        server.run(
            ready=lambda url: print(
                f"repro serve ready: {url} "
                f"(dtd={dtd.name} workers={workers} replicas={replicas} "
                f"documents={args.documents} backend={config.backend})",
                flush=True,
            )
        )
    finally:
        pool.close()
    print("repro serve stopped", flush=True)
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.service.http import run_loadtest

    if args.budget < 1:
        raise SystemExit("--budget must be >= 1")
    if args.concurrency < 1:
        raise SystemExit("--concurrency must be >= 1")
    if args.query_pool < 1:
        raise SystemExit("--query-pool must be >= 1")
    try:
        report = run_loadtest(
            args.host,
            args.port,
            budget=args.budget,
            concurrency=args.concurrency,
            seed=args.seed,
            query_pool=args.query_pool,
            verify=not args.no_verify,
            timeout=args.timeout,
        )
    except (OSError, RuntimeError) as exc:
        raise SystemExit(
            f"loadtest against {args.host}:{args.port} failed: {exc}"
        ) from None
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report["ok"] else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import DocumentSpec, FuzzConfig, default_engines, run_fuzz

    strategies = None
    if args.strategies:
        from repro.core.xpath_to_expath import DescendantStrategy

        strategies = []
        for name in args.strategies.split(","):
            if not name:
                continue
            try:
                strategies.append(DescendantStrategy(name))
            except ValueError:
                raise SystemExit(
                    f"unknown strategy {name!r} (known: {', '.join(strategy_names())})"
                ) from None
    backends = None
    if args.backends:
        known = set(backend_names())
        backends = [name for name in args.backends.split(",") if name]
        unknown = [name for name in backends if name not in known]
        if unknown:
            raise SystemExit(f"unknown backend(s) {unknown} (known: {', '.join(sorted(known))})")
    engines = default_engines(
        backends=backends, strategies=strategies, optimize_level=args.optimize_level
    )

    if args.replay:
        try:
            return _replay(args.replay, engines, "corpus")
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"cannot replay {args.replay!r}: {exc}") from None

    if args.budget < 0:
        raise SystemExit("--budget must be >= 0")
    if args.queries_per_dtd < 1:
        raise SystemExit("--queries-per-dtd must be >= 1")
    if args.min_types < 2:
        raise SystemExit("--min-types must be >= 2")
    if args.max_types < args.min_types:
        raise SystemExit("--max-types must be >= --min-types")
    if args.max_cycle_edges < 0:
        raise SystemExit("--max-cycle-edges must be >= 0")

    if args.mutations and args.mutations_per_case < 1:
        raise SystemExit("--mutations-per-case must be >= 1")

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        queries_per_dtd=args.queries_per_dtd,
        min_types=args.min_types,
        max_types=args.max_types,
        max_cycle_edges=args.max_cycle_edges,
        document=DocumentSpec(x_l=args.x_l, x_r=args.x_r, max_elements=args.elements),
        shrink=not args.no_shrink,
        corpus_dir=args.save_failures,
        mutations_per_case=args.mutations_per_case if args.mutations else 0,
    )
    report = run_fuzz(config, engines)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_mutate(args: argparse.Namespace) -> int:
    import random

    from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
    from repro.service import QueryService

    if args.mutations < 1:
        raise SystemExit("--mutations must be >= 1")
    dtd = _load_dtd(args.dtd)
    document = generate_document(
        dtd, x_l=args.x_l, x_r=args.x_r, seed=args.seed, max_elements=args.elements
    )
    generator = RandomMutationGenerator(
        dtd,
        random.Random(args.mutation_seed),
        MutationGenConfig(mutations=args.mutations),
    )
    script = generator.script(document)
    if not script:
        raise SystemExit(
            "could not generate a valid mutation script for this document; "
            "try another --mutation-seed or a larger --elements budget"
        )
    config = engine_config_from_args(args)
    with QueryService(dtd, config=config) as service:
        store = service.register_document("doc", document)
        before = [node.node_id for node in service.answer(args.query, document_id="doc")]
        with obs.Timer() as timer:
            summary = service.update_document(script, "doc")
        after_nodes = service.answer(args.query, document_id="doc")
        matches = list(after_nodes)
    print(
        f"document: {store.shredded.tree.size()} elements after "
        f"{summary['applied']} mutation(s) in {timer.seconds * 1000:.2f}ms"
    )
    for mutation in script:
        if mutation.op == "insert":
            where = "append" if mutation.index is None else f"index {mutation.index}"
            detail = f"<{mutation.subtree[0]}> under node {mutation.parent_id} ({where})"
        elif mutation.op == "delete":
            detail = f"subtree at node {mutation.node_id}"
        else:
            detail = f"node {mutation.node_id} -> {mutation.value!r}"
        print(f"  {mutation.op}: {detail}")
    print(
        f"delta: {summary['rows_deleted']} row(s) deleted, "
        f"{summary['rows_inserted']} row(s) inserted across "
        f"{summary['relations']} relation(s)"
    )
    after = [node.node_id for node in matches]
    print(
        f"query {args.query!r}: {len(before)} match(es) before, "
        f"{len(after)} after"
    )
    for node in matches[: args.limit]:
        path = "/".join(node.path_from_root())
        value = f" = {node.value!r}" if node.value is not None else ""
        marker = "+" if node.node_id not in set(before) else " "
        print(f"  {marker} node {node.node_id}: {path}{value}")
    if len(matches) > args.limit:
        print(f"  ... and {len(matches) - args.limit} more")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (malformed DTDs, unparseable queries, translation
    failures) exit non-zero with a one-line message instead of a traceback;
    genuine bugs still surface as tracebacks.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "describe": _cmd_describe,
        "translate": _cmd_translate,
        "answer": _cmd_answer,
        "explain": _cmd_explain,
        "stats": _cmd_stats,
        "experiment": _cmd_experiment,
        "diff": _cmd_diff,
        "generate": _cmd_generate,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "fuzz": _cmd_fuzz,
        "mutate": _cmd_mutate,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via repro.__main__
    sys.exit(main())
