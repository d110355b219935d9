"""Shared infrastructure for the experiment modules.

An :class:`Approach` names one translator configuration (the paper's "R",
"E" and "X" curves); :func:`measure_query` runs one query under one
approach over a shredded document and records translation time, execution
time and result size.  Measurements carry a *backend* axis: the same
translated program can be executed on any registered execution backend
(``memory`` — the in-memory engine — or ``sqlite``), so exp1–exp5 can
compare engines as well as translation strategies.  The experiment modules
assemble these measurements into the rows/series of the paper's figures;
:func:`format_table` renders them as plain-text tables for the console.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro import obs
from repro.api.config import EngineConfig
from repro.backends import Backend, backend_names, create_backend
from repro.core.expath_to_sql import TranslationOptions
from repro.core.optimize import push_selection_options, standard_options
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd.model import DTD
from repro.shredding.shredder import ShreddedDocument

__all__ = [
    "Approach",
    "MeasuredQuery",
    "default_approaches",
    "measure_query",
    "format_table",
    "parse_backend_arg",
    "parse_int_arg",
]


@dataclass(frozen=True)
class Approach:
    """One translator configuration measured by the experiments.

    The paper's three curves are:

    * ``R`` — SQLGen-R: descendants via the SQL'99 multi-relation recursive
      union (black-box evaluation, no selection pushing);
    * ``E`` — the translation framework with CycleE (Tarjan's regular
      expressions) expanding the descendant axis;
    * ``X`` — the framework with CycleEX, i.e. the paper's approach.

    ``E`` and ``X`` both use the optimised lowering of Sect. 5.2 (prefix
    joins and selections pushed into the LFP operator); they differ only in
    how ``//`` is expanded, which is exactly the comparison the paper makes.

    The knobs resolve through :class:`~repro.api.EngineConfig`
    (:meth:`engine_config`), so an approach is just a *named* engine
    configuration; :meth:`from_config` builds one straight from a config.
    """

    name: str
    strategy: DescendantStrategy
    options: TranslationOptions
    optimize_level: Optional[int] = None

    @classmethod
    def from_config(cls, name: str, config: EngineConfig) -> "Approach":
        """Name an engine configuration as an experiment approach."""
        return cls(
            name,
            config.strategy,
            config.translation_options(),
            config.optimize_level,
        )

    def engine_config(self) -> EngineConfig:
        """This approach's knobs as one :class:`EngineConfig`."""
        return EngineConfig(
            strategy=self.strategy,
            optimize_level=self.optimize_level,
            use_small_seed=self.options.use_small_seed,
            push_selections=self.options.push_selections,
        )

    def translator(self, dtd: DTD) -> XPathToSQLTranslator:
        """Build a translator for this approach over ``dtd``."""
        return XPathToSQLTranslator(dtd, config=self.engine_config())


def default_approaches(
    include_cyclee: bool = True, optimize_level: Optional[int] = None
) -> List[Approach]:
    """The approaches compared in Exp-1/3/4: R, E and X (in that order).

    ``optimize_level`` pins the program-optimizer level of every approach
    (``None`` = the pipeline default), giving the experiments an optimizer
    axis alongside backends.
    """
    approaches = [
        Approach(
            "R", DescendantStrategy.RECURSIVE_UNION, standard_options(), optimize_level
        ),
    ]
    if include_cyclee:
        approaches.append(
            Approach("E", DescendantStrategy.CYCLEE, push_selection_options(), optimize_level)
        )
    approaches.append(
        Approach("X", DescendantStrategy.CYCLEEX, push_selection_options(), optimize_level)
    )
    return approaches


@dataclass
class MeasuredQuery:
    """One (approach, query, dataset, backend) measurement.

    ``result_rows`` is the answer size: the number of matched nodes.
    """

    approach: str
    query: str
    dataset: str
    translation_seconds: float
    execution_seconds: float
    result_rows: int
    document_elements: int
    backend: str = "memory"

    @property
    def total_seconds(self) -> float:
        """Translation plus execution time."""
        return self.translation_seconds + self.execution_seconds


def measure_query(
    approach: Approach,
    dtd: DTD,
    shredded: ShreddedDocument,
    query: str,
    dataset_label: str = "",
    translator: Optional[XPathToSQLTranslator] = None,
    backend: str = "memory",
    engine: Optional[Backend] = None,
) -> MeasuredQuery:
    """Translate and execute ``query`` under ``approach``; return the measurement.

    A pre-built translator may be passed so repeated measurements over the
    same DTD do not pay the CycleEX/CycleE table construction each time
    (the paper likewise reports query evaluation time, not translation-table
    setup).  ``backend`` picks the execution engine; for the same reason a
    pre-built ``engine`` over ``shredded.database`` may be passed so a
    sqlite backend loads the document once per dataset, not once per
    measurement (the caller keeps ownership and closes it).  The reported
    execution time covers query execution only, never the document load
    (mirroring how the paper reports warm-database query times).
    """
    translator = translator or approach.translator(dtd)
    with obs.Timer() as translation_timer:
        result = translator.translate(query)
    translation_seconds = translation_timer.seconds

    owned = engine is None
    if engine is None:
        engine = create_backend(backend, shredded.database)
    else:
        backend = engine.name
    try:
        executed = engine.execute(result.program)
        # Use the backend's own timing: it covers exactly the query work,
        # excluding backend bookkeeping (e.g. the sqlite backend's
        # temp-table teardown).
        execution_seconds = executed.stats["elapsed_seconds"]
    finally:
        if owned:
            engine.close()

    return MeasuredQuery(
        approach=approach.name,
        query=query,
        dataset=dataset_label,
        translation_seconds=translation_seconds,
        execution_seconds=execution_seconds,
        result_rows=len(executed.node_ids()),
        document_elements=shredded.tree.size(),
        backend=backend,
    )


def parse_backend_arg(argv: List[str], default: str = "memory") -> str:
    """Extract ``--backend NAME`` / ``--backend=NAME`` from an argv list.

    The experiment ``main``s parse flags by hand (they predate argparse
    use); this helper gives them a uniform backend axis.  The recognised
    tokens are *removed* from ``argv`` in place.
    """
    backend = default
    remaining: List[str] = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if token == "--backend":
            if index + 1 >= len(argv):
                raise SystemExit("--backend requires a value")
            backend = argv[index + 1]
            index += 2
            continue
        if token.startswith("--backend="):
            backend = token.split("=", 1)[1]
            index += 1
            continue
        remaining.append(token)
        index += 1
    argv[:] = remaining
    if backend not in backend_names():
        known = ", ".join(backend_names())
        raise SystemExit(f"unknown backend {backend!r} (known: {known})")
    return backend


def parse_int_arg(argv: List[str], flag: str, default: Optional[int] = None) -> Optional[int]:
    """Extract ``<flag> N`` / ``<flag>=N`` from an argv list (like the backend axis).

    Used for the reproducibility knobs (``--seed``, ``--elements``) the CLI
    forwards to the experiment mains.  Recognised tokens are removed from
    ``argv`` in place; an absent flag yields ``default``.
    """
    value = default
    remaining: List[str] = []
    index = 0
    while index < len(argv):
        token = argv[index]
        raw: Optional[str] = None
        if token == flag:
            if index + 1 >= len(argv):
                raise SystemExit(f"{flag} requires a value")
            raw = argv[index + 1]
            index += 2
        elif token.startswith(flag + "="):
            raw = token.split("=", 1)[1]
            index += 1
        else:
            remaining.append(token)
            index += 1
            continue
        try:
            value = int(raw)
        except ValueError:
            raise SystemExit(f"{flag} expects an integer, got {raw!r}") from None
    argv[:] = remaining
    return value


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as a fixed-width plain-text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
