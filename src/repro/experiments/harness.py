"""Shared infrastructure for the experiment modules.

An :class:`Approach` names one engine configuration (the paper's "R", "E"
and "X" curves); :func:`measure_query` runs one query under one approach
over a shredded document and records translation time, execution time and
result size, and :func:`measure_cases` measures many on one engine.
Measurements carry a *backend* axis: the same translated program can be
executed on any registered execution backend (``memory`` — the in-memory
engine — or ``sqlite``), so exp1–exp4 compare engines as well as
translation strategies.  The experiment modules assemble these
measurements into the rows/series of the paper's figures;
:func:`format_table` renders them as plain-text tables for the console.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.config import EngineConfig
from repro.backends import Backend, create_backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd.model import DTD
from repro.shredding.shredder import ShreddedDocument

__all__ = [
    "Approach",
    "MeasuredQuery",
    "default_approaches",
    "measure_query",
    "measure_cases",
    "format_table",
]


@dataclass(frozen=True)
class Approach:
    """One named engine configuration measured by the experiments.

    The paper's three curves are:

    * ``R`` — SQLGen-R: descendants via the SQL'99 multi-relation recursive
      union (black-box evaluation, no selection pushing);
    * ``E`` — the translation framework with CycleE (Tarjan's regular
      expressions) expanding the descendant axis;
    * ``X`` — the framework with CycleEX, i.e. the paper's approach.

    ``E`` and ``X`` both use the optimised lowering of Sect. 5.2 (prefix
    joins and selections pushed into the LFP operator); they differ only in
    how ``//`` is expanded, which is exactly the comparison the paper makes.
    """

    name: str
    config: EngineConfig

    def translator(self, dtd: DTD) -> XPathToSQLTranslator:
        """Build a translator for this approach over ``dtd``."""
        return XPathToSQLTranslator(dtd, config=self.config)


def default_approaches(
    include_cyclee: bool = True, optimize_level: Optional[int] = None
) -> List[Approach]:
    """The approaches compared in Exp-1/3/4: R, E and X (in that order).

    ``optimize_level`` pins the program-optimizer level of every approach
    (``None`` = the pipeline default), giving the experiments an optimizer
    axis alongside backends.
    """
    level = optimize_level
    approaches = [Approach("R", EngineConfig(strategy="recursive-union", optimize_level=level))]
    if include_cyclee:
        approaches.append(
            Approach("E", EngineConfig(strategy="cyclee", push_selections=True, optimize_level=level))
        )
    approaches.append(
        Approach("X", EngineConfig(strategy="cycleex", push_selections=True, optimize_level=level))
    )
    return approaches


@dataclass
class MeasuredQuery:
    """One (approach, query, dataset, backend) measurement.

    ``result_rows`` is the answer size: the number of matched nodes, and
    ``stats`` the backend result's execution counters (e.g.
    ``temporaries_evaluated``).
    """

    approach: str
    query: str
    dataset: str
    translation_seconds: float
    execution_seconds: float
    result_rows: int
    document_elements: int
    backend: str = "memory"
    stats: Dict[str, float] = field(default_factory=dict)

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

    The program is translated fresh, never taken from the translator's plan
    cache, and dies with the measurement.  An engine keeps a temporary in
    its shared table only while some live program uses it, so a later
    measurement on the same engine never reads what this one computed.
    Each timed step starts right after a full garbage collection, so it
    does not pay for collecting what earlier measurements allocated.
    """
    translator = translator or approach.translator(dtd)
    gc.collect()
    with obs.Timer() as translation_timer:
        result = translator.translate_uncached(query)
    translation_seconds = translation_timer.seconds

    owned = engine is None
    if engine is None:
        engine = create_backend(backend, shredded.database)
    else:
        backend = engine.name
    try:
        gc.collect()
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
        stats=dict(executed.stats),
    )


def measure_cases(
    shredded: ShreddedDocument,
    cases: Sequence[Tuple[Approach, XPathToSQLTranslator, str, str]],
    backend: str = "memory",
) -> List[MeasuredQuery]:
    """Measure each ``(approach, translator, query, dataset_label)`` case,
    in order, on one engine over ``shredded``.

    The engine loads the document once and first runs every case once,
    untimed, so the first measurement pays no one-time cost the last one
    skips (the memory engine encodes a base relation on its first read).
    Each program, in that pass and in the measurements, is translated fresh
    and dies before the next case runs (see :func:`measure_query`), so what
    a case evaluates does not depend on the order of the cases.
    """
    engine = create_backend(backend, shredded.database)
    try:
        for _, translator, query, _ in cases:
            engine.execute(translator.translate_uncached(query).program)
        return [
            measure_query(
                approach,
                translator.dtd,
                shredded,
                query,
                dataset_label=label,
                translator=translator,
                engine=engine,
            )
            for approach, translator, query, label in cases
        ]
    finally:
        engine.close()


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
