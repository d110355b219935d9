"""Exp-5 (Table 5) and Example 4.2: operator counts of CycleE vs CycleEX.

Table 5 reports, for six DTDs (Cross, the four BIOML subgraphs and GedML),
the minimum / maximum / average number of LFP operators and of all
operators in the relational-algebra programs obtained from CycleE and from
CycleEX, taken over every ordered pair of element types ``(A, B)`` with a
path from ``A`` to ``B``.

Example 4.2 contrasts the growth of the number of '/'-operators produced by
CycleE (Theta(2^n)) and CycleEX (Theta(n^2)) on the complete-DAG DTD family
``D1(n)`` of Fig. 3(c); :func:`operator_growth` reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.core.cycleex import CycleEXIndex
from repro.core.expath_to_sql import ExtendedToSQL
from repro.core.optimize import standard_options
from repro.core.tarjan import CycleE
from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.dtd import samples
from repro.expath.ast import ExtendedXPathQuery
from repro.expath.metrics import count_operators
from repro.experiments.harness import format_table
from repro.shredding.inlining import SimpleMapping

__all__ = ["TableFiveRow", "run", "operator_growth", "report"]

# The DTDs of Table 5, in the paper's row order.
TABLE5_DTDS: Sequence[Tuple[str, Callable[[], DTD]]] = (
    ("Cross (Fig. 11a)", samples.cross_dtd),
    ("BIOMLa (Fig. 15a)", samples.bioml_subgraph_a),
    ("BIOMLb (Fig. 15b)", samples.bioml_subgraph_b),
    ("BIOMLc (Fig. 15c)", samples.bioml_subgraph_c),
    ("BIOMLd (Fig. 15d)", samples.bioml_subgraph_d),
    ("GedML (Fig. 11c)", samples.gedml_dtd),
)


@dataclass
class TableFiveRow:
    """One row of Table 5: operator statistics for one DTD."""

    dtd_name: str
    nodes: int
    edges: int
    cycles: int
    cyclee_lfp: Tuple[int, int, float]
    cyclee_all: Tuple[int, int, float]
    cycleex_lfp: Tuple[int, int, float]
    cycleex_all: Tuple[int, int, float]


def _min_max_avg(values: List[int]) -> Tuple[int, int, float]:
    if not values:
        return (0, 0, 0.0)
    return (min(values), max(values), sum(values) / len(values))


def run(dtds: Sequence[Tuple[str, Callable[[], DTD]]] = TABLE5_DTDS) -> List[TableFiveRow]:
    """Compute the Table 5 statistics for every listed DTD."""
    rows: List[TableFiveRow] = []
    for name, factory in dtds:
        dtd = factory()
        graph = DTDGraph(dtd)
        cyclee = CycleE(graph)
        cycleex = CycleEXIndex(graph)
        mapping = SimpleMapping(dtd)
        lowering = ExtendedToSQL(mapping, standard_options())

        e_lfp: List[int] = []
        e_all: List[int] = []
        x_lfp: List[int] = []
        x_all: List[int] = []
        for source in graph.nodes:
            for target in graph.nodes:
                if target not in graph.reachable(source):
                    continue
                # CycleE: a single (possibly huge) regular expression.
                e_query = ExtendedXPathQuery([], cyclee.rec(source, target))
                e_profile = lowering.translate(e_query).operator_profile()
                e_lfp.append(e_profile.lfps)
                e_all.append(e_profile.total)
                # CycleEX: the pruned equation system.
                x_query = cycleex.rec(source, target)
                x_profile = lowering.translate(x_query).operator_profile()
                x_lfp.append(x_profile.lfps)
                x_all.append(x_profile.total)

        rows.append(
            TableFiveRow(
                dtd_name=name,
                nodes=len(graph),
                edges=len(graph.edges),
                cycles=graph.cycle_count(),
                cyclee_lfp=_min_max_avg(e_lfp),
                cyclee_all=_min_max_avg(e_all),
                cycleex_lfp=_min_max_avg(x_lfp),
                cycleex_all=_min_max_avg(x_all),
            )
        )
    return rows


def operator_growth(max_n: int = 10) -> List[Tuple[int, int, int]]:
    """Example 4.2: '/'-operator counts of CycleE vs CycleEX on D1(n).

    Returns tuples ``(n, cyclee_slashes, cycleex_slashes)`` for the
    complete-DAG DTDs ``D1(2) .. D1(max_n)`` with the query ``A1//An``; the
    CycleE column grows exponentially, the CycleEX column quadratically.
    """
    rows: List[Tuple[int, int, int]] = []
    for n in range(2, max_n + 1):
        dtd = samples.complete_dag_dtd(n)
        graph = DTDGraph(dtd)
        source, target = f"A1", f"A{n}"
        cyclee_expr = CycleE(graph).rec(source, target)
        cycleex_query = CycleEXIndex(graph).rec(source, target)
        rows.append(
            (
                n,
                count_operators(cyclee_expr).slashes,
                count_operators(cycleex_query).slashes,
            )
        )
    return rows


def _fmt(stat: Tuple[int, int, float]) -> str:
    return f"{stat[0]}/{stat[1]}/{stat[2]:.0f}"


def summarize(rows: List[TableFiveRow]) -> str:
    """Format the Table 5 rows (min/max/average)."""
    return format_table(
        ["DTD", "n", "m", "c", "E LFP", "E ALL", "X LFP", "X ALL"],
        [
            (
                row.dtd_name,
                row.nodes,
                row.edges,
                row.cycles,
                _fmt(row.cyclee_lfp),
                _fmt(row.cyclee_all),
                _fmt(row.cycleex_lfp),
                _fmt(row.cycleex_all),
            )
            for row in rows
        ],
    )


def report() -> str:
    """Table 5 and the Example 4.2 growth table as ``repro experiment exp5``
    prints them; nothing executes, so there is no backend or document."""
    return "\n".join(
        [
            "Exp-5 (Table 5): number of operations (min/max/average)",
            summarize(run()),
            "",
            "Example 4.2: '/'-operators of rec(A1, An) on the complete-DAG DTD D1(n)",
            format_table(["n", "CycleE slashes", "CycleEX slashes"], operator_growth()),
        ]
    )
