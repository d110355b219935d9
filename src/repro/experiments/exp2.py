"""Exp-2 (Fig. 13): pushing selections into the LFP operator.

The paper evaluates two selective queries over the cross-cycle DTD::

    Qe = a[id = Ai]/b//c/d          (selection on the start of the path)
    Qf = a/b//c/d[id = Di]          (selection on the end of the path)

and, for each, two SQL programs — one with the selection pushed into the
LFP operator (Sect. 5.2) and one without — while varying the number of
elements selected by the qualifier from 100 to 50,000.

Identifiers are modelled with text values: the generator assigns each
``b``/``d`` element a value ``label-k`` with ``k < distinct_values``, so a
``text() = "b-0"`` qualifier selects roughly ``count(b) / distinct_values``
elements; the sweep varies ``distinct_values`` to hit the requested
selected-set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import EngineConfig
from repro.dtd.samples import cross_dtd
from repro.experiments.harness import Approach, format_table, measure_cases
from repro.shredding.shredder import shred_document
from repro.workloads.datasets import DatasetSpec, scaled_elements

__all__ = ["run", "report", "PAPER_SELECTED_SIZES", "QUICK_SWEEP"]

PAPER_ELEMENTS = 120_000
PAPER_SELECTED_SIZES = (100, 1_000, 10_000, 50_000)
FIXED_XL = 12
FIXED_XR = 8
SEED = 23
# The reduced sweep of ``--quick``: two selected-set sizes on a small document.
QUICK_SWEEP = {"max_elements": 1500, "selected_sizes": (100, 1000)}

# Exp-2 queries: the qualifier value selects a subset of b (Qe) or d (Qf).
QUERY_TEMPLATES: Dict[str, Tuple[str, str]] = {
    "Qe": ('a/b[text() = "{value}"]//c/d', "b"),
    "Qf": ('a/b//c/d[text() = "{value}"]', "d"),
}


@dataclass
class PushMeasurement:
    """One point of Fig. 13: a query at a selected-set size, push vs no push."""

    query: str
    selected_target: int
    selected_actual: int
    push_seconds: float
    nopush_seconds: float
    document_elements: int


def _dataset_for_selectivity(
    max_elements: int, selected: int, label: str, seed: int
) -> Tuple[DatasetSpec, int]:
    """Build a dataset whose ``label`` values select roughly ``selected`` elements."""
    dtd = cross_dtd()
    probe = DatasetSpec(dtd, x_l=FIXED_XL, x_r=FIXED_XR, max_elements=max_elements, seed=seed)
    tree = probe.generate()
    label_count = tree.labels().get(label, 0)
    distinct = max(1, round(label_count / max(1, selected)))
    spec = DatasetSpec(
        dtd,
        x_l=FIXED_XL,
        x_r=FIXED_XR,
        max_elements=max_elements,
        seed=seed,
        distinct_values=distinct,
    )
    return spec, label_count


def run(
    max_elements: Optional[int] = None,
    selected_sizes: Sequence[int] = PAPER_SELECTED_SIZES,
    scale: int = 16,
    seed: int = SEED,
    backend: str = "memory",
    optimize_level: Optional[int] = None,
) -> List[PushMeasurement]:
    """Run the Fig. 13 sweep; selected-set sizes are scaled like the dataset."""
    max_elements = max_elements or scaled_elements(PAPER_ELEMENTS)
    dtd = cross_dtd()
    push = Approach(
        "push", EngineConfig(push_selections=True, optimize_level=optimize_level)
    )
    nopush = Approach("no-push", EngineConfig(optimize_level=optimize_level))
    results: List[PushMeasurement] = []
    for query_name, (template, label) in QUERY_TEMPLATES.items():
        for paper_selected in selected_sizes:
            selected = max(1, paper_selected // scale)
            spec, label_count = _dataset_for_selectivity(max_elements, selected, label, seed)
            tree = spec.generate()
            shredded = shred_document(tree, dtd)
            query = template.format(value=f"{label}-0")
            actual = sum(
                1 for node in tree.nodes_with_label(label) if node.value == f"{label}-0"
            )
            push_row, nopush_row = measure_cases(
                shredded,
                [(a, a.translator(dtd), query, query_name) for a in (push, nopush)],
                backend,
            )
            results.append(
                PushMeasurement(
                    query=query_name,
                    selected_target=selected,
                    selected_actual=actual,
                    push_seconds=push_row.execution_seconds,
                    nopush_seconds=nopush_row.execution_seconds,
                    document_elements=tree.size(),
                )
            )
    return results


def summarize(rows: List[PushMeasurement]) -> str:
    """Format the Fig. 13 series (push vs no push per selected-set size)."""
    return format_table(
        ["query", "selected", "push_s", "no_push_s", "speedup", "elements"],
        [
            (
                row.query,
                row.selected_actual,
                f"{row.push_seconds:.3f}",
                f"{row.nopush_seconds:.3f}",
                f"{row.nopush_seconds / row.push_seconds:.2f}x"
                if row.push_seconds > 0
                else "-",
                row.document_elements,
            )
            for row in rows
        ],
    )


def report(
    quick: bool = False,
    backend: str = "memory",
    seed: Optional[int] = None,
    elements: Optional[int] = None,
    optimize_level: Optional[int] = None,
) -> str:
    """The Fig. 13 series as ``repro experiment exp2`` prints them."""
    sweep = dict(QUICK_SWEEP) if quick else {}
    if elements:
        sweep["max_elements"] = elements
    rows = run(
        **sweep,
        seed=SEED if seed is None else seed,
        backend=backend,
        optimize_level=optimize_level,
    )
    return "Exp-2 (Fig. 13): pushing selections into the LFP operator\n" + summarize(rows)
