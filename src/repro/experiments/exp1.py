"""Exp-1 (Fig. 12): selective queries over the cross-cycle DTD.

Reproduces the eight sub-figures of Fig. 12: the four queries Qa–Qd of
Sect. 6.1 evaluated with the three approaches (R = SQLGen-R, E = CycleE,
X = CycleEX) over documents of a fixed element budget whose *shape* varies:

* sub-figures (a)(c)(e)(g): X_L in {8, 12, 16, 20} with X_R = 4;
* sub-figures (b)(d)(f)(h): X_R in {4, 6, 8, 10} with X_L = 12.

The paper fixes the document at 120,000 elements on DB2; the default here
is that size divided by ``DEFAULT_SCALE`` (see
:mod:`repro.workloads.datasets`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dtd.samples import cross_dtd
from repro.experiments.harness import (
    Approach,
    MeasuredQuery,
    default_approaches,
    format_table,
    measure_cases,
)
from repro.shredding.shredder import shred_document
from repro.workloads.datasets import DatasetSpec, scaled_elements
from repro.workloads.queries import CROSS_QUERIES

__all__ = ["run", "report", "PAPER_ELEMENTS", "XL_VALUES", "XR_VALUES", "QUICK_SWEEP"]

PAPER_ELEMENTS = 120_000
XL_VALUES = (8, 12, 16, 20)
XR_VALUES = (4, 6, 8, 10)
FIXED_XR = 4
FIXED_XL = 12
SEED = 11
# The reduced sweep of ``--quick``: two X_L and two X_R values on a small
# document.  (X_L=12, X_R=4) lies on both series; it is measured once and
# its rows are printed in both.
QUICK_SWEEP = {"max_elements": 1500, "xl_values": (8, 12), "xr_values": (4, 8)}


def _measure_for_spec(
    spec: DatasetSpec,
    queries: Dict[str, str],
    approaches: Sequence[Approach],
    dataset_label: str,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    shredded = shred_document(spec.generate(), spec.dtd)
    translators = {a.name: a.translator(spec.dtd) for a in approaches}
    pairs = [(name, approach) for name in queries for approach in approaches]
    rows = measure_cases(
        shredded,
        [(a, translators[a.name], queries[name], dataset_label) for name, a in pairs],
        backend,
    )
    for row, (name, _) in zip(rows, pairs):
        row.query = name
    return rows


def run(
    max_elements: Optional[int] = None,
    xl_values: Sequence[int] = XL_VALUES,
    xr_values: Sequence[int] = XR_VALUES,
    queries: Optional[Dict[str, str]] = None,
    approaches: Optional[Sequence[Approach]] = None,
    seed: int = SEED,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    """Run the Fig. 12 sweep and return one measurement per (query, approach, dataset).

    The X_L series comes first, then the X_R series.  A shape on both series
    is measured once and its rows appear in both.
    """
    max_elements = max_elements or scaled_elements(PAPER_ELEMENTS)
    queries = queries or dict(CROSS_QUERIES)
    approaches = list(approaches or default_approaches())
    dtd = cross_dtd()
    shapes = [(x_l, FIXED_XR) for x_l in xl_values] + [(FIXED_XL, x_r) for x_r in xr_values]
    measured: Dict[Tuple[int, int], List[MeasuredQuery]] = {}
    rows: List[MeasuredQuery] = []
    for x_l, x_r in shapes:
        if (x_l, x_r) not in measured:
            spec = DatasetSpec(dtd, x_l=x_l, x_r=x_r, max_elements=max_elements, seed=seed)
            measured[x_l, x_r] = _measure_for_spec(
                spec, queries, approaches, f"XL={x_l},XR={x_r}", backend
            )
        rows.extend(measured[x_l, x_r])
    return rows


def summarize(rows: List[MeasuredQuery]) -> str:
    """Format the measurements as the per-sub-figure series of Fig. 12."""
    table_rows = [
        (
            row.query,
            row.dataset,
            row.approach,
            f"{row.execution_seconds:.3f}",
            f"{row.translation_seconds:.3f}",
            row.result_rows,
            row.document_elements,
        )
        for row in rows
    ]
    return format_table(
        ["query", "dataset", "approach", "exec_s", "translate_s", "rows", "elements"],
        table_rows,
    )


def report(
    quick: bool = False,
    backend: str = "memory",
    seed: Optional[int] = None,
    elements: Optional[int] = None,
    optimize_level: Optional[int] = None,
) -> str:
    """The Fig. 12 series as ``repro experiment exp1`` prints them."""
    sweep = dict(QUICK_SWEEP) if quick else {}
    if elements:
        sweep["max_elements"] = elements
    rows = run(
        **sweep,
        seed=SEED if seed is None else seed,
        backend=backend,
        approaches=default_approaches(optimize_level=optimize_level),
    )
    return "Exp-1 (Fig. 12): Qa-Qd over the cross-cycle DTD\n" + summarize(rows)
