"""Exp-3 (Fig. 14): scalability with the dataset size.

The paper evaluates ``a//d`` over the cross-cycle DTD with X_R = 4 and
X_L = 16 while growing the document from 60,000 to 480,000 elements,
comparing R (SQLGen-R), E (CycleE) and X (CycleEX).  Dataset sizes are
scaled down by ``DEFAULT_SCALE`` here; the relative ordering (X fastest, E
slowest at the largest size, R degrading faster than X) is the result the
figure demonstrates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
from repro.workloads.queries import SCALABILITY_QUERY

__all__ = ["run", "report", "PAPER_SIZES", "QUICK_SWEEP"]

PAPER_SIZES = (60_000, 120_000, 240_000, 480_000)
FIXED_XL = 16
FIXED_XR = 4
SEED = 5
# The reduced sweep of ``--quick``: two small documents.
QUICK_SWEEP = {"sizes": (1000, 2000)}


def run(
    sizes: Optional[Sequence[int]] = None,
    approaches: Optional[Sequence[Approach]] = None,
    query: str = SCALABILITY_QUERY,
    seed: int = SEED,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    """Run the Fig. 14 sweep over increasing (scaled) dataset sizes."""
    sizes = list(sizes or [scaled_elements(size) for size in PAPER_SIZES])
    approaches = list(approaches or default_approaches())
    dtd = cross_dtd()
    rows: List[MeasuredQuery] = []
    for size in sizes:
        spec = DatasetSpec(dtd, x_l=FIXED_XL, x_r=FIXED_XR, max_elements=size, seed=seed)
        shredded = shred_document(spec.generate(), dtd)
        label = f"{size} elements"
        rows.extend(
            measure_cases(
                shredded, [(a, a.translator(dtd), query, label) for a in approaches], backend
            )
        )
    return rows


def summarize(rows: List[MeasuredQuery]) -> str:
    """Format the Fig. 14 series."""
    return format_table(
        ["dataset", "approach", "exec_s", "rows", "elements"],
        [
            (
                row.dataset,
                row.approach,
                f"{row.execution_seconds:.3f}",
                row.result_rows,
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
    """The Fig. 14 series as ``repro experiment exp3`` prints them.

    ``elements`` replaces the sweep with that one document size.
    """
    sweep = dict(QUICK_SWEEP) if quick else {}
    if elements:
        sweep["sizes"] = (elements,)
    rows = run(
        **sweep,
        seed=SEED if seed is None else seed,
        backend=backend,
        approaches=default_approaches(optimize_level=optimize_level),
    )
    return "Exp-3 (Fig. 14): scalability of a//d over the cross-cycle DTD\n" + summarize(rows)
