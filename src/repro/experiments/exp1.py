"""Exp-1 (Fig. 12): selective queries over the cross-cycle DTD.

Reproduces the eight sub-figures of Fig. 12: the four queries Qa–Qd of
Sect. 6.1 evaluated with the three approaches (R = SQLGen-R, E = CycleE,
X = CycleEX) over documents of a fixed element budget whose *shape* varies:

* sub-figures (a)(c)(e)(g): X_L in {8, 12, 16, 20} with X_R = 4;
* sub-figures (b)(d)(f)(h): X_R in {4, 6, 8, 10} with X_L = 12.

The paper fixes the document at 120,000 elements on DB2; the default here
is that size divided by ``DEFAULT_SCALE`` (see
:mod:`repro.workloads.datasets`).  Run with
``python -m repro.experiments.exp1 [--quick]``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.backends import create_backend
from repro.dtd.samples import cross_dtd
from repro.experiments.harness import (
    Approach,
    MeasuredQuery,
    default_approaches,
    format_table,
    measure_query,
    parse_backend_arg,
    parse_int_arg,
)
from repro.shredding.shredder import shred_document
from repro.workloads.datasets import DatasetSpec, scaled_elements
from repro.workloads.queries import CROSS_QUERIES

__all__ = ["run", "main", "PAPER_ELEMENTS", "XL_VALUES", "XR_VALUES"]

PAPER_ELEMENTS = 120_000
XL_VALUES = (8, 12, 16, 20)
XR_VALUES = (4, 6, 8, 10)
FIXED_XR = 4
FIXED_XL = 12


def _measure_for_spec(
    spec: DatasetSpec,
    queries: Dict[str, str],
    approaches: Sequence[Approach],
    dataset_label: str,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    tree = spec.generate()
    shredded = shred_document(tree, spec.dtd)
    translators = {a.name: a.translator(spec.dtd) for a in approaches}
    rows: List[MeasuredQuery] = []
    engine = create_backend(backend, shredded.database)
    try:
        for query_name, query in queries.items():
            for approach in approaches:
                measured = measure_query(
                    approach,
                    spec.dtd,
                    shredded,
                    query,
                    dataset_label=dataset_label,
                    translator=translators[approach.name],
                    engine=engine,
                )
                measured.query = query_name
                rows.append(measured)
    finally:
        engine.close()
    return rows


def run(
    max_elements: Optional[int] = None,
    xl_values: Sequence[int] = XL_VALUES,
    xr_values: Sequence[int] = XR_VALUES,
    queries: Optional[Dict[str, str]] = None,
    approaches: Optional[Sequence[Approach]] = None,
    seed: int = 11,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    """Run the Fig. 12 sweep and return one measurement per (query, approach, dataset)."""
    max_elements = max_elements or scaled_elements(PAPER_ELEMENTS)
    queries = queries or dict(CROSS_QUERIES)
    approaches = list(approaches or default_approaches())
    dtd = cross_dtd()
    rows: List[MeasuredQuery] = []
    for x_l in xl_values:
        spec = DatasetSpec(dtd, x_l=x_l, x_r=FIXED_XR, max_elements=max_elements, seed=seed)
        rows.extend(
            _measure_for_spec(spec, queries, approaches, f"XL={x_l},XR={FIXED_XR}", backend)
        )
    for x_r in xr_values:
        spec = DatasetSpec(dtd, x_l=FIXED_XL, x_r=x_r, max_elements=max_elements, seed=seed)
        rows.extend(
            _measure_for_spec(spec, queries, approaches, f"XL={FIXED_XL},XR={x_r}", backend)
        )
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


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point: print the Fig. 12 series."""
    argv = list(sys.argv[1:] if argv is None else argv)
    backend = parse_backend_arg(argv)
    seed = parse_int_arg(argv, "--seed", 11)
    elements = parse_int_arg(argv, "--elements")
    optimize_level = parse_int_arg(argv, "--optimize-level")
    approaches = (
        default_approaches(optimize_level=optimize_level)
        if optimize_level is not None
        else None
    )
    quick = "--quick" in argv
    if quick:
        rows = run(
            max_elements=elements or 1500,
            xl_values=(8, 12),
            xr_values=(4, 8),
            seed=seed,
            backend=backend,
            approaches=approaches,
        )
    else:
        rows = run(max_elements=elements, seed=seed, backend=backend, approaches=approaches)
    print("Exp-1 (Fig. 12): Qa-Qd over the cross-cycle DTD")
    print(summarize(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
