"""Exp-4: real-life DTDs — BIOML (Fig. 16 / Table 4) and GedML (Fig. 17).

Part A (Fig. 16): the seven query/DTD cases of Table 4 (``gene//locus`` and
``gene//dna`` over the 2/3/4-cycle BIOML subgraphs of Fig. 15 and the full
4-cycle DTD of Fig. 11b), all evaluated over one dataset generated from the
largest BIOML DTD.

Part B (Fig. 17): ``even//data`` over the 9-cycle GedML DTD of Fig. 11(c),
varying X_L in {13, 14, 15} with X_R = 6, and X_R in {6, 7, 8} with
X_L = 16 (dataset sizes scaled down from the paper's multi-million-element
documents).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dtd.samples import bioml_dtd, gedml_dtd
from repro.experiments.harness import (
    Approach,
    MeasuredQuery,
    default_approaches,
    format_table,
    measure_cases,
)
from repro.shredding.shredder import shred_document
from repro.workloads.datasets import DatasetSpec, scaled_elements
from repro.workloads.queries import BIOML_CASES, GEDML_QUERY

__all__ = ["run_bioml", "run_gedml", "report", "QUICK_BIOML", "QUICK_GEDML"]

# The paper's BIOML dataset has 1,990,858 elements; GedML datasets range
# from ~0.3M to ~5M elements.  Both are scaled down via scaled_elements().
PAPER_BIOML_ELEMENTS = 1_990_858
PAPER_GEDML_ELEMENTS = 1_000_000
BIOML_XL, BIOML_XR = 16, 6
GEDML_XL_VALUES = (13, 14, 15)
GEDML_XR_VALUES = (6, 7, 8)
GEDML_FIXED_XR = 6
GEDML_FIXED_XL = 16
# One seed steers both halves; GedML keeps its offset so the two documents
# stay distinct.
SEED = 31
GEDML_SEED_OFFSET = 6
# The reduced sweeps of ``--quick``: small documents, one GedML shape.
QUICK_BIOML = {"max_elements": 2000}
QUICK_GEDML = {"max_elements": 2000, "xl_values": (13,), "xr_values": (6,)}


def run_bioml(
    max_elements: Optional[int] = None,
    approaches: Optional[Sequence[Approach]] = None,
    cases=BIOML_CASES,
    seed: int = SEED,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    """Fig. 16: the Table 4 cases over one dataset of the 4-cycle BIOML DTD.

    As in the paper, the dataset is generated once from the *largest* DTD
    (Fig. 11b); each case then translates its query over its own extracted
    sub-DTD, so the translated SQL only touches the relations that sub-DTD
    mentions.
    """
    max_elements = max_elements or scaled_elements(PAPER_BIOML_ELEMENTS, scale=32)
    approaches = list(approaches or default_approaches())
    full_dtd = bioml_dtd()
    spec = DatasetSpec(full_dtd, x_l=BIOML_XL, x_r=BIOML_XR, max_elements=max_elements, seed=seed)
    shredded = shred_document(spec.generate(), full_dtd)
    # The sub-DTD's relations coincide (by name) with the full DTD's, so the
    # shredded document serves every case, answered through the sub-DTD's
    # mapping; the translators are built per case because the DTD graph
    # differs.
    pairs = [(case, approach) for case in cases for approach in approaches]
    dtds = {case.name: case.dtd() for case in cases}
    rows = measure_cases(
        shredded,
        [
            (
                approach,
                approach.translator(dtds[case.name]),
                case.query,
                f"case {case.name} ({case.cycles} cycles)",
            )
            for case, approach in pairs
        ],
        backend,
    )
    for row, (case, _) in zip(rows, pairs):
        row.query = f"{case.name}:{case.query}"
    return rows


def run_gedml(
    max_elements: Optional[int] = None,
    approaches: Optional[Sequence[Approach]] = None,
    xl_values: Sequence[int] = GEDML_XL_VALUES,
    xr_values: Sequence[int] = GEDML_XR_VALUES,
    seed: int = SEED + GEDML_SEED_OFFSET,
    backend: str = "memory",
) -> List[MeasuredQuery]:
    """Fig. 17: even//data over the 9-cycle GedML DTD, varying X_L and X_R."""
    max_elements = max_elements or scaled_elements(PAPER_GEDML_ELEMENTS, scale=32)
    approaches = list(approaches or default_approaches())
    dtd = gedml_dtd()
    shapes = [(x_l, GEDML_FIXED_XR) for x_l in xl_values]
    shapes += [(GEDML_FIXED_XL, x_r) for x_r in xr_values]
    rows: List[MeasuredQuery] = []
    for x_l, x_r in shapes:
        spec = DatasetSpec(dtd, x_l=x_l, x_r=x_r, max_elements=max_elements, seed=seed)
        label = f"XL={x_l},XR={x_r}"
        rows.extend(
            measure_cases(
                shred_document(spec.generate(), dtd),
                [(a, a.translator(dtd), GEDML_QUERY, label) for a in approaches],
                backend,
            )
        )
    return rows


def summarize(rows: List[MeasuredQuery]) -> str:
    """Format Exp-4 measurements."""
    return format_table(
        ["query", "dataset", "approach", "exec_s", "rows", "elements"],
        [
            (
                row.query,
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
    """The Fig. 16 and Fig. 17 series as ``repro experiment exp4`` prints them."""
    bioml = dict(QUICK_BIOML) if quick else {}
    gedml = dict(QUICK_GEDML) if quick else {}
    if elements:
        bioml["max_elements"] = gedml["max_elements"] = elements
    seed = SEED if seed is None else seed
    approaches = default_approaches(optimize_level=optimize_level)
    bioml_rows = run_bioml(**bioml, seed=seed, backend=backend, approaches=approaches)
    gedml_rows = run_gedml(
        **gedml, seed=seed + GEDML_SEED_OFFSET, backend=backend, approaches=approaches
    )
    return "\n".join(
        [
            "Exp-4a (Fig. 16): BIOML cases of Table 4",
            summarize(bioml_rows),
            "",
            "Exp-4b (Fig. 17): even//data over the 9-cycle GedML DTD",
            summarize(gedml_rows),
        ]
    )
