#!/usr/bin/env python3
"""Scenario: querying recursive biological markup (BIOML-style data).

BIOML (BIOpolymer Markup Language) describes genes, DNA fragments, clones
and loci that nest into each other — one of the recursive real-life DTDs the
paper evaluates on (Fig. 11b).  This example:

1. builds the 4-cycle BIOML DTD and a synthetic specimen document;
2. answers lineage questions (``gene//locus``, ``gene//dna``) through the
   three translation strategies the paper compares (SQLGen-R, CycleE,
   CycleEX) and reports their running times side by side;
3. prints the operator profile of each translated program, showing why the
   CycleEX programs are the cheapest (fewest joins inside recursion).

Run with ``python examples/bioml_lineage.py``.
"""

from repro import generate_document
from repro.dtd.samples import bioml_dtd, describe
from repro.experiments.harness import default_approaches, format_table, measure_query
from repro.shredding.shredder import shred_document
from repro.workloads.queries import BIOML_CASES

def main() -> None:
    dtd = bioml_dtd()
    print("== BIOML 4-cycle DTD (Fig. 11b) ==")
    print(describe(dtd))

    document = generate_document(dtd, x_l=10, x_r=4, seed=19, max_elements=8000)
    shredded = shred_document(document, dtd)
    print(f"specimen document: {document.size()} elements "
          f"({document.labels()})\n")

    queries = {"gene//locus": "loci below a gene", "gene//dna": "DNA fragments below a gene"}
    # The paper's three curves, each a named engine configuration: SQLGen-R
    # (SQL'99 recursion, no selection pushing), CycleE and CycleEX (both
    # with the Sect. 5.2 optimised lowering).
    approaches = default_approaches()
    translators = {a.name: a.translator(dtd) for a in approaches}

    rows = []
    for query, description in queries.items():
        for approach in approaches:
            measured = measure_query(
                approach, dtd, shredded, query, dataset_label=description,
                translator=translators[approach.name],
            )
            profile = translators[approach.name].translate(query).operator_profile()
            rows.append(
                (
                    query,
                    approach.name,
                    f"{measured.execution_seconds * 1000:.1f} ms",
                    measured.result_rows,
                    profile.lfps,
                    profile.recursive_unions,
                    profile.joins,
                )
            )

    print(format_table(
        ["query", "approach", "exec time", "rows", "LFPs", "SQL'99 recs", "joins"], rows
    ))

    print("\nTable 4 cases over the extracted sub-DTDs (CycleEX only):")
    case_rows = []
    cycleex = approaches[-1]
    for case in BIOML_CASES:
        case_dtd = case.dtd()
        translator = cycleex.translator(case_dtd)
        measured = measure_query(
            cycleex,
            case_dtd,
            shredded,
            case.query,
            dataset_label=case.name,
            translator=translator,
        )
        case_rows.append(
            (case.name, case.query, case.cycles, f"{measured.execution_seconds * 1000:.1f} ms")
        )
    print(format_table(["case", "query", "cycles", "exec time"], case_rows))
    print("\nbioml_lineage example finished")


if __name__ == "__main__":
    main()
