"""Experiment harness reproducing the paper's evaluation (Sect. 6).

Each ``expN`` module regenerates one table or figure:

* ``exp1`` — Fig. 12: Qa–Qd over the cross-cycle DTD, varying X_L and X_R;
* ``exp2`` — Fig. 13: pushing selections into the LFP operator;
* ``exp3`` — Fig. 14: scalability with the dataset size;
* ``exp4`` — Fig. 16/Table 4 (BIOML) and Fig. 17 (GedML);
* ``exp5`` — Table 5: operator counts of CycleE vs CycleEX, plus the
  Example 4.2 operator-growth comparison.

Every module exposes ``run(...)`` returning structured rows and a
``report(...)`` that returns the same series the paper plots as text;
``repro experiment expN`` prints it.  Dataset sizes are scaled down from
the paper's 120,000-element DB2 documents by
``repro.workloads.datasets.DEFAULT_SCALE`` because the relational engine
is pure Python; ``--elements`` runs paper-sized inputs if you have the
patience.
"""

from repro._support import lazy_exports

__all__ = [
    "Approach",
    "MeasuredQuery",
    "default_approaches",
    "measure_query",
    "format_table",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.harness": (
            "Approach",
            "MeasuredQuery",
            "default_approaches",
            "format_table",
            "measure_query",
        ),
    },
)
