"""The fixed workloads as differential fuzz cases (what ``repro diff`` replays).

Every query of :mod:`repro.workloads.queries` over its paper DTD, plus a
small non-recursive DTD with three queries, becomes one
:class:`~repro.fuzz.cases.FuzzCase` per distinct (DTD, query) pair.  The
:class:`~repro.fuzz.oracle.DifferentialOracle` answers each case on every
engine of its grid and checks the answer against the XPath evaluator, so
the grid (every descendant strategy, baseline and pushed selections on
memory, SQLite, the level-0 sentinel) supplies the configurations and the
cases supply the queries.

Usage::

    from repro.fuzz import DifferentialOracle
    from repro.workloads.cases import workload_cases

    oracle = DifferentialOracle()
    assert all(oracle.run(case).ok for case in workload_cases(max_elements=200))
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dtd import samples
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.fuzz.cases import DocumentSpec, FuzzCase
from repro.workloads.queries import (
    BIOML_CASES,
    CROSS_QUERIES,
    DEPT_QUERIES,
    GEDML_QUERY,
    SCALABILITY_QUERY,
    SELECTIVE_QUERIES,
)

__all__ = ["LIBRARY_QUERIES", "library_dtd", "workload_cases"]

# Three queries over the non-recursive library DTD.
LIBRARY_QUERIES: Dict[str, str] = {
    "NR1": "library//title",
    "NR2": "library/shelf/book/author",
    "NR3": "library//book[author]/title",
}


def library_dtd() -> DTD:
    """A small non-recursive DTD, so the sweep is not all cycles."""
    return parse_dtd(
        "root library\n"
        "library -> shelf*\n"
        "shelf -> book*\n"
        "book -> title, author*\n"
        "title -> EMPTY #text\n"
        "author -> EMPTY #text\n",
        name="library",
    )


def _workloads() -> List[Tuple[str, DTD, Dict[str, str]]]:
    """(label, DTD, named queries) of every fixed workload."""
    # Qe selects on b's text, Qf on d's; the generator names values
    # "<label>-<k>", so "-0" always exists.
    selective = {
        name: template.format(value=f"{label}-0")
        for (name, template), label in zip(sorted(SELECTIVE_QUERIES.items()), ("b", "d"))
    }
    workloads = [
        ("dept", samples.dept_dtd(), dict(DEPT_QUERIES)),
        ("cross", samples.cross_dtd(), {**CROSS_QUERIES, "Qs": SCALABILITY_QUERY, **selective}),
        ("gedml", samples.gedml_dtd(), {"Qg": GEDML_QUERY}),
        ("library", library_dtd(), dict(LIBRARY_QUERIES)),
    ]
    for case in BIOML_CASES:
        workloads.append(("bioml", case.dtd(), {case.name: case.query}))
    return workloads


def workload_cases(max_elements: int = 400) -> List[FuzzCase]:
    """One case per distinct (DTD, query) pair of the fixed workloads.

    Every case's document uses the same generator knobs (X_L 8, X_R 3,
    seed 5, 100 distinct text values); ``max_elements`` sizes it.
    """
    document = DocumentSpec(
        x_l=8, x_r=3, max_elements=max_elements, seed=5, distinct_values=100
    )
    cases: List[FuzzCase] = []
    seen = set()
    for label, dtd, queries in _workloads():
        dtd_text = dtd.to_text()
        for name, query in queries.items():
            if (dtd_text, query) in seen:
                continue
            seen.add((dtd_text, query))
            cases.append(FuzzCase(f"{label}-{name}", dtd_text, query, document))
    return cases
