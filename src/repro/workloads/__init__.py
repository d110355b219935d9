"""Paper workloads: the example/experiment queries and dataset builders."""

from repro._support import lazy_exports

__all__ = [
    "DEPT_QUERIES",
    "CROSS_QUERIES",
    "SELECTIVE_QUERIES",
    "BIOML_CASES",
    "BiomlCase",
    "GEDML_QUERY",
    "DatasetSpec",
    "build_dataset",
    "dept_sample_tree",
    "scaled_elements",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.queries": (
            "BIOML_CASES",
            "CROSS_QUERIES",
            "DEPT_QUERIES",
            "GEDML_QUERY",
            "SELECTIVE_QUERIES",
            "BiomlCase",
        ),
        "repro.workloads.datasets": (
            "DatasetSpec",
            "build_dataset",
            "dept_sample_tree",
            "scaled_elements",
        ),
    },
)
