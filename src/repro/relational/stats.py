"""Execution statistics shared by the columnar engine and the tuple executor.

Kept apart from both executors so the columnar engine, which is what
serving runs, does not load the tuple reference executor to report them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["ExecutionStats"]


@dataclass
class ExecutionStats:
    """Counters describing the work done while executing a program."""

    fixpoint_iterations: int = 0
    recursive_union_iterations: int = 0
    join_output_rows: int = 0
    union_output_rows: int = 0
    tuples_materialized: int = 0
    temporaries_evaluated: int = 0
    #: Temporaries a run took already materialized from the columnar
    #: store's shared table instead of evaluating them (the tuple executor
    #: shares nothing, so it always reports 0).
    temporaries_reused: int = 0
    #: Of ``temporaries_evaluated``, those the columnar engine evaluated
    #: under a demand: only for the origins an answer reaches.
    temporaries_demanded: int = 0
    #: Of ``temporaries_reused``, those taken as a result cached on the
    #: entry under the same demand.
    temporaries_demanded_reused: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "fixpoint_iterations": self.fixpoint_iterations,
            "recursive_union_iterations": self.recursive_union_iterations,
            "join_output_rows": self.join_output_rows,
            "union_output_rows": self.union_output_rows,
            "tuples_materialized": self.tuples_materialized,
            "temporaries_evaluated": self.temporaries_evaluated,
            "temporaries_reused": self.temporaries_reused,
            "temporaries_demanded": self.temporaries_demanded,
            "temporaries_demanded_reused": self.temporaries_demanded_reused,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def reset(self) -> None:
        """Zero every counter (called at the start of each ``run``)."""
        self.fixpoint_iterations = 0
        self.recursive_union_iterations = 0
        self.join_output_rows = 0
        self.union_output_rows = 0
        self.tuples_materialized = 0
        self.temporaries_evaluated = 0
        self.temporaries_reused = 0
        self.temporaries_demanded = 0
        self.temporaries_demanded_reused = 0
        self.elapsed_seconds = 0.0
