"""Live documents: DTD-validated mutations with incremental re-shredding.

The subsystem keeps the paper's invariant Q(T) = Q'(tau_d(T)) true *over
time*: a registered document may be mutated (insert/delete subtree, replace
text) and the relational side is updated incrementally — a
:class:`~repro.live.delta.ShredDelta` of row inserts/deletes per relation
plus the renumbered ``DOC_ORDER`` intervals — instead of being re-shredded
from scratch.  ``Backend.apply_delta`` applies the delta to whatever store
the backend owns; :meth:`repro.service.QueryService.update_document`
threads the invalidation through the serving tier (result LRUs dropped,
plan/prepared caches kept — plans depend only on the DTD).

:mod:`repro.live.fuzzer` generates random valid mutation scripts;
``repro.fuzz.run_fuzz`` attaches them to cases
(``FuzzConfig.mutations_per_case``) and its
:class:`~repro.fuzz.DifferentialOracle` checks mutate-then-query against
reshred-from-scratch-then-query across the engine grid.
The frozen ``BENCH_8.json`` record compares incremental updates against
full re-registration.
"""

from repro._support import lazy_exports

__all__ = [
    "ShredDelta",
    "merge_deltas",
    "apply_delta_to_database",
    "DocumentMutator",
    "Mutation",
    "InsertSubtree",
    "DeleteSubtree",
    "ReplaceText",
    "as_subtree",
    "mutation_to_dict",
    "mutation_from_dict",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.live.delta": ("ShredDelta", "apply_delta_to_database", "merge_deltas"),
        "repro.live.mutations": (
            "DeleteSubtree",
            "DocumentMutator",
            "InsertSubtree",
            "Mutation",
            "ReplaceText",
            "as_subtree",
            "mutation_from_dict",
            "mutation_to_dict",
        ),
    },
)
