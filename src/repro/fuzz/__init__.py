"""Randomized workload generation and cross-engine differential fuzzing.

The paper's central invariant — ``Q(T) = Q'(tau_d(T))`` for every XPath
query over a (possibly recursive) DTD — is checked by the rest of the test
suite against a handful of hand-written DTDs and two dozen fixed workload
queries.  This package turns the invariant into an *unbounded* test oracle:

* :class:`~repro.fuzz.dtd_gen.RandomDTDGenerator` produces seeded random
  DTDs with controlled recursion (back edges along ancestor chains, so the
  number of injected cycles is a knob, not an accident);
* :class:`~repro.fuzz.xpath_gen.RandomXPathGenerator` emits schema-guided
  queries — child/descendant steps follow the DTD graph, predicates and
  ``text() = c`` comparisons target declared text types — so generated
  queries always parse and resolve;
* :class:`~repro.fuzz.oracle.DifferentialOracle` answers each generated
  (DTD, document, query) triple on every engine of the grid — a list of
  :class:`~repro.api.EngineConfig` spanning the in-memory engine under all
  descendant strategies and optimisation settings, and SQLite — compares
  each against the direct XPath evaluator and reports any disagreement.
  A case carrying a mutation script runs each engine twice: through
  ``Backend.apply_delta`` on the base document (the delta arm) and over
  a fresh shred of the mutated tree (the ``@scratch`` arm);
* :func:`~repro.fuzz.shrink.shrink_case` reduces a failing triple to a
  minimal repro (smaller document, shorter query, fewer element types);
* :func:`~repro.fuzz.harness.run_fuzz` drives the whole loop from one seed
  and budget, optionally attaching a random mutation script to every case
  (``FuzzConfig.mutations_per_case``) and writing failures to a replayable
  JSON corpus; :func:`~repro.fuzz.harness.replay_corpus` re-runs one (or
  any list of cases).

``repro diff`` replays the fixed paper workloads
(:func:`repro.workloads.cases.workload_cases`) through the same oracle.
Everything is deterministic per seed: the same ``FuzzConfig`` always
produces the same cases, so a failure found in CI replays locally.
"""

from repro._support import lazy_exports

__all__ = [
    "DTDGenConfig",
    "RandomDTDGenerator",
    "XPathGenConfig",
    "RandomXPathGenerator",
    "DocumentSpec",
    "FuzzCase",
    "EngineDisagreement",
    "CaseOutcome",
    "DifferentialOracle",
    "default_engines",
    "engine_name",
    "shrink_case",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "replay_corpus",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fuzz.cases": ("DocumentSpec", "FuzzCase"),
        "repro.fuzz.dtd_gen": ("DTDGenConfig", "RandomDTDGenerator"),
        "repro.fuzz.harness": (
            "FuzzConfig",
            "FuzzFailure",
            "FuzzReport",
            "replay_corpus",
            "run_fuzz",
        ),
        "repro.fuzz.oracle": (
            "CaseOutcome",
            "DifferentialOracle",
            "EngineDisagreement",
            "default_engines",
            "engine_name",
        ),
        "repro.fuzz.shrink": ("shrink_case",),
        "repro.fuzz.xpath_gen": ("RandomXPathGenerator", "XPathGenConfig"),
    },
)
