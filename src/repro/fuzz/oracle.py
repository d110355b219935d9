"""The cross-engine differential oracle.

For one :class:`~repro.fuzz.cases.FuzzCase` the oracle computes the answer
set of the query on every configured *engine* and compares each against the
reference — the direct XPath evaluator over the XML tree, which implements
the paper's ``Q(T)`` semantics directly.  An engine is one
:class:`~repro.api.EngineConfig`, a point on the (backend × descendant
strategy × optimisation) grid:

* ``memory`` engines run the translated program on the in-memory
  relational engine, under every descendant strategy, each with the
  optimisations off (``baseline``) or fully on (selection pushing +
  small seeds, ``opt``);
* ``sqlite`` engines render the same programs in the SQLITE dialect and
  run them for real (``WITH RECURSIVE`` and all).

A case that carries a mutation script is answered twice per engine, and
the reference is the evaluator run on the *mutated* tree:

* the **delta arm** shreds the original document, applies the script's
  merged :class:`~repro.live.delta.ShredDelta` through
  ``Backend.apply_delta``, then runs the query — the live-update path;
* the **scratch arm** (engine names suffixed ``@scratch``) shreds the
  mutated tree from nothing — the paper's static ``Q'(tau_d(T))`` path.

Every engine must produce exactly the evaluator's node set — any missing
or extra node id (or an engine crash) is a disagreement, and the case is a
bug repro.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.backends.base import Backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.fuzz.cases import FuzzCase
from repro.live.mutations import DocumentMutator
from repro.relational.algebra import Program
from repro.shredding.shredder import shred_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

__all__ = [
    "SCRATCH_SUFFIX",
    "EngineDisagreement",
    "CaseOutcome",
    "DifferentialOracle",
    "default_engines",
    "engine_name",
]

SCRATCH_SUFFIX = "@scratch"


def engine_name(config: EngineConfig) -> str:
    """Display name of one engine, e.g. ``memory/cycleex/opt``.

    ``opt`` marks pushed selections (the Sect. 5.2 setting), ``baseline``
    their absence.  A pinned optimizer level adds a trailing segment
    (``memory/cycleex/opt/O0``).
    """
    level = "opt" if config.push_selections else "baseline"
    suffix = "" if config.optimize_level is None else f"/O{config.optimize_level}"
    return f"{config.backend}/{config.strategy.value}/{level}{suffix}"


def _engine(
    backend: str,
    strategy: DescendantStrategy,
    optimized: bool,
    optimize_level: Optional[int],
) -> EngineConfig:
    # ``optimized`` switches both lowering optimisations together: small
    # seeds plus pushed selections, or the full-seed baseline.
    return EngineConfig(
        backend=backend,
        strategy=strategy,
        optimize_level=optimize_level,
        use_small_seed=optimized,
        push_selections=optimized,
    )


def default_engines(
    backends: Optional[Sequence[str]] = None,
    strategies: Optional[Sequence[DescendantStrategy]] = None,
    optimize_level: Optional[int] = None,
) -> List[EngineConfig]:
    """The default grid: memory × strategies × {baseline, opt}, plus SQLite.

    Every concrete strategy plus ``auto`` takes part, so the per-query
    strategy selector is fuzzed alongside the strategies it chooses from.
    The memory engines run on the columnar executor, whatever the size of
    the case's document.  SQLite runs each strategy once, optimised — the
    dialect rendering and real ``WITH RECURSIVE`` execution are what it
    adds; the lowering-optimisation axis is already covered in memory.
    ``optimize_level`` pins the program-optimizer level of every engine
    (default: the pipeline default); the memory/cycleex pair additionally
    always runs at level 0, so optimizer rewrites are differentially
    checked against raw lowering output in every sweep.
    """
    backends = list(backends or ("memory", "sqlite"))
    strategies = list(strategies or DescendantStrategy)
    level = optimize_level
    engines: List[EngineConfig] = []
    if "memory" in backends:
        for strategy in strategies:
            engines.append(_engine("memory", strategy, False, level))
            engines.append(_engine("memory", strategy, True, level))
        if optimize_level != 0:
            # The unoptimized-program sentinel: raw lowering output.
            engines.append(_engine("memory", DescendantStrategy.CYCLEEX, True, 0))
    for backend in backends:
        if backend == "memory":
            continue
        for strategy in strategies:
            engines.append(_engine(backend, strategy, True, level))
    return engines


@dataclass(frozen=True)
class EngineDisagreement:
    """One engine's deviation from the reference answer set."""

    engine: str
    missing: Tuple[int, ...] = ()
    extra: Tuple[int, ...] = ()
    error: Optional[str] = None

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.error is not None:
            return f"{self.engine}: ERROR {self.error}"
        return (
            f"{self.engine}: missing={list(self.missing)[:5]} "
            f"extra={list(self.extra)[:5]}"
        )


@dataclass
class CaseOutcome:
    """The oracle's verdict on one case."""

    case: FuzzCase
    expected: FrozenSet[int] = frozenset()
    engine_results: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    disagreements: List[EngineDisagreement] = field(default_factory=list)
    setup_error: Optional[str] = None
    # Wall seconds each engine spent on this case (translate — paid by the
    # first engine of a shared translation signature — plus execute).
    engine_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every engine matched the evaluator."""
        return not self.disagreements and self.setup_error is None

    def describe(self) -> str:
        """Multi-line summary naming every disagreeing engine."""
        if self.ok:
            return f"OK       {self.case.label}: {len(self.expected)} answer node(s)"
        lines = [f"MISMATCH {self.case.label}: query {self.case.query!r}"]
        if self.setup_error is not None:
            lines.append(f"  setup: ERROR {self.setup_error}")
        lines.extend(f"  {d.describe()}" for d in self.disagreements)
        return "\n".join(lines)


class DifferentialOracle:
    """Run cases through every engine and compare against the evaluator.

    Example
    -------
    >>> from repro.fuzz.cases import FuzzCase
    >>> from repro.dtd.samples import cross_dtd
    >>> case = FuzzCase("demo", cross_dtd().to_text(), "a//d")
    >>> DifferentialOracle().run(case).ok
    True
    """

    def __init__(self, engines: Optional[Sequence[EngineConfig]] = None) -> None:
        self._engines = list(engines or default_engines())

    @property
    def engines(self) -> List[EngineConfig]:
        """The engine grid this oracle compares."""
        return list(self._engines)

    def run(self, case: FuzzCase) -> CaseOutcome:
        """Answer ``case`` on every engine (both arms when it carries a
        mutation script); collect disagreements."""
        outcome = CaseOutcome(case=case)
        try:
            dtd = case.dtd()
            query = parse_xpath(case.query)
            tree = case.tree()
            delta = None
            if case.mutations:
                # The delta arm's backends share one shred of the base
                # document; one mutator run then yields both the reference
                # tree and the delta each of them applies.
                base = shred_document(tree, dtd).database
                delta = DocumentMutator(tree, dtd).apply_script(case.mutations)
            outcome.expected = frozenset(
                node.node_id for node in evaluate_xpath(tree, query)
            )
            shared = shred_document(tree, dtd).database
        except Exception:
            outcome.setup_error = traceback.format_exc(limit=3).strip()
            return outcome

        def shared_backend(config: EngineConfig) -> Backend:
            return create_backend(config, shared)

        def delta_backend(config: EngineConfig) -> Backend:
            backend = create_backend(config, base)
            if not delta.is_empty():
                backend.apply_delta(delta)
            return backend

        arms: Tuple[Tuple[str, Callable[[EngineConfig], Backend]], ...] = (
            (("", shared_backend),)
            if delta is None
            else (("", delta_backend), (SCRATCH_SUFFIX, shared_backend))
        )
        backends: Dict[Tuple[str, str], Backend] = {}
        # Engines whose configs share a translation signature run the very
        # same program (e.g. memory/opt and sqlite/opt), so translate each
        # point once.
        programs: Dict[Tuple[object, ...], Program] = {}
        try:
            for config in self._engines:
                for suffix, make_backend in arms:
                    name = engine_name(config) + suffix
                    timer = obs.Timer()
                    try:
                        with timer:
                            key = (suffix, config.backend)
                            backend = backends.get(key)
                            if backend is None:
                                backend = backends[key] = make_backend(config)
                            signature = config.translation_signature()
                            program = programs.get(signature)
                            if program is None:
                                translator = XPathToSQLTranslator(dtd, config=config)
                                program = translator.translate(query).program
                                programs[signature] = program
                            result = backend.execute(program)
                            actual = frozenset(result.node_ids())
                    except Exception:
                        outcome.engine_seconds[name] = timer.seconds
                        outcome.disagreements.append(
                            EngineDisagreement(
                                engine=name, error=traceback.format_exc(limit=3).strip()
                            )
                        )
                        continue
                    outcome.engine_seconds[name] = timer.seconds
                    outcome.engine_results[name] = actual
                    if actual != outcome.expected:
                        outcome.disagreements.append(
                            EngineDisagreement(
                                engine=name,
                                missing=tuple(sorted(outcome.expected - actual)),
                                extra=tuple(sorted(actual - outcome.expected)),
                            )
                        )
        finally:
            for backend in backends.values():
                backend.close()
        return outcome
