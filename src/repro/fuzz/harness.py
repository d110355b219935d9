"""The fuzzing loop: generate cases, run the oracle, shrink and save failures.

:func:`run_fuzz` is the engine behind ``repro fuzz``: from one master seed
it derives a deterministic stream of (DTD, query, document) cases, answers
each on every engine of the :class:`~repro.fuzz.oracle.DifferentialOracle`,
auto-shrinks any disagreement to a minimal repro and (optionally) writes
both the original and the shrunk case into a JSON corpus directory.  With
``FuzzConfig.mutations_per_case`` above 0 every case also carries a random
valid mutation script, which the oracle checks on its delta and scratch
arms.  Replaying a corpus (``repro fuzz --replay``, or the checked-in
regression corpus under ``tests/fuzz/corpus/``) re-runs saved cases
through the same oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path as FilePath
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.api.config import EngineConfig
from repro.fuzz.cases import DocumentSpec, FuzzCase
from repro.fuzz.dtd_gen import DTDGenConfig, RandomDTDGenerator
from repro.fuzz.oracle import CaseOutcome, DifferentialOracle, engine_name
from repro.fuzz.shrink import shrink_case
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "run_fuzz", "replay_corpus"]

_SEED_SPACE = 2**32


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing run.

    ``budget`` counts *cases* (query/document pairs); every DTD serves
    ``queries_per_dtd`` cases before a fresh one is generated, so a default
    run sweeps both many schemas and many queries per schema.
    ``mutations_per_case`` above 0 attaches a random valid mutation script
    of that length to every case (0 = read-only cases).  Mutation cases are
    never shrunk: a script names exact node ids of the generated document,
    so a smaller document would invalidate the script instead of
    minimising the repro.
    """

    seed: int = 0
    budget: int = 100
    queries_per_dtd: int = 4
    min_types: int = 3
    max_types: int = 7
    max_cycle_edges: int = 3
    document: DocumentSpec = field(default_factory=DocumentSpec)
    shrink: bool = True
    corpus_dir: Optional[str] = None
    mutations_per_case: int = 0


@dataclass
class FuzzFailure:
    """One disagreement: the original case, its shrunk repro, the verdict."""

    original: FuzzCase
    shrunk: FuzzCase
    outcome: CaseOutcome
    saved_paths: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable failure report (shrunk repro first)."""
        lines = [self.outcome.describe()]
        lines.append(f"  shrunk from: query {self.original.query!r}")
        if self.saved_paths:
            lines.append(f"  saved: {', '.join(self.saved_paths)}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """The result of one :func:`run_fuzz` sweep."""

    seed: int
    cases_run: int
    engines: List[str]
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    # Total wall seconds each engine spent across every case of the sweep —
    # the slow-engine visibility the corpus replays lacked.
    engine_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every case agreed on every engine."""
        return not self.failures

    def describe(self) -> str:
        """Multi-line summary (deterministic apart from the final timing line).

        Everything timing-dependent stays on the *last* line: seed-
        reproducibility checks compare all lines but the final one.
        """
        lines = [
            f"fuzz: seed={self.seed} cases={self.cases_run} "
            f"engines={len(self.engines)} disagreements={len(self.failures)}"
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        slowest = ", ".join(
            f"{name}={seconds:.2f}s"
            for name, seconds in sorted(
                self.engine_seconds.items(), key=lambda item: -item[1]
            )[:3]
        )
        timing = f"elapsed: {self.elapsed_seconds:.2f}s"
        if slowest:
            timing += f" (slowest engines: {slowest})"
        lines.append(timing)
        return "\n".join(lines)


def run_fuzz(
    config: Optional[FuzzConfig] = None,
    engines: Optional[Sequence[EngineConfig]] = None,
    on_case: Optional[Callable[[CaseOutcome], None]] = None,
) -> FuzzReport:
    """Run one seeded differential-fuzzing sweep.

    Parameters
    ----------
    config:
        The run's knobs (defaults to :class:`FuzzConfig`).
    engines:
        Engine grid override; defaults to
        :func:`~repro.fuzz.oracle.default_engines`.
    on_case:
        Optional per-case callback (progress reporting).
    """
    config = config or FuzzConfig()
    if config.queries_per_dtd < 1:
        raise ValueError("queries_per_dtd must be >= 1")
    if config.mutations_per_case < 0:
        raise ValueError("mutations_per_case must be >= 0")
    oracle = DifferentialOracle(engines)
    rng = random.Random(config.seed)
    corpus_dir: Optional[FilePath] = None
    if config.corpus_dir is not None:
        corpus_dir = FilePath(config.corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)

    report = FuzzReport(
        seed=config.seed,
        cases_run=0,
        engines=[engine_name(engine) for engine in oracle.engines],
    )
    sweep_timer = obs.Timer()
    with sweep_timer:
        _fuzz_loop(config, oracle, rng, corpus_dir, report, on_case)
    report.elapsed_seconds = sweep_timer.seconds
    return report


def _fuzz_loop(
    config: FuzzConfig,
    oracle: DifferentialOracle,
    rng: random.Random,
    corpus_dir: Optional[FilePath],
    report: FuzzReport,
    on_case: Optional[Callable[[CaseOutcome], None]],
) -> None:
    """The generate/run/shrink/save loop of :func:`run_fuzz` (timed by it)."""
    mutating = config.mutations_per_case > 0
    prefix = "mutfuzz" if mutating else "fuzz"
    if mutating:
        # Imported on demand: repro.live.fuzzer is not part of the package's
        # import-time footprint.
        from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
    while report.cases_run < config.budget:
        dtd_config = DTDGenConfig(
            seed=rng.randrange(_SEED_SPACE),
            min_types=config.min_types,
            max_types=config.max_types,
            cycle_edges=rng.randint(0, config.max_cycle_edges),
        )
        dtd = RandomDTDGenerator(dtd_config).generate()
        query_generator = RandomXPathGenerator(
            dtd, XPathGenConfig(seed=rng.randrange(_SEED_SPACE))
        )
        for _ in range(config.queries_per_dtd):
            if report.cases_run >= config.budget:
                break
            document = replace(config.document, seed=rng.randrange(_SEED_SPACE))
            script: tuple = ()
            if mutating:
                generator = RandomMutationGenerator(
                    dtd,
                    random.Random(rng.randrange(_SEED_SPACE)),
                    MutationGenConfig(mutations=config.mutations_per_case),
                )
                script = generator.script(document.generate(dtd))
            case = FuzzCase(
                label=f"{prefix}-{config.seed}-{report.cases_run:05d}",
                dtd_text=dtd.to_text(),
                query=query_generator.generate(),
                document=document,
                mutations=script,
            )
            outcome = oracle.run(case)
            report.cases_run += 1
            for name, seconds in outcome.engine_seconds.items():
                report.engine_seconds[name] = report.engine_seconds.get(name, 0.0) + seconds
            if on_case is not None:
                on_case(outcome)
            if outcome.ok:
                continue
            shrunk = case
            final_outcome = outcome
            if config.shrink and not mutating:
                # Shrink against only the engines that disagreed (usually a
                # small subset of the grid), then confirm the shrunk repro
                # on the full grid for the report.
                failing_names = {d.engine for d in outcome.disagreements}
                focused = [e for e in oracle.engines if engine_name(e) in failing_names]
                shrink_oracle = DifferentialOracle(focused) if focused else oracle
                shrunk = shrink_case(case, lambda c: not shrink_oracle.run(c).ok)
                if shrunk is not case:
                    final_outcome = oracle.run(shrunk)
            failure = FuzzFailure(original=case, shrunk=shrunk, outcome=final_outcome)
            if corpus_dir is not None:
                for suffix, saved_case, saved_outcome in (
                    ("", case, outcome),
                    ("-shrunk", shrunk, final_outcome),
                ):
                    if suffix and saved_case is case:
                        continue
                    path = corpus_dir / f"{case.label}{suffix}.json"
                    saved_case.save(
                        path,
                        extra={
                            "timing": {
                                "engine_seconds": dict(
                                    sorted(saved_outcome.engine_seconds.items())
                                )
                            }
                        },
                    )
                    failure.saved_paths.append(str(path))
            report.failures.append(failure)


def replay_corpus(
    source: Union[str, FilePath, Sequence[FuzzCase]],
    engines: Optional[Sequence[EngineConfig]] = None,
) -> List[CaseOutcome]:
    """Re-run cases: saved ones (one ``.json`` file or a directory of them,
    in file-name order) or the given :class:`FuzzCase` objects.

    Returns one :class:`CaseOutcome` per case.  Each case's own format
    decides what runs: a case with a mutation script is answered on the
    oracle's delta and scratch arms, a read-only case on one shared shred.
    """
    if isinstance(source, (str, FilePath)):
        root = FilePath(source)
        files = sorted(root.glob("*.json")) if root.is_dir() else [root]
        if not files:
            raise FileNotFoundError(f"no fuzz cases found under {root}")
        cases: Sequence[FuzzCase] = [FuzzCase.load(file) for file in files]
    else:
        cases = source
    oracle = DifferentialOracle(engines)
    return [oracle.run(case) for case in cases]
