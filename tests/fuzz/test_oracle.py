"""The differential oracle, the harness and the auto-shrinker.

The headline check is the acceptance scenario: with a deliberately injected
sqlgen bug (the SQLite result SELECT silently truncated), the harness must
*catch* the disagreement and *shrink* it to a minimal (DTD, query, doc)
repro that still fails.
"""

import random
from dataclasses import replace
from unittest import mock

import pytest

import repro.backends.sqlite as sqlite_backend
from repro.api.config import EngineConfig
from repro.dtd import samples
from repro.fuzz.cases import DocumentSpec, FuzzCase
from repro.fuzz.harness import FuzzConfig, replay_corpus, run_fuzz
from repro.fuzz.oracle import DifferentialOracle, default_engines, engine_name
from repro.fuzz.shrink import path_reductions, shrink_case
from repro.live.fuzzer import RandomMutationGenerator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.xpath.ast import path_size
from repro.xpath.parser import parse_xpath


def _cross_case(query: str = "a//d", seed: int = 3) -> FuzzCase:
    return FuzzCase(
        label="cross-case",
        dtd_text=samples.cross_dtd().to_text(),
        query=query,
        document=DocumentSpec(seed=seed, max_elements=150),
    )


class TestEngineGrid:
    def test_default_grid_covers_all_strategies_and_both_settings(self):
        engines = default_engines()
        names = {engine_name(engine) for engine in engines}
        for strategy in DescendantStrategy:
            assert f"memory/{strategy.value}/baseline" in names
            assert f"memory/{strategy.value}/opt" in names
            assert f"sqlite/{strategy.value}/opt" in names

    def test_grid_is_filterable(self):
        engines = default_engines(backends=["memory"], strategies=[DescendantStrategy.CYCLEEX])
        assert [engine_name(engine) for engine in engines] == [
            "memory/cycleex/baseline",
            "memory/cycleex/opt",
            # The raw-lowering sentinel: optimizer level pinned to 0 so every
            # sweep differentially checks the optimizer passes themselves.
            "memory/cycleex/opt/O0",
        ]

    def test_grid_can_pin_the_optimizer_level(self):
        engines = default_engines(
            backends=["memory"],
            strategies=[DescendantStrategy.CYCLEEX],
            optimize_level=0,
        )
        assert [engine_name(engine) for engine in engines] == [
            "memory/cycleex/baseline/O0",
            "memory/cycleex/opt/O0",
        ]

    def test_engine_names_are_unique(self):
        # Outcomes key each engine's answer by its name.
        names = [engine_name(engine) for engine in default_engines()]
        assert len(names) == len(set(names)) == 21

    def test_memory_engines_have_no_executor_axis(self):
        # The memory backend runs every plan on the columnar executor, so
        # the grid has no per-executor arms.
        names = [engine_name(engine) for engine in default_engines()]
        assert not any(name.endswith("/tuple") for name in names)


class TestOracle:
    def test_clean_case_agrees_everywhere(self):
        outcome = DifferentialOracle().run(_cross_case())
        assert outcome.ok
        assert outcome.expected  # the seeded document has a//d matches
        assert len(outcome.engine_results) == len(default_engines())
        assert all(ids == outcome.expected for ids in outcome.engine_results.values())

    def test_setup_error_is_a_failure(self):
        broken = FuzzCase("broken", "root r\nr -> EMPTY\n", "r[[[")
        outcome = DifferentialOracle().run(broken)
        assert not outcome.ok
        assert outcome.setup_error is not None

    def test_injected_bug_is_caught(self, injected_sqlite_bug):
        outcome = DifferentialOracle().run(_cross_case())
        assert not outcome.ok
        assert all(d.engine.startswith("sqlite/") for d in outcome.disagreements)
        assert outcome.disagreements[0].missing  # rows silently dropped

    def test_engine_crash_reported_not_raised(self):
        def exploding(program, dialect):
            raise RuntimeError("rendered garbage")

        with mock.patch.object(sqlite_backend, "program_statements", exploding):
            outcome = DifferentialOracle().run(_cross_case())
        assert not outcome.ok
        assert any(d.error and "rendered garbage" in d.error for d in outcome.disagreements)


class TestShrinking:
    def test_path_reductions_are_strictly_smaller(self):
        path = parse_xpath('a/b[not(c//d and text() = "b-1")]//c | a//d')
        size = path_size(path)
        reduced = list(path_reductions(path))
        assert reduced
        assert all(path_size(candidate) < size for candidate in reduced)

    def test_shrunk_repro_is_minimal_and_still_failing(self, injected_sqlite_bug):
        oracle = DifferentialOracle()
        original = _cross_case(query="a/b[c]//c/d | a//b")
        assert not oracle.run(original).ok

        def failing(case):
            return not oracle.run(case).ok

        shrunk = shrink_case(original, failing)
        assert failing(shrunk)  # still a repro
        # Strictly simpler on every axis the shrinker touches.
        assert path_size(parse_xpath(shrunk.query)) <= path_size(parse_xpath(original.query))
        assert shrunk.document.max_elements < original.document.max_elements
        # Locally minimal: no single further reduction still fails.
        from repro.fuzz.shrink import _candidates

        assert all(not failing(candidate) for candidate in _candidates(shrunk))


class TestHarness:
    def test_clean_sweep_has_no_disagreements(self):
        report = run_fuzz(FuzzConfig(seed=42, budget=15))
        assert report.ok
        assert report.cases_run == 15
        assert "disagreements=0" in report.describe()

    def test_sweep_is_deterministic(self):
        first = run_fuzz(FuzzConfig(seed=7, budget=8))
        second = run_fuzz(FuzzConfig(seed=7, budget=8))
        assert first.describe().splitlines()[:-1] == second.describe().splitlines()[:-1]

    def test_injected_bug_caught_and_corpus_written(self, injected_sqlite_bug, tmp_path):
        corpus = tmp_path / "failures"
        report = run_fuzz(
            FuzzConfig(seed=42, budget=10, corpus_dir=str(corpus)),
        )
        assert not report.ok
        saved = sorted(corpus.glob("*.json"))
        assert saved  # originals and shrunk repros were persisted
        assert any(path.name.endswith("-shrunk.json") for path in saved)
        for failure in report.failures:
            assert not failure.outcome.ok
            assert failure.saved_paths

    def test_replay_corpus_roundtrip(self, tmp_path):
        case = _cross_case()
        case.save(tmp_path / "one.json")
        outcomes = replay_corpus(tmp_path)
        assert len(outcomes) == 1 and outcomes[0].ok
        with pytest.raises(FileNotFoundError):
            replay_corpus(tmp_path / "empty-dir-that-does-not-exist.json")

    def test_replay_runs_each_case_the_way_its_format_says(self, tmp_path):
        # A read-only case and a mutation case in one directory: both replay
        # clean, the mutation case on its delta and @scratch arms.
        dtd = samples.dept_dtd()
        document = DocumentSpec(max_elements=120, seed=3)
        read_only = FuzzCase("a-read-only", dtd.to_text(), "dept//project", document)
        script = RandomMutationGenerator(dtd, random.Random(11)).script(
            read_only.tree()
        )
        mutation = replace(read_only, label="b-mutation", mutations=script)
        read_only.save(tmp_path / "a.json")
        mutation.save(tmp_path / "b.json")
        engines = [EngineConfig(backend=backend) for backend in ("memory", "sqlite")]
        outcomes = replay_corpus(tmp_path, engines)
        assert [outcome.case.label for outcome in outcomes] == ["a-read-only", "b-mutation"]
        assert all(outcome.ok for outcome in outcomes), [o.describe() for o in outcomes]
        assert len(outcomes[0].engine_results) == len(engines)
        assert len(outcomes[1].engine_results) == 2 * len(engines)
        assert outcomes[0].expected != outcomes[1].expected

    def test_memory_only_engine_grid(self):
        engines = default_engines(backends=["memory"])
        report = run_fuzz(FuzzConfig(seed=3, budget=6), engines)
        assert report.ok
        assert all(name.startswith("memory/") for name in report.engines)
