"""Mutation fuzzing: script generation, the oracle's two arms, the sweep."""

import random
from unittest import mock

import pytest

from repro.api.config import EngineConfig
from repro.backends.memory import MemoryBackend
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.fuzz.cases import DocumentSpec, FuzzCase
from repro.fuzz.harness import FuzzConfig, run_fuzz
from repro.fuzz.oracle import SCRATCH_SUFFIX, DifferentialOracle, default_engines, engine_name
from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
from repro.live.mutations import DocumentMutator
from repro.xmltree.generator import generate_document
from repro.xmltree.validator import conforms
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())


class TestRandomMutationGenerator:
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_scripts_are_schema_valid_on_every_sample_dtd(self, dtd_name):
        dtd = samples.paper_dtds()[dtd_name]
        tree = generate_document(dtd, x_l=7, x_r=3, seed=23, max_elements=150)
        generator = RandomMutationGenerator(dtd, random.Random(5))
        for _ in range(3):
            script = generator.script(tree)
            # The script must apply cleanly (DocumentMutator re-validates
            # every step) and leave a conforming document behind.
            DocumentMutator(tree, dtd).apply_script(script)
            assert conforms(tree, dtd), dtd_name

    def test_scripts_are_deterministic_under_a_seed(self):
        dtd = samples.paper_dtds()["dept"]
        tree = generate_document(dtd, x_l=7, x_r=3, seed=23, max_elements=150)
        one = RandomMutationGenerator(dtd, random.Random(9)).script(tree)
        two = RandomMutationGenerator(dtd, random.Random(9)).script(tree)
        assert one == two

    def test_script_length_respects_config(self):
        dtd = samples.paper_dtds()["dept"]
        tree = generate_document(dtd, x_l=7, x_r=3, seed=23, max_elements=150)
        config = MutationGenConfig(mutations=2)
        script = RandomMutationGenerator(dtd, random.Random(1), config).script(tree)
        assert len(script) <= 2

    def test_generation_does_not_mutate_the_input_tree(self):
        dtd = samples.paper_dtds()["dept"]
        tree = generate_document(dtd, x_l=7, x_r=3, seed=23, max_elements=150)
        before = tree.size()
        RandomMutationGenerator(dtd, random.Random(2)).script(tree)
        assert tree.size() == before


def _dept_mutation_case() -> FuzzCase:
    """dept//project on a small dept document, plus a script that deletes
    one of its projects (so the script changes the answer)."""
    dtd = samples.paper_dtds()["dept"]
    document = DocumentSpec(max_elements=120, seed=3)
    script = RandomMutationGenerator(dtd, random.Random(11)).script(
        document.generate(dtd)
    )
    assert script, "probe document too constrained to mutate"
    return FuzzCase(
        label="oracle-probe",
        dtd_text=dtd.to_text(),
        query="dept//project",
        document=document,
        mutations=tuple(script),
    )


class TestMutationArms:
    def test_delta_and_scratch_arms_agree_on_a_paper_case(self):
        outcome = DifferentialOracle().run(_dept_mutation_case())
        assert outcome.setup_error is None
        assert outcome.ok, [d.engine for d in outcome.disagreements]
        # Every engine answered twice: once per arm.
        names = [engine_name(engine) for engine in default_engines()]
        assert list(outcome.engine_results) == [
            name + suffix for name in names for suffix in ("", SCRATCH_SUFFIX)
        ]

    def test_mutation_script_changes_the_answer_set(self):
        """The oracle compares post-mutation answers, not the base document."""
        case = _dept_mutation_case()
        outcome = DifferentialOracle([EngineConfig()]).run(case)
        query = parse_xpath(case.query)
        base = {n.node_id for n in evaluate_xpath(case.tree(), query)}
        mutated = {n.node_id for n in evaluate_xpath(case.mutated_tree(), query)}
        assert base != mutated
        assert outcome.expected == mutated

    def test_a_delta_that_is_not_applied_is_caught(self):
        """With MemoryBackend.apply_delta a no-op, only the memory delta arms
        still see the base document; SQLite and every @scratch arm agree."""
        # Both SQL emissions and the level-0 sentinel.
        engines = default_engines(strategies=[DescendantStrategy.CYCLEEX])
        with mock.patch.object(MemoryBackend, "apply_delta", lambda self, delta: None):
            outcome = DifferentialOracle(engines).run(_dept_mutation_case())
        failing = {d.engine for d in outcome.disagreements}
        memory_delta = {
            engine_name(engine) for engine in engines if engine.backend == "memory"
        }
        assert failing == memory_delta
        assert all(d.extra and not d.missing for d in outcome.disagreements)


class TestMutationFuzzSweep:
    def test_fixed_seed_sweep_is_clean_and_reproducible(self):
        config = FuzzConfig(seed=17, budget=4, mutations_per_case=4)
        cases = []
        report = run_fuzz(config, on_case=lambda outcome: cases.append(outcome.case))
        again = run_fuzz(config)
        assert report.cases_run == 4
        assert not report.failures
        assert again.describe().splitlines()[:-1] == report.describe().splitlines()[:-1]
        assert all(case.label.startswith("mutfuzz-17-") for case in cases)
        assert any(case.mutations for case in cases)
        assert all(len(case.mutations) <= 4 for case in cases)

    def test_failures_saved_to_corpus_dir(self, tmp_path):
        # A clean sweep writes nothing; the corpus dir stays empty.
        config = FuzzConfig(
            seed=17, budget=2, mutations_per_case=4, corpus_dir=str(tmp_path)
        )
        report = run_fuzz(config)
        assert not report.failures
        assert list(tmp_path.glob("*.json")) == []

    def test_failing_mutation_case_is_saved_unshrunk(self, tmp_path):
        with mock.patch.object(MemoryBackend, "apply_delta", lambda self, delta: None):
            report = run_fuzz(
                FuzzConfig(
                    seed=17, budget=4, mutations_per_case=4, corpus_dir=str(tmp_path)
                ),
                engines=[engine for engine in default_engines() if engine.backend == "memory"],
            )
        assert report.failures
        for failure in report.failures:
            assert failure.shrunk is failure.original
            assert [path.rsplit("/", 1)[-1] for path in failure.saved_paths] == [
                f"{failure.original.label}.json"
            ]
        saved = FuzzCase.load(tmp_path / f"{report.failures[0].original.label}.json")
        assert saved.mutations == report.failures[0].original.mutations

    def test_negative_script_length_is_rejected(self):
        with pytest.raises(ValueError, match="mutations_per_case"):
            run_fuzz(FuzzConfig(budget=1, mutations_per_case=-1))
