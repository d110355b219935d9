"""Mutation equivalence: the paper invariant survives live updates.

The Issue 10 property: for every schema-valid mutation script M over a
document T, answering Q on the incrementally-maintained relational store
(shred T, then apply M's :class:`~repro.live.delta.ShredDelta` through
``Backend.apply_delta``) equals answering Q over a from-scratch reshred of
M(T) — and both equal the XPath evaluator on M(T).  Checked across all 8
sample DTDs, the memory and sqlite backends, and the reference tuple
executor run directly over the delta-patched database, at optimize levels
0 and 2.
"""

from __future__ import annotations

import random

import pytest

from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.live.delta import apply_delta_to_database
from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
from repro.live.mutations import DocumentMutator
from repro.relational.executor import Executor
from repro.relational.schema import T
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())
OPTIMIZE_LEVELS = (0, 2)

BACKEND_CONFIGS = {
    "memory/columnar": EngineConfig(backend="memory"),
    "sqlite": EngineConfig(backend="sqlite"),
}


@pytest.fixture(scope="module")
def mutated_documents():
    """Per DTD: the base tree, the mutated tree and the merged delta."""
    cases = {}
    for name, dtd in samples.paper_dtds().items():
        base = generate_document(
            dtd, x_l=7, x_r=3, seed=43, max_elements=220, distinct_values=4
        )
        generator = RandomMutationGenerator(
            dtd, random.Random(29), MutationGenConfig(mutations=6)
        )
        script = generator.script(base)
        mutated = base.copy()
        delta = DocumentMutator(mutated, dtd).apply_script(script)
        cases[name] = (dtd, base, mutated, script, delta)
    return cases


@pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
@pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
def test_delta_arm_matches_scratch_arm_and_evaluator(
    mutated_documents, dtd_name, level
):
    dtd, base, mutated, script, delta = mutated_documents[dtd_name]
    assert script, f"no valid script generated for {dtd_name}"
    queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=47)).queries(4)
    translator = XPathToSQLTranslator(dtd, config=EngineConfig(optimize_level=level))

    backends = {}
    for label, config in BACKEND_CONFIGS.items():
        delta_backend = create_backend(
            config, shred_document(base.copy(), dtd).database
        )
        delta_backend.apply_delta(delta)
        scratch_backend = create_backend(
            config, shred_document(mutated.copy(), dtd).database
        )
        backends[label] = delta_backend
        backends[f"{label}@scratch"] = scratch_backend
    patched = shred_document(base.copy(), dtd).database
    apply_delta_to_database(patched, delta)
    tuple_executors = {
        "memory/tuple": Executor(patched),
        "memory/tuple@scratch": Executor(shred_document(mutated.copy(), dtd).database),
    }

    try:
        for query_text in queries:
            query = parse_xpath(query_text)
            expected = {
                int(n.node_id) for n in evaluate_xpath(mutated, query)
            }
            program = translator.translate(query).program
            for label, backend in backends.items():
                ids = {int(i) for i in backend.execute(program).node_ids()}
                assert ids == expected, (dtd_name, label, level, query_text)
            for label, executor in tuple_executors.items():
                ids = {int(i) for i in executor.run(program).column_values(T)}
                assert ids == expected, (dtd_name, label, level, query_text)
    finally:
        for backend in backends.values():
            backend.close()


def test_composed_deltas_equal_one_shot_script(mutated_documents):
    """Applying per-mutation deltas one by one equals the merged script delta."""
    dtd, base, mutated, script, delta = mutated_documents["cross"]
    stepped = base.copy()
    database = shred_document(stepped, dtd).database
    backend = create_backend("memory", database)
    mutator = DocumentMutator(stepped, dtd)
    try:
        for mutation in script:
            backend.apply_delta(mutator.apply(mutation))
        backend.apply_delta(mutator.flush_order())
        scratch = shred_document(mutated, dtd).database
        assert {
            name: frozenset(database.relation(name).rows) for name in database
        } == {name: frozenset(scratch.relation(name).rows) for name in scratch}
    finally:
        backend.close()
