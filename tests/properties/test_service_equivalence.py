"""Property: the service's caches are semantically invisible (Issue 3).

For every sample DTD x both optimisation settings x both backends, a
cached :class:`~repro.service.QueryService` must return node-for-node what
a fresh :class:`~repro.core.pipeline.XPathToSQLTranslator` (new shred, no
caches) returns — on the first call (cold), on a repeat (plan + result
cache hits) and after the cache has evicted and recompiled the plan.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.service import QueryService
from repro.workloads.queries import GEDML_QUERY
from repro.xmltree.generator import generate_document

# One representative query per sample DTD (each exercises recursion where
# the DTD has any).
DTD_CASES = {
    "dept": ("dept//project", samples.dept_dtd),
    "cross": ("a/b//c/d", samples.cross_dtd),
    "bioml-a": ("gene//locus", samples.bioml_subgraph_a),
    "bioml-b": ("gene//locus", samples.bioml_subgraph_b),
    "bioml-c": ("gene//locus", samples.bioml_subgraph_c),
    "bioml-d": ("gene//locus", samples.bioml_subgraph_d),
    "bioml": ("gene//dna", samples.bioml_dtd),
    "gedml": (GEDML_QUERY, samples.gedml_dtd),
}

OPTION_SETTINGS = {
    "standard": EngineConfig(push_selections=False),
    "push-selections": EngineConfig(push_selections=True),
}


def _ids(nodes):
    return [node.node_id for node in nodes]


@pytest.mark.parametrize("options_name", sorted(OPTION_SETTINGS))
@pytest.mark.parametrize("dtd_name", sorted(DTD_CASES))
def test_cached_answers_equal_fresh_translation(dtd_name, options_name):
    query, factory = DTD_CASES[dtd_name]
    config = OPTION_SETTINGS[options_name]
    dtd = factory()
    tree = generate_document(dtd, x_l=7, x_r=3, seed=13, max_elements=250)

    translator = XPathToSQLTranslator(dtd, config=config)
    expected = _ids(translator.answer(query, translator.shred(tree)))

    with QueryService(dtd, config=config) as service:
        service.register_document("doc", tree)
        cold = _ids(service.answer(query))
        warm = _ids(service.answer(query))  # served by the result cache
        results = service.result_cache_info()

    assert cold == expected
    assert warm == expected
    assert results.hits >= 1  # the repeat really was served by the cache


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_cached_answers_equal_fresh_translation_on_both_backends(backend):
    query, factory = DTD_CASES["cross"]
    dtd = factory()
    tree = generate_document(dtd, x_l=7, x_r=3, seed=13, max_elements=250)
    translator = XPathToSQLTranslator(dtd)
    expected = _ids(translator.answer(query, translator.shred(tree)))
    with QueryService(dtd, config=EngineConfig(backend=backend)) as service:
        service.register_document("doc", tree)
        assert _ids(service.answer(query)) == expected
        assert _ids(service.answer(query)) == expected


@pytest.mark.parametrize("dtd_name", ["cross", "gedml"])
def test_answers_survive_eviction_and_recompilation(dtd_name):
    """A plan evicted and recompiled must answer exactly as before."""
    query, factory = DTD_CASES[dtd_name]
    dtd = factory()
    tree = generate_document(dtd, x_l=7, x_r=3, seed=13, max_elements=250)
    translator = XPathToSQLTranslator(dtd)
    expected = _ids(translator.answer(query, translator.shred(tree)))
    fillers = [f"{dtd.root}//{dtd.root}", f"{dtd.root}/*", dtd.root]
    config = EngineConfig(plan_cache_size=1, result_cache_size=1)
    with QueryService(dtd, config=config) as service:
        service.register_document("doc", tree)
        assert _ids(service.answer(query)) == expected
        for filler in fillers:  # evict the plan under test
            service.answer(filler)
        assert _ids(service.answer(query)) == expected
        assert service.cache_info().evictions >= len(fillers)
