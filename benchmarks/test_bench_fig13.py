"""Benchmark: Fig. 13 (Exp-2) — pushing selections into the LFP operator.

Each of the two selective queries (Qe: selection at the start of the path,
Qf: selection at the end) is lowered twice: with the Sect. 5.2 push-selection
rewrite and without it.  The expectation from the paper: the pushed variant
is consistently faster, with the gap widening for the query whose selection
anchors the recursion (Qe).
"""

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.relational.executor import Executor
from repro.workloads.queries import SELECTIVE_QUERIES

VARIANTS = {
    "push": EngineConfig(use_small_seed=True, push_selections=True),
    "no-push": EngineConfig(use_small_seed=True, push_selections=False),
}


@pytest.mark.parametrize("query_name", sorted(SELECTIVE_QUERIES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fig13_push_selection(benchmark, cross_dataset, query_name, variant):
    dtd, tree, shredded = cross_dataset
    label = "b" if query_name == "Qe" else "d"
    query = SELECTIVE_QUERIES[query_name].format(value=f"{label}-0")
    translator = XPathToSQLTranslator(dtd, config=VARIANTS[variant])
    program = translator.translate(query).program

    def run():
        return Executor(shredded.database).run(program)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    selected = sum(1 for n in tree.nodes_with_label(label) if n.value == f"{label}-0")
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["selected_elements"] = selected
    benchmark.extra_info["result_rows"] = len(result)
