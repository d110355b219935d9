"""Benchmark: ablations of the design choices called out in DESIGN.md.

Three ablations of the CycleEX lowering over the same cross-cycle dataset
and query (Qa = a/b//c/d):

* ``baseline``   — no data-dependent optimisation: the full identity
  relation R_id seeds every ``(E)*`` (Fig. 10 as written);
* ``small-seed`` — the Sect. 5.2 "Handling (E)*" optimisation only;
* ``push``       — small seeds plus selections/prefix joins pushed into the
  LFP operator.

A fourth benchmark measures the effect of qualifier folding in RewQual by
translating a query whose qualifier the DTD structure decides statically.
"""

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.relational.executor import Executor

VARIANTS = {
    "baseline": EngineConfig(use_small_seed=False, push_selections=False),
    "small-seed": EngineConfig(use_small_seed=True, push_selections=False),
    "push": EngineConfig(use_small_seed=True, push_selections=True),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ablation_lfp_seeding_and_push(benchmark, cross_dataset, variant):
    dtd, tree, shredded = cross_dataset
    translator = XPathToSQLTranslator(dtd, config=VARIANTS[variant])
    program = translator.translate("a/b//c/d").program

    def run():
        return Executor(shredded.database).run(program)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["result_rows"] = len(result)
    benchmark.extra_info["lfps"] = program.operator_profile().lfps


@pytest.mark.parametrize("folding", ["with-dtd-folding", "without-folding-effect"])
def test_ablation_qualifier_folding(benchmark, cross_dataset, folding):
    """RewQual folds [not b/a] to true over the cross DTD (b never has an a child).

    The folded query collapses to plain a//d; the unfoldable control query
    keeps a real qualifier.  Comparing the two shows what the structural
    pruning of Sect. 4.2 saves.
    """
    dtd, tree, shredded = cross_dataset
    query = "a//d[not b/a]" if folding == "with-dtd-folding" else "a//d[not c]"
    translator = XPathToSQLTranslator(dtd)
    program = translator.translate(query).program

    def run():
        return Executor(shredded.database).run(program)

    benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    benchmark.extra_info["query"] = query
    benchmark.extra_info["joins"] = program.operator_profile().joins
