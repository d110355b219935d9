"""Benchmark: execution backends — in-memory engine vs. real SQLite.

One benchmark per (query, backend) pair over the shared cross-cycle
dataset, all under the paper's CycleEX translation.  The interesting
quantity is the ratio: SQLite pays real I/O and SQL parsing but gets a
production join engine; the in-memory engine pays Python interpretation.
Each run also asserts the two backends return identical answer sets, so
the benchmark doubles as a large-document differential check.
"""

import pytest

from repro.backends import create_backend
from repro.experiments.harness import default_approaches
from repro.workloads.queries import CROSS_QUERIES

APPROACH = default_approaches()[-1]  # X (CycleEX)


@pytest.fixture(scope="module")
def cross_programs(cross_dataset):
    dtd, _, _ = cross_dataset
    translator = APPROACH.translator(dtd)
    return {
        name: translator.translate(query).program
        for name, query in CROSS_QUERIES.items()
    }


@pytest.mark.parametrize("query_name", sorted(CROSS_QUERIES))
@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
def test_backend_query_evaluation(
    benchmark, cross_dataset, cross_programs, query_name, backend_name
):
    _, tree, shredded = cross_dataset
    program = cross_programs[query_name]
    backend = create_backend(backend_name, shredded.database)
    try:
        result = benchmark.pedantic(
            lambda: backend.execute(program), rounds=2, iterations=1, warmup_rounds=0
        )
    finally:
        backend.close()
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["document_elements"] = tree.size()
    benchmark.extra_info["result_rows"] = len(result.node_ids())


@pytest.mark.parametrize("query_name", sorted(CROSS_QUERIES))
def test_backends_agree_on_benchmark_dataset(cross_dataset, cross_programs, query_name):
    _, _, shredded = cross_dataset
    program = cross_programs[query_name]
    memory = create_backend("memory", shredded.database)
    sqlite = create_backend("sqlite", shredded.database)
    try:
        assert memory.execute(program).node_ids() == sqlite.execute(program).node_ids()
    finally:
        sqlite.close()


def test_sqlite_load_time(benchmark, cross_dataset):
    """One-time document load cost (DDL + bulk insert), reported separately."""
    _, _, shredded = cross_dataset

    def load():
        create_backend("sqlite", shredded.database).close()

    benchmark.pedantic(load, rounds=2, iterations=1, warmup_rounds=0)
