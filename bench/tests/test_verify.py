from dataclasses import replace

import pytest

from repro.live.mutations import DocumentMutator, mutation_from_dict
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from bench.client import Record, answer_digest
from bench.verify import verify
from bench.workloads import build


@pytest.fixture(scope="module")
def live():
    """live-mixed with ten updates and every version's answers."""
    workload = build("live-mixed", 1)
    workload.stream.extend(80)
    tree = workload.document.generate(workload.dtd)
    mutator = DocumentMutator(tree, workload.dtd)

    def answers():
        return {
            query: answer_digest([n.node_id for n in evaluate_xpath(tree, parse_xpath(query))])
            for query in workload.queries
        }

    by_version = [answers()]
    for request in workload.stream.requests:
        if request.kind == "update":
            mutator.apply_script([mutation_from_dict(m) for m in request.script])
            by_version.append(answers())
    return workload, by_version


def _records(workload, by_version):
    records, version = [], 0
    for index, request in enumerate(workload.stream.requests):
        if request.kind == "update":
            version = request.version
            continue
        records.append(Record(index, "read", 0.001, 200, version,
                              answer=by_version[version][request.query]))
    return records


def test_correct_answers_pass(live):
    workload, by_version = live
    records = _records(workload, by_version)
    assert records[-1].version == 9
    assert verify(workload, records) == []


def test_tampered_answer_is_caught(live):
    workload, by_version = live
    records = _records(workload, by_version)
    count, digest = records[4].answer
    records[4] = replace(records[4], answer=(count, digest + 1))
    assert len(verify(workload, records)) == 1


def test_answer_from_a_stale_version_is_caught(live):
    workload, by_version = live
    requests = workload.stream.requests
    records = _records(workload, by_version)
    # A read that carries the answer of an earlier version of the document.
    position, record, old = next(
        (position, record, by_version[earlier][requests[record.index].query])
        for position, record in enumerate(records)
        for earlier in range(record.version)
        if by_version[earlier][requests[record.index].query] != record.answer
    )
    records[position] = replace(record, answer=old)
    mismatches = verify(workload, records)
    assert len(mismatches) == 1 and f"request {record.index} " in mismatches[0]
