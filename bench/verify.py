"""Answer verification against the XPath reference evaluator.

Every read's node ids are checked against
:func:`repro.xpath.evaluator.evaluate_xpath` run on the bench's own copy of
the document, regenerated from the same :class:`DocumentSpec`.  For
live-mixed, the copy is replayed through :class:`DocumentMutator` to the
version each read observed, so an answer computed on a stale (or future)
version is a mismatch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.live.mutations import DocumentMutator, mutation_from_dict
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from bench.client import Record, answer_digest
from bench.workloads import Request, Workload

__all__ = ["verify"]


def verify(workload: Workload, records: Sequence[Record]) -> List[str]:
    """Describe every read whose answer differs from the evaluator's."""
    requests: List[Request] = workload.stream.requests
    scripts = {r.version: r.script for r in requests if r.kind == "update"}
    by_version: Dict[int, List[Record]] = defaultdict(list)
    for record in records:
        if record.kind == "read" and record.answer is not None:
            by_version[record.version].append(record)
    tree = workload.document.generate(workload.dtd)
    mutator = DocumentMutator(tree, workload.dtd)
    version = 0
    mismatches: List[str] = []
    for observed in sorted(by_version):
        while version < observed:
            version += 1
            mutator.apply_script([mutation_from_dict(m) for m in scripts[version]])
        expected: Dict[str, Tuple[int, int]] = {}
        for record in by_version[observed]:
            query = requests[record.index].query
            if query not in expected:
                nodes = evaluate_xpath(tree, parse_xpath(query))
                expected[query] = answer_digest([node.node_id for node in nodes])
            if record.answer != expected[query]:
                mismatches.append(
                    f"{workload.name} request {record.index} at version {observed}: "
                    f"{query!r} returned {record.answer[0]} nodes, "
                    f"expected {expected[query][0]} (or different ids)"
                )
    return mismatches
