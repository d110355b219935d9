"""Helpers shared by the test modules."""

from __future__ import annotations

from typing import Tuple

from repro.backends.memory import MemoryBackend


def rdbms_ids(translator, query, shredded) -> Tuple[int, ...]:
    """Q'(tau_d(T)): the node ids that ``query``'s translation selects.

    Runs the translator's program on the memory backend over the shredded
    document and returns the matched node ids, ascending.  Tests compare
    them with the XPath evaluator's answer on the document itself, which is
    the paper's invariant Q(T) = Q'(tau_d(T)).
    """
    program = translator.translate(query).program
    return MemoryBackend(shredded.database).execute(program).node_ids()


def tree_state(tree):
    """Each node's (id, label, value, parent id) in document order, the id
    index's size and the next free id: what a rolled-back update restores."""
    nodes = [
        (node.node_id, node.label, node.value, None if node.parent is None else node.parent.node_id)
        for node in tree.nodes()
    ]
    return nodes, tree.size(), tree.next_id
