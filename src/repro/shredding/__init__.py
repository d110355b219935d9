"""DTD-based shredding of XML documents into relations (Sect. 2.3).

Two mappings are provided:

* :class:`~repro.shredding.inlining.SimpleMapping` — the paper's simplified
  mapping used by the translation algorithms: one relation ``R_A(F, T, V)``
  per element type, where each row is an edge from a parent node to an
  ``A``-node carrying that node's text value.
* :func:`~repro.shredding.inlining.shared_inlining` — the shared-inlining
  partitioning of Shanmugasundaram et al. (VLDB 1999): subgraphs with no
  ``*``-edges, one relation per subgraph, parentId/parentCode attributes.

:func:`~repro.shredding.shredder.shred_document` materialises the data
mapping ``tau_d`` for the simple mapping;
:func:`~repro.shredding.shredder.shred_inlined` does so for shared inlining.
"""

from repro._support import lazy_exports

__all__ = [
    "ROOT_PARENT",
    "MISSING_VALUE",
    "SimpleMapping",
    "InliningPartition",
    "InlinedRelation",
    "shared_inlining",
    "ShreddedDocument",
    "shred_document",
    "shred_inlined",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.shredding.inlining": (
            "ROOT_PARENT",
            "MISSING_VALUE",
            "InlinedRelation",
            "InliningPartition",
            "SimpleMapping",
            "shared_inlining",
        ),
        "repro.shredding.shredder": (
            "ShreddedDocument",
            "shred_document",
            "shred_inlined",
        ),
    },
)
