"""In-memory XML trees, a DTD-driven synthetic generator and a validator.

The paper evaluates queries over XML documents conforming to (recursive)
DTDs.  This package supplies that substrate: an ordered labelled tree with
stable node identifiers (:class:`~repro.xmltree.tree.XMLTree`), a seeded
generator reproducing the IBM AlphaWorks XML Generator's ``X_L`` (maximum
levels) and ``X_R`` (maximum repetition) shape parameters
(:class:`~repro.xmltree.generator.XMLGenerator`), and a Glushkov-automaton
validator checking DTD conformance (:func:`~repro.xmltree.validator.validate`).
"""

from repro._support import lazy_exports

__all__ = [
    "XMLNode",
    "XMLTree",
    "build_tree",
    "XMLGenerator",
    "GeneratorConfig",
    "generate_document",
    "validate",
    "conforms",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.xmltree.tree": ("XMLNode", "XMLTree", "build_tree"),
        "repro.xmltree.generator": (
            "GeneratorConfig",
            "XMLGenerator",
            "generate_document",
        ),
        "repro.xmltree.validator": ("validate", "conforms"),
    },
)
