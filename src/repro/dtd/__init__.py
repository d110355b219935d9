"""DTD model, parsing, graph analysis, and the paper's example DTDs.

A DTD is represented (Sect. 2.1 of the paper) as an extended context-free
grammar ``(Ele, Rg, r)``: a set of element types, a regular expression
content model for each type, and a distinguished root type.  The module also
provides the *DTD graph* abstraction used throughout the translation
algorithms, where nodes are element types and an edge ``A -> B`` exists when
``B`` occurs in the production of ``A``.
"""

from repro._support import lazy_exports

__all__ = [
    "DTD",
    "ContentModel",
    "Empty",
    "TypeRef",
    "Sequence",
    "Choice",
    "Star",
    "Plus",
    "Optional",
    "empty",
    "ref",
    "seq",
    "choice",
    "star",
    "plus",
    "opt",
    "DTDGraph",
    "parse_dtd",
    "samples",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dtd.model": (
            "DTD",
            "Choice",
            "ContentModel",
            "Empty",
            "Optional",
            "Plus",
            "Sequence",
            "Star",
            "TypeRef",
            "choice",
            "empty",
            "opt",
            "plus",
            "ref",
            "seq",
            "star",
        ),
        "repro.dtd.graph": ("DTDGraph",),
        "repro.dtd.parser": ("parse_dtd",),
        "repro.dtd.samples": ("samples",),
    },
)
