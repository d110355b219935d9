"""The XPath fragment of the paper (Sect. 2.2): AST, parser and evaluator.

The fragment supports the child axis, the descendant-or-self axis ``//``,
wildcards, union, and qualifiers built from paths, ``text() = c``, negation,
conjunction and disjunction.  The evaluator computes the paper's semantics
directly over :class:`~repro.xmltree.tree.XMLTree` documents and serves as
the correctness oracle for the SQL translation.
"""

from repro._support import lazy_exports

__all__ = [
    "Path",
    "EmptyPath",
    "EmptySet",
    "Label",
    "Wildcard",
    "Slash",
    "Descendant",
    "Union",
    "Qualified",
    "Qualifier",
    "PathQual",
    "TextEquals",
    "Not",
    "And",
    "Or",
    "parse_xpath",
    "XPathEvaluator",
    "evaluate_xpath",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.xpath.ast": (
            "And",
            "Descendant",
            "EmptyPath",
            "EmptySet",
            "Label",
            "Not",
            "Or",
            "Path",
            "PathQual",
            "Qualified",
            "Qualifier",
            "Slash",
            "TextEquals",
            "Union",
            "Wildcard",
        ),
        "repro.xpath.parser": ("parse_xpath",),
        "repro.xpath.evaluator": ("XPathEvaluator", "evaluate_xpath"),
    },
)
