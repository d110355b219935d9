"""The paper's contribution: XPath-to-SQL translation over recursive DTDs.

Modules
-------
``tarjan``
    Algorithm **CycleE** (Fig. 6): Tarjan's path-expression dynamic program
    producing plain regular expressions — the exponential baseline "E".
``cycleex``
    Algorithm **CycleEX** (Fig. 7): the same dynamic program over extended
    XPath *variables*, producing ``rec(A, B)`` equation systems of
    polynomial size — the paper's contribution for the descendant axis.
``xpath_to_expath``
    Algorithm **XPathToEXp** (Fig. 8) with qualifier rewriting **RewQual**
    (Fig. 9): XPath over a (recursive) DTD to extended XPath.
``expath_to_sql``
    Algorithm **EXpToSQL** (Fig. 10): extended XPath to a sequence of
    relational-algebra/SQL queries with the simple LFP operator.
``sqlgen_r``
    The **SQLGen-R** baseline (Krishnamurthy et al., Sect. 3.1): descendant
    axes handled with the SQL'99 multi-relation recursive union.
``optimize``
    Sect. 5.2 optimisations: pushing selections into the LFP operator and
    seeding ``(E)*`` with small relations instead of ``R_id``.
``pipeline``
    The end-to-end translator of Fig. 5, with its plan cache.
"""

from repro._support import lazy_exports

__all__ = [
    "CycleE",
    "cycle_expression",
    "CycleEXIndex",
    "rec_query",
    "XPathToExtended",
    "xpath_to_extended",
    "DescendantStrategy",
    "ExtendedToSQL",
    "TranslationOptions",
    "extended_to_sql",
    "SQLGenR",
    "XPathToSQLTranslator",
    "TranslationResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.tarjan": ("CycleE", "cycle_expression"),
        "repro.core.cycleex": ("CycleEXIndex", "rec_query"),
        "repro.core.xpath_to_expath": (
            "DescendantStrategy",
            "XPathToExtended",
            "xpath_to_extended",
        ),
        "repro.core.expath_to_sql": (
            "ExtendedToSQL",
            "TranslationOptions",
            "extended_to_sql",
        ),
        "repro.core.sqlgen_r": ("SQLGenR",),
        "repro.core.pipeline": (
            "TranslationResult",
            "XPathToSQLTranslator",
        ),
    },
)
