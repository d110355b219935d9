"""Extended XPath expressions (Sect. 3.2): variables, Kleene closure, equations.

Extended XPath generalises XPath and regular XPath by supporting variables
and the general Kleene closure ``E*`` instead of ``//``.  A query is a
system of equations ``X_i = E_i`` (each variable defined once, definitions
acyclic) plus a result expression; the use of variables is what keeps the
output of the translation polynomial where plain regular expressions blow up
exponentially.
"""

from repro._support import lazy_exports

__all__ = [
    "Expr",
    "EQualifier",
    "EEmpty",
    "EEmptySet",
    "ELabel",
    "EVar",
    "ESlash",
    "EUnion",
    "EStar",
    "EQualified",
    "EPathQual",
    "ETextEquals",
    "ENot",
    "EAnd",
    "EOr",
    "Equation",
    "ExtendedXPathQuery",
    "ExtendedXPathEvaluator",
    "evaluate_extended",
    "OperatorCounts",
    "count_operators",
    "simplify_expression",
    "simplify_query",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.expath.ast": (
            "EAnd",
            "EEmpty",
            "EEmptySet",
            "ELabel",
            "ENot",
            "EOr",
            "EPathQual",
            "EQualified",
            "ESlash",
            "EStar",
            "ETextEquals",
            "EUnion",
            "EVar",
            "Equation",
            "Expr",
            "ExtendedXPathQuery",
            "EQualifier",
        ),
        "repro.expath.evaluator": ("ExtendedXPathEvaluator", "evaluate_extended"),
        "repro.expath.metrics": ("OperatorCounts", "count_operators"),
        "repro.expath.simplify": ("simplify_expression", "simplify_query"),
    },
)
