"""In-memory relational engine with a simple least-fixpoint (LFP) operator.

The paper pushes translated XPath queries into an RDBMS (IBM DB2 in the
experiments).  No RDBMS is available offline, so this package provides the
substrate the translation targets:

* named relations with set semantics (:mod:`repro.relational.relation`),
* a database of base and temporary relations (:mod:`repro.relational.database`),
* a relational-algebra AST covering selection, projection, composition
  joins, semi/anti joins, union, difference, the paper's **simple LFP**
  operator ``Phi(R)`` (single input relation, with optional anchors so
  selections can be pushed inside) and the **SQL'99 multi-relation
  recursive union** used by the SQLGen-R baseline
  (:mod:`repro.relational.algebra`),
* a columnar operator-at-a-time executor over dictionary-encoded column
  arrays (:mod:`repro.relational.columnar`), the engine the memory backend
  runs, evaluating assignments lazily (top-down), and the row-at-a-time
  tuple executor it is checked against (:mod:`repro.relational.executor`),
  which has a lazy and an eager evaluation strategy, and
* a SQL text emitter so every translated program can be inspected as real
  SQL in generic, Oracle CONNECT BY or DB2 recursive-CTE dialects, or run
  on SQLite (:mod:`repro.relational.sqlgen`).
"""

from repro._support import lazy_exports

__all__ = [
    "Relation",
    "RelationSchema",
    "DatabaseSchema",
    "Database",
    "RAExpr",
    "Scan",
    "Select",
    "Project",
    "Compose",
    "EquiJoin",
    "SemiJoin",
    "AntiJoin",
    "Union",
    "Difference",
    "Intersect",
    "Fixpoint",
    "RecursiveUnion",
    "EdgeStep",
    "IdentityRelation",
    "Condition",
    "Assignment",
    "Program",
    "Executor",
    "ExecutionStats",
    "execute_program",
    "ColumnarRelation",
    "ColumnarDatabase",
    "ColumnarExecutor",
    "ValueDictionary",
    "columnar_store",
    "SQLDialect",
    "program_to_sql",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.relational.relation": ("Relation",),
        "repro.relational.schema": ("DatabaseSchema", "RelationSchema"),
        "repro.relational.database": ("Database",),
        "repro.relational.algebra": (
            "AntiJoin",
            "Assignment",
            "Compose",
            "Condition",
            "Difference",
            "EdgeStep",
            "EquiJoin",
            "Fixpoint",
            "IdentityRelation",
            "Intersect",
            "Program",
            "Project",
            "RAExpr",
            "RecursiveUnion",
            "Scan",
            "Select",
            "SemiJoin",
            "Union",
        ),
        "repro.relational.stats": ("ExecutionStats",),
        "repro.relational.executor": ("Executor", "execute_program"),
        "repro.relational.columnar": (
            "ColumnarDatabase",
            "ColumnarExecutor",
            "ColumnarRelation",
            "ValueDictionary",
            "columnar_store",
        ),
        "repro.relational.sqlgen": ("SQLDialect", "program_to_sql"),
    },
)
