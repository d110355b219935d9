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
  runs, and the row-at-a-time tuple executor it is checked against
  (:mod:`repro.relational.executor`), both with lazy (top-down) and eager
  evaluation strategies, and
* a SQL text emitter so every translated program can be inspected as real
  SQL in generic, Oracle CONNECT BY or DB2 recursive-CTE dialects
  (:mod:`repro.relational.sqlgen`).
"""

from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.database import Database
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Condition,
    Difference,
    EdgeStep,
    EquiJoin,
    Fixpoint,
    IdentityRelation,
    Intersect,
    Program,
    Project,
    RAExpr,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from repro.relational.executor import ExecutionStats, Executor, execute_program
from repro.relational.columnar import (
    ColumnarDatabase,
    ColumnarExecutor,
    ColumnarRelation,
    ValueDictionary,
    columnar_store,
)
from repro.relational.sqlgen import SQLDialect, program_to_sql

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
