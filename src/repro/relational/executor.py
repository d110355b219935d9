"""Execution of relational-algebra programs over a database.

The executor supports the two evaluation strategies discussed in Sect. 5.2:

* **eager** — evaluate every assignment in order, then the result;
* **lazy (top-down)** — evaluate the result expression and materialise a
  temporary only when (and if) some needed expression references it.

Joins are hash joins; fixpoints are semi-naive (each iteration extends only
the frontier discovered in the previous one), matching how the simple LFP
operator behaves in Oracle/DB2.  Execution statistics (iterations, tuples
produced, join probes) are collected for the benchmark harness.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ExecutionError, SchemaError
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Difference,
    EmptyRelation,
    EquiJoin,
    Fixpoint,
    IdentityRelation,
    Intersect,
    IntervalJoin,
    Program,
    Project,
    RAExpr,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
)
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import F, NODE_COLUMNS, PRE, SIZE, T, V

__all__ = ["ExecutionStats", "Executor", "execute_program"]

_TAG_COLUMNS = (F, T, V, "TAG")


@dataclass
class ExecutionStats:
    """Counters describing the work done while executing a program."""

    fixpoint_iterations: int = 0
    recursive_union_iterations: int = 0
    join_output_rows: int = 0
    union_output_rows: int = 0
    tuples_materialized: int = 0
    temporaries_evaluated: int = 0
    #: Temporaries a run took already materialized from the columnar
    #: store's shared table instead of evaluating them (the tuple executor
    #: shares nothing, so it always reports 0).
    temporaries_reused: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "fixpoint_iterations": self.fixpoint_iterations,
            "recursive_union_iterations": self.recursive_union_iterations,
            "join_output_rows": self.join_output_rows,
            "union_output_rows": self.union_output_rows,
            "tuples_materialized": self.tuples_materialized,
            "temporaries_evaluated": self.temporaries_evaluated,
            "temporaries_reused": self.temporaries_reused,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def reset(self) -> None:
        """Zero every counter (called at the start of each ``run``)."""
        self.fixpoint_iterations = 0
        self.recursive_union_iterations = 0
        self.join_output_rows = 0
        self.union_output_rows = 0
        self.tuples_materialized = 0
        self.temporaries_evaluated = 0
        self.temporaries_reused = 0
        self.elapsed_seconds = 0.0


class Executor:
    """Evaluate relational-algebra expressions and programs over a database."""

    def __init__(self, database: Database, lazy: bool = True) -> None:
        self._database = database
        self._lazy = lazy
        self._identity: Optional[Relation] = None
        self.stats = ExecutionStats()

    # -- public API -------------------------------------------------------------

    def run(self, program: Program) -> Relation:
        """Execute a program and return the result relation.

        ``stats`` is reset first, so a reused executor reports per-run
        numbers instead of silently accumulating across runs (the
        repeated-measurement harnesses depend on this).
        """
        self.stats.reset()
        start = time.perf_counter()
        temps: Dict[str, Relation] = {}
        if self._lazy:
            result = self._evaluate(program.result, temps, program)
        else:
            for assignment in program.assignments:
                temps[assignment.target] = self._evaluate(
                    assignment.expression, temps, program
                )
                self.stats.temporaries_evaluated += 1
            result = self._evaluate(program.result, temps, program)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return result

    def evaluate(self, expr: RAExpr) -> Relation:
        """Evaluate a standalone expression (no temporaries in scope)."""
        return self._evaluate(expr, {}, None)

    # -- internals --------------------------------------------------------------

    def _identity_relation(self) -> Relation:
        if self._identity is None:
            self._identity = self._database.identity_relation()
        return self._identity

    def _resolve_scan(
        self, name: str, temps: Dict[str, Relation], program: Optional[Program]
    ) -> Relation:
        if name in temps:
            return temps[name]
        if name in self._database:
            return self._database.relation(name)
        if program is not None and self._lazy:
            try:
                expression = program.expression_for(name)
            except KeyError:
                raise ExecutionError(f"unknown relation {name!r}") from None
            relation = self._evaluate(expression, temps, program)
            temps[name] = relation
            self.stats.temporaries_evaluated += 1
            return relation
        raise ExecutionError(f"unknown relation {name!r}")

    def _evaluate(
        self, expr: RAExpr, temps: Dict[str, Relation], program: Optional[Program]
    ) -> Relation:
        if isinstance(expr, Scan):
            return self._resolve_scan(expr.name, temps, program)
        if isinstance(expr, IdentityRelation):
            return self._identity_relation()
        if isinstance(expr, EmptyRelation):
            return Relation(NODE_COLUMNS, set())
        if isinstance(expr, Select):
            return self._select(expr, temps, program)
        if isinstance(expr, Project):
            return self._project(expr, temps, program)
        if isinstance(expr, TagProject):
            return self._tag_project(expr, temps, program)
        if isinstance(expr, Compose):
            return self._compose(expr, temps, program)
        if isinstance(expr, EquiJoin):
            return self._equijoin(expr, temps, program)
        if isinstance(expr, SemiJoin):
            return self._semijoin(expr, temps, program, keep_matching=True)
        if isinstance(expr, AntiJoin):
            return self._semijoin(expr, temps, program, keep_matching=False)
        if isinstance(expr, Union):
            return self._union(expr, temps, program)
        if isinstance(expr, Difference):
            return self._difference(expr, temps, program)
        if isinstance(expr, Intersect):
            return self._intersect(expr, temps, program)
        if isinstance(expr, Fixpoint):
            return self._fixpoint(expr, temps, program)
        if isinstance(expr, RecursiveUnion):
            return self._recursive_union(expr, temps, program)
        if isinstance(expr, IntervalJoin):
            return self._interval_join(expr, temps, program)
        raise ExecutionError(f"unknown relational expression {expr!r}")

    # -- operators ---------------------------------------------------------------

    def _select(self, expr: Select, temps, program) -> Relation:
        relation = self._evaluate(expr.input, temps, program)
        rows = relation.rows
        for condition in expr.conditions:
            index = relation.column_index(condition.column)
            if condition.op == "=":
                rows = {row for row in rows if row[index] == condition.value}
            elif condition.op == "!=":
                rows = {row for row in rows if row[index] != condition.value}
            else:
                raise ExecutionError(f"unsupported condition operator {condition.op!r}")
        return Relation(relation.columns, rows)

    def _project(self, expr: Project, temps, program) -> Relation:
        relation = self._evaluate(expr.input, temps, program)
        indexes = [relation.column_index(c) for c in expr.columns]
        out_columns = expr.aliases if expr.aliases else expr.columns
        if len(out_columns) != len(expr.columns):
            raise SchemaError("projection aliases must match projected columns")
        rows = {tuple(row[i] for i in indexes) for row in relation.rows}
        self.stats.tuples_materialized += len(rows)
        return Relation(out_columns, rows)

    def _tag_project(self, expr: TagProject, temps, program) -> Relation:
        relation = self._evaluate(expr.input, temps, program)
        fi, ti, vi = (relation.column_index(c) for c in (F, T, V))
        rows = {(row[fi], row[ti], row[vi], expr.tag) for row in relation.rows}
        return Relation(_TAG_COLUMNS, rows)

    def _compose(self, expr: Compose, temps, program) -> Relation:
        left = self._evaluate(expr.left, temps, program)
        if not left.rows:
            return Relation(NODE_COLUMNS, set())
        right = self._evaluate(expr.right, temps, program)
        if not right.rows:
            return Relation(NODE_COLUMNS, set())
        lf, lt = left.column_index(F), left.column_index(T)
        rf, rt, rv = right.column_index(F), right.column_index(T), right.column_index(V)
        index = right.index_on(right.columns[rf])
        rows = set()
        for row in left.rows:
            for match in index.get(row[lt], ()):
                rows.add((row[lf], match[rt], match[rv]))
        self.stats.join_output_rows += len(rows)
        return Relation(NODE_COLUMNS, rows)

    def _equijoin(self, expr: EquiJoin, temps, program) -> Relation:
        left = self._evaluate(expr.left, temps, program)
        right = self._evaluate(expr.right, temps, program)
        left_idx = left.column_index(expr.left_column)
        index = right.index_on(expr.right_column)
        out_columns = tuple(alias for _, _, alias in expr.output)
        pickers = []
        for side, column, _ in expr.output:
            if side == "L":
                pickers.append(("L", left.column_index(column)))
            else:
                pickers.append(("R", right.column_index(column)))
        rows = set()
        for row in left.rows:
            for match in index.get(row[left_idx], ()):
                out = tuple(
                    row[i] if side == "L" else match[i] for side, i in pickers
                )
                rows.add(out)
        self.stats.join_output_rows += len(rows)
        return Relation(out_columns, rows)

    def _semijoin(self, expr, temps, program, keep_matching: bool) -> Relation:
        left = self._evaluate(expr.left, temps, program)
        if not left.rows:
            return Relation(left.columns, set())
        right = self._evaluate(expr.right, temps, program)
        keys = right.column_values(expr.right_column)
        index = left.column_index(expr.left_column)
        if keep_matching:
            rows = {row for row in left.rows if row[index] in keys}
        else:
            rows = {row for row in left.rows if row[index] not in keys}
        return Relation(left.columns, rows)

    def _union(self, expr: Union, temps, program) -> Relation:
        relations = [self._evaluate(child, temps, program) for child in expr.inputs]
        non_empty = [rel for rel in relations if rel.columns]
        if not non_empty:
            return Relation(NODE_COLUMNS, set())
        columns = non_empty[0].columns
        rows: Set[Tuple] = set()
        for rel in non_empty:
            if rel.columns != columns:
                raise SchemaError(
                    f"union over mismatched columns {rel.columns} vs {columns}"
                )
            rows |= rel.rows
        self.stats.union_output_rows += len(rows)
        return Relation(columns, rows)

    def _difference(self, expr: Difference, temps, program) -> Relation:
        left = self._evaluate(expr.left, temps, program)
        right = self._evaluate(expr.right, temps, program)
        return Relation(left.columns, left.rows - right.rows)

    def _intersect(self, expr: Intersect, temps, program) -> Relation:
        left = self._evaluate(expr.left, temps, program)
        right = self._evaluate(expr.right, temps, program)
        return Relation(left.columns, left.rows & right.rows)

    def _fixpoint(self, expr: Fixpoint, temps, program) -> Relation:
        base = self._evaluate(expr.base, temps, program)
        bf, bt, bv = (base.column_index(c) for c in (F, T, V))
        edges_by_source = base.index_on(F)

        if expr.target_anchor is not None and expr.source_anchor is None:
            return self._fixpoint_backward(expr, base, temps, program)

        seed_rows = set(base.rows)
        if expr.source_anchor is not None:
            anchor = self._evaluate(expr.source_anchor, temps, program)
            allowed = anchor.column_values(T)
            seed_rows = {row for row in seed_rows if row[bf] in allowed}

        result: Set[Tuple] = {(row[bf], row[bt], row[bv]) for row in seed_rows}
        frontier = set(result)
        while frontier:
            self.stats.fixpoint_iterations += 1
            new: Set[Tuple] = set()
            for row in frontier:
                for edge in edges_by_source.get(row[1], ()):
                    candidate = (row[0], edge[bt], edge[bv])
                    if candidate not in result:
                        new.add(candidate)
            result |= new
            frontier = new
        self.stats.tuples_materialized += len(result)
        return Relation(NODE_COLUMNS, result)

    def _fixpoint_backward(self, expr: Fixpoint, base: Relation, temps, program) -> Relation:
        bf, bt, bv = (base.column_index(c) for c in (F, T, V))
        anchor = self._evaluate(expr.target_anchor, temps, program)
        allowed = anchor.column_values(F)
        edges_by_target = base.index_on(T)
        seed_rows = {row for row in base.rows if row[bt] in allowed}
        result: Set[Tuple] = {(row[bf], row[bt], row[bv]) for row in seed_rows}
        frontier = set(result)
        while frontier:
            self.stats.fixpoint_iterations += 1
            new: Set[Tuple] = set()
            for row in frontier:
                for edge in edges_by_target.get(row[0], ()):
                    candidate = (edge[bf], row[1], row[2])
                    if candidate not in result:
                        new.add(candidate)
            result |= new
            frontier = new
        self.stats.tuples_materialized += len(result)
        return Relation(NODE_COLUMNS, result)

    def _interval_join(self, expr: IntervalJoin, temps, program) -> Relation:
        left = self._evaluate(expr.left, temps, program)
        if not left.rows:
            return Relation(NODE_COLUMNS, set())
        right = self._evaluate(expr.right, temps, program)
        if not right.rows:
            return Relation(NODE_COLUMNS, set())
        order = self._evaluate(expr.order, temps, program)
        ot, op, os = (order.column_index(c) for c in (T, PRE, SIZE))
        interval: Dict[object, Tuple[int, int]] = {
            row[ot]: (int(row[op]), int(row[os])) for row in order.rows
        }
        rt, rv = right.column_index(T), right.column_index(V)
        # Candidate descendants sorted by pre rank: a binary search then
        # turns each ancestor's (pre, pre + size] window into one slice.
        targets = sorted(
            (interval[row[rt]][0], row[rt], row[rv])
            for row in right.rows
            if row[rt] in interval
        )
        pres = [pre for pre, _, _ in targets]
        lt = left.column_index(T)
        rows: Set[Tuple] = set()
        for row in left.rows:
            window = interval.get(row[lt])
            if window is None:
                continue
            pre, size = window
            lo = bisect_right(pres, pre)
            hi = bisect_left(pres, pre + size + 1)
            for _, node, value in targets[lo:hi]:
                rows.add((row[lt], node, value))
        self.stats.join_output_rows += len(rows)
        return Relation(NODE_COLUMNS, rows)

    def _recursive_union(self, expr: RecursiveUnion, temps, program) -> Relation:
        init = self._evaluate(expr.init, temps, program)
        if tuple(init.columns) != _TAG_COLUMNS:
            raise SchemaError(
                f"recursive union init must have columns {_TAG_COLUMNS}, "
                f"got {init.columns}"
            )
        # Pre-evaluate and index every edge relation once.
        step_indexes = []
        for step in expr.steps:
            relation = self._evaluate(step.relation, temps, program)
            step_indexes.append((step, relation, relation.index_on(F)))

        tag_index = 3
        result: Set[Tuple] = set(init.rows)
        changed = True
        while changed:
            self.stats.recursive_union_iterations += 1
            # The SQL'99 fixpoint of Eq. (1) is a black box: every iteration
            # re-evaluates each per-edge SELECT against the *entire*
            # accumulated relation (k joins + k unions per round, with the
            # relation in the centre growing), which is exactly the cost the
            # paper attributes to the with...recursive approach.  No
            # semi-naive delta evaluation is applied here on purpose.
            new: Set[Tuple] = set()
            for step, relation, index in step_indexes:
                tf = relation.column_index(T)
                vf = relation.column_index(V)
                produced: Set[Tuple] = set()
                for row in result:
                    if row[tag_index] != step.parent_tag:
                        continue
                    for edge in index.get(row[1], ()):
                        # Keep the origin node in F so the recursion yields
                        # ancestor/descendant pairs that compose with the
                        # rest of the translated program.
                        produced.add((row[0], edge[tf], edge[vf], step.child_tag))
                self.stats.join_output_rows += len(produced)
                new |= produced
            before = len(result)
            result |= new
            changed = len(result) > before
        self.stats.tuples_materialized += len(result)
        return Relation(_TAG_COLUMNS, result)


def execute_program(
    database: Database, program: Program, lazy: bool = True
) -> Tuple[Relation, ExecutionStats]:
    """Execute ``program`` against ``database``; return the result and stats."""
    executor = Executor(database, lazy=lazy)
    result = executor.run(program)
    return result, executor.stats
