"""Demanded evaluation is exact: the rows of the full result with F in the demand.

:class:`~repro.relational.columnar.ColumnarExecutor` evaluates an
expression under an optional *demand*, a set of ``F`` codes, and must
return exactly the rows of the full result whose ``F`` code is in it — a
superset would leak rows through ``EXCEPT`` and anti-joins.  Checked over
the translated programs of the program-digest table (every sample DTD's
fuzz queries and every workload case under every strategy), for every
sub-expression with an ``F`` column and seeded random demands, on a store
whose shared table fills up as the sweep goes (so demanded results, full
results and restrictions of full results are all read back).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Set

from repro.relational.algebra import Program, RAExpr
from repro.relational.columnar import ColumnarDatabase, ColumnarExecutor, _Scope
from repro.relational.schema import F
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document

from ..core.test_program_digests import digest_translations

#: Demands drawn per sub-expression.
DEMANDS = 1


def _subexpressions(program: Program) -> Iterator[RAExpr]:
    """Every distinct sub-expression of the program's assignments and result."""
    seen: Set[RAExpr] = set()
    stack = [assignment.expression for assignment in program.assignments]
    stack.append(program.result)
    while stack:
        expr = stack.pop()
        if expr in seen:
            continue
        seen.add(expr)
        yield expr
        stack.extend(child for child in expr.children() if isinstance(child, RAExpr))


def _decoded(store: ColumnarDatabase, relation) -> Set[tuple]:
    return store.dictionary.decode_rows(relation.rows())


def test_demanded_rows_equal_the_full_result_restricted():
    rng = random.Random("demand")
    documents: Dict[str, object] = {}
    checked = {"programs": 0, "expressions": 0, "empty": 0}
    for key, translator, result in digest_translations():
        dtd = translator.dtd
        text = dtd.to_text()
        if text not in documents:
            tree = generate_document(dtd, x_l=5, x_r=3, seed=3, max_elements=60)
            database = shred_document(tree, dtd).database
            # One store per document for the demanded side: its shared
            # table fills up across programs.
            documents[text] = (database, ColumnarDatabase(database))
        database, demanded_store = documents[text]
        program = result.program
        full_store = ColumnarDatabase(database)
        full = ColumnarExecutor(full_store)
        demanded = ColumnarExecutor(demanded_store)
        full_scope = _Scope(program, full_store.temps_for(program))
        demanded_scope = _Scope(program, demanded_store.temps_for(program))
        checked["programs"] += 1
        for expr in _subexpressions(program):
            expected = full._evaluate(expr, full_scope)
            if F not in expected.columns:
                continue
            index = expected.columns.index(F)
            rows = _decoded(full_store, expected)
            origins = sorted({row[index] for row in rows}, key=repr)
            for _ in range(DEMANDS):
                values = set(rng.sample(origins, rng.randint(0, len(origins))))
                values.add(rng.choice(["_", -1, rng.randint(0, 60)]))
                demand = frozenset(map(demanded_store.dictionary.encode, values))
                got = demanded._evaluate(expr, demanded_scope, demand)
                assert got.columns == expected.columns, (key, str(expr))
                want = {row for row in rows if row[index] in values}
                assert _decoded(demanded_store, got) == want, (key, str(expr))
                checked["expressions"] += 1
                checked["empty"] += not want
    assert checked["programs"] == 700
    # Not vacuous: most demands select rows, and some select none.
    assert checked["expressions"] > 2 * checked["empty"] > 0
