"""Unit tests for the columnar batch executor (Issue 8 tentpole).

The node-for-node equivalence of the two executors over real translated
programs lives in ``tests/properties/test_executor_equivalence.py``; this
module pins the columnar substrate itself — the value dictionary, the
lazy cols/rows representations, who owns a store and when it is encoded
again, the shared temporary table, and operator/error parity with the tuple
executor on a hand-built database.
"""

import gc
import pickle
import random
import sys
import threading

import pytest

from repro import obs
from repro.api.config import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.errors import ExecutionError, SchemaError
from repro.fuzz.cases import DocumentSpec
from repro.backends.memory import MemoryBackend
from repro.live.delta import ShredDelta, apply_delta_to_database
from repro.relational import columnar, temporaries
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Condition,
    Difference,
    EdgeStep,
    EmptyRelation,
    EquiJoin,
    Fixpoint,
    IdentityRelation,
    Intersect,
    Program,
    Project,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
)
from repro.relational.columnar import (
    ColumnarDatabase,
    ColumnarExecutor,
    ColumnarRelation,
    ValueDictionary,
)
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.relation import Relation
from repro.relational.schema import NODE_COLUMNS, DatabaseSchema, RelationSchema
from repro.shredding.shredder import shred_document
from repro.workloads.queries import CROSS_QUERIES, SCALABILITY_QUERY
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from ..helpers import rdbms_ids


@pytest.fixture()
def database():
    """The same chain/cycle database as ``test_executor.py``."""
    schema = DatabaseSchema(
        [
            RelationSchema("R_r", NODE_COLUMNS),
            RelationSchema("R_a", NODE_COLUMNS),
            RelationSchema("R_b", NODE_COLUMNS),
        ],
        node_relations=["R_r", "R_a", "R_b"],
        element_relations={"r": "R_r", "a": "R_a", "b": "R_b"},
    )
    db = Database(schema)
    db.set_relation("R_r", Relation(NODE_COLUMNS, {("_", 0, "_")}))
    db.set_relation(
        "R_a",
        Relation(NODE_COLUMNS, {(0, 1, "a-0"), (0, 2, "a-1"), (4, 5, "a-2")}),
    )
    db.set_relation(
        "R_b",
        Relation(NODE_COLUMNS, {(1, 3, "b-0"), (1, 4, "b-1"), (5, 6, "b-2")}),
    )
    return db


class TestValueDictionary:
    def test_codes_are_stable_and_dense(self):
        dictionary = ValueDictionary()
        first = dictionary.encode("x")
        assert dictionary.encode("x") == first
        second = dictionary.encode(7)
        assert sorted({first, second}) == [0, 1]
        assert dictionary.decode(first) == "x"
        assert dictionary.decode(second) == 7
        assert len(dictionary) == 2

    def test_int_and_string_forms_stay_distinct(self):
        # Shredded data mixes node ids (ints) with text; "1" must not alias 1.
        dictionary = ValueDictionary()
        assert dictionary.encode(1) != dictionary.encode("1")

    def test_encode_column_and_decode_rows_round_trip(self):
        dictionary = ValueDictionary()
        column = dictionary.encode_column(["a", "b", "a", 3])
        assert column[0] == column[2]
        rows = dictionary.decode_rows({(column[0], column[3])})
        assert rows == {("a", 3)}


class TestColumnarRelation:
    def test_rows_derived_from_cols(self):
        relation = ColumnarRelation(("F", "T"), cols=([1, 2], [3, 4]))
        assert len(relation) == 2
        assert relation.rows() == {(1, 3), (2, 4)}

    def test_cols_derived_from_rows(self):
        relation = ColumnarRelation(("F", "T"), rows={(1, 3), (2, 4)})
        cols = relation.cols()
        assert sorted(zip(*cols)) == [(1, 3), (2, 4)]
        # Each column is its own pass over the row set; for any arity the
        # columns must still line up row by row.
        for arity in (1, 3, 4):
            rows = {
                tuple((i * (7 + 3 * k)) % 41 for k in range(arity))
                for i in range(40)
            }
            cols = ColumnarRelation("FTVX"[:arity], rows=rows).cols()
            assert len(cols) == arity
            assert all(len(column) == len(rows) for column in cols)
            assert set(zip(*cols)) == rows

    def test_empty_either_way(self):
        from_rows = ColumnarRelation(("F",), rows=set())
        assert from_rows.cols() == ([],)
        from_cols = ColumnarRelation(("F",), cols=([],))
        assert from_cols.rows() == set()
        assert len(ColumnarRelation(("F",))) == 0

    def test_column_arity_checked(self):
        with pytest.raises(SchemaError):
            ColumnarRelation(("F", "T"), cols=([1],))

    def test_unknown_column_raises(self):
        relation = ColumnarRelation(("F",), cols=([1],))
        with pytest.raises(SchemaError):
            relation.column_index("missing")

    def test_memo_builds_once(self):
        relation = ColumnarRelation(("F",), cols=([1],))
        calls = []

        def build():
            calls.append(1)
            return {"built": True}

        assert relation.memo("key", build) is relation.memo("key", build)
        assert len(calls) == 1


class TestColumnarStore:
    def test_each_memory_backend_owns_its_store(self, database):
        first, second = MemoryBackend(database), MemoryBackend(database)
        assert first._store is not second._store
        first.apply_delta(ShredDelta.build({}, {"R_b": [(5, 8, "b-8")]}))
        program = Program([], Scan("R_b"))
        assert first.execute(program).node_ids() == (3, 4, 6, 8)
        assert second.execute(program).node_ids() == (3, 4, 6)

    def test_a_pickled_backend_builds_its_own_store(self, database):
        backend = MemoryBackend(database)
        backend.execute(Program([], Scan("R_a")))
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._store is not backend._store
        assert clone._store._relations == {}  # encoded again on first read
        program = Program([], Scan("R_a"))
        assert clone.execute(program).node_ids() == backend.execute(program).node_ids()

    def test_base_relations_round_trip_through_the_dictionary(self, database):
        store = ColumnarDatabase(database)
        encoded = store.relation("R_a")
        assert store.dictionary.decode_rows(encoded.rows()) == set(
            database.relation("R_a").rows
        )

    def test_identity_built_once_and_correct(self, database):
        store = ColumnarDatabase(database)
        identity = store.identity()
        assert identity is store.identity()
        decoded = store.dictionary.decode_rows(identity.rows())
        assert decoded == {
            (t, t, v)
            for name in ("R_r", "R_a", "R_b")
            for _, t, v in database.relation(name).rows
        }

    def test_pickled_database_drops_the_store(self, database):
        ColumnarDatabase(database)
        clone = pickle.loads(pickle.dumps(database))
        assert not hasattr(clone, "_columnar_store")
        # And the clone rebuilds its own on demand.
        assert ColumnarDatabase(clone).snapshot().relation("R_a") == database.relation("R_a")

    def test_base_relations_are_encoded_on_first_read(self, cross_dtd, cross_tree):
        database = shred_document(cross_tree, cross_dtd).database
        store = ColumnarDatabase(database)
        assert store._relations == {}
        assert all(name in store for name in database)
        program = XPathToSQLTranslator(cross_dtd).translate("a//d").program
        ColumnarExecutor(store).run(program)
        # A CycleEX plan never reads the interval numbering.
        assert "DOC_ORDER" in database and "DOC_ORDER" not in store._relations
        assert len(store.relation("DOC_ORDER")) == len(database.relation("DOC_ORDER"))

    def test_identity_encodes_the_node_relations_it_reads(self, database):
        store = ColumnarDatabase(database)
        decoded = store.dictionary.decode_rows(store.identity().rows())
        assert decoded == {
            (t, t, v) for name in ("R_r", "R_a", "R_b")
            for _, t, v in database.relation(name).rows
        }

    def test_apply_delta_leaves_unencoded_relations_to_their_first_read(self, database):
        store = ColumnarDatabase(database)
        store.relation("R_a")
        store.identity()
        delta = ShredDelta.build(
            deletes={"R_a": [(4, 5, "a-2")], "R_b": [(5, 6, "b-2")]},
            inserts={"R_b": [(2, 7, "b-7")]},
        )
        encoded_r = store.relation("R_r")
        apply_delta_to_database(database, delta)
        store.apply_delta(delta)
        assert "R_b" in store and store.relation("R_r") is encoded_r
        for name in ("R_a", "R_b"):
            decoded = store.dictionary.decode_rows(store.relation(name).rows())
            assert decoded == set(database.relation(name).rows), name
        assert ColumnarExecutor(store).evaluate(IdentityRelation()) == Executor(
            database
        ).evaluate(IdentityRelation())

    def test_temps_namespace_is_per_program_and_weak(self, database):
        store = ColumnarDatabase(database)
        program = Program([], Scan("R_a"))
        temps = store.temps_for(program)
        temps["x"] = store.relation("R_a")
        assert store.temps_for(program) is temps
        assert store.temps_for(Program([], Scan("R_b"))) is not temps


def both(database, expr):
    """Evaluate ``expr`` on both executors; assert and return the same result."""
    from_tuple = Executor(database).evaluate(expr)
    from_columnar = ColumnarExecutor(database).evaluate(expr)
    assert from_columnar == from_tuple
    return from_columnar


class TestOperatorParity:
    """Every algebra node returns exactly what the tuple executor returns."""

    def test_select(self, database):
        both(database, Select(Scan("R_a"), (Condition("F", "=", 0),)))
        both(database, Select(Scan("R_a"), (Condition("V", "!=", "a-0"),)))
        both(
            database,
            Select(
                Scan("R_a"), (Condition("F", "=", 0), Condition("V", "!=", "a-1"))
            ),
        )

    def test_select_value_absent_from_dictionary(self, database):
        # Selecting on a constant the data never mentions must be empty,
        # not a KeyError in the encoder.
        result = both(
            database, Select(Scan("R_a"), (Condition("V", "=", "no-such"),))
        )
        assert len(result) == 0

    def test_select_unknown_operator(self, database):
        with pytest.raises(ExecutionError):
            ColumnarExecutor(database).evaluate(
                Select(Scan("R_a"), (Condition("F", "<", 1),))
            )

    def test_project_and_aliases(self, database):
        both(database, Project(Scan("R_a"), ("T",)))
        both(database, Project(Scan("R_a"), ("T", "T")))
        result = both(
            database, Project(Scan("R_a"), ("T", "F"), aliases=("x", "y"))
        )
        assert result.columns == ("x", "y")

    def test_tag_project(self, database):
        both(database, TagProject(Scan("R_a"), "a"))

    def test_identity(self, database):
        both(database, IdentityRelation())

    def test_compose(self, database):
        both(database, Compose(Scan("R_a"), Scan("R_b")))
        both(database, Compose(Scan("R_b"), Scan("R_a")))

    def test_equijoin(self, database):
        both(
            database,
            EquiJoin(
                Scan("R_a"),
                Scan("R_b"),
                "T",
                "F",
                output=(("L", "F", "F"), ("R", "T", "T"), ("R", "V", "V")),
            ),
        )

    def test_semi_and_anti_join(self, database):
        both(database, SemiJoin(Scan("R_a"), Scan("R_b"), "T", "F"))
        both(database, AntiJoin(Scan("R_a"), Scan("R_b"), "T", "F"))

    def test_union_difference_intersect(self, database):
        both(database, Union((Scan("R_a"), Scan("R_b"))))
        both(database, Difference(Scan("R_a"), Scan("R_b")))
        both(
            database,
            Intersect(Union((Scan("R_a"), Scan("R_b"))), Scan("R_b")),
        )

    def test_union_mismatched_columns_rejected(self, database):
        bad = Union((Scan("R_a"), Project(Scan("R_b"), ("T",))))
        with pytest.raises(SchemaError):
            ColumnarExecutor(database).evaluate(bad)

    def test_fixpoint_forward_and_anchored(self, database):
        base = Union((Scan("R_a"), Scan("R_b")))
        both(database, Fixpoint(base))
        both(database, Fixpoint(base, source_anchor=Scan("R_r")))
        target = Select(Scan("R_b"), (Condition("T", "=", 6),))
        both(database, Fixpoint(base, target_anchor=target))

    def test_recursive_union(self, database):
        init = TagProject(SemiJoin(Scan("R_a"), Scan("R_r"), "F", "T"), "a")
        steps = (
            EdgeStep(Scan("R_b"), "a", "b"),
            EdgeStep(Scan("R_a"), "b", "a"),
        )
        both(database, RecursiveUnion(init, steps))

    def test_recursive_union_init_column_check(self, database):
        bad = RecursiveUnion(Scan("R_a"), (EdgeStep(Scan("R_b"), "a", "b"),))
        with pytest.raises(SchemaError):
            ColumnarExecutor(database).evaluate(bad)

    def test_unknown_relation(self, database):
        with pytest.raises(ExecutionError):
            ColumnarExecutor(database).evaluate(Scan("nope"))


def _store_in_form(database, form):
    """A fresh store whose base relations exist as ``rows``, ``cols`` or ``both``."""
    store = ColumnarDatabase(database)
    for name in database:
        encoded = store.relation(name)
        rows = set(zip(*encoded.cols()))
        cols = encoded.cols() if form in ("cols", "both") else None
        store._relations[name] = ColumnarRelation(
            encoded.columns,
            cols=cols,
            rows=rows if form in ("rows", "both") else None,
            name=name,
        )
    return store


@pytest.fixture()
def cyclic():
    """Edges with a cycle (1 -> 2 -> 3 -> 1) and a tail, split by tag."""
    schema = DatabaseSchema(
        [
            RelationSchema("R_r", NODE_COLUMNS),
            RelationSchema("R_a", NODE_COLUMNS),
            RelationSchema("R_b", NODE_COLUMNS),
        ],
        node_relations=["R_r", "R_a", "R_b"],
        element_relations={"r": "R_r", "a": "R_a", "b": "R_b"},
    )
    db = Database(schema)
    db.set_relation("R_r", Relation(NODE_COLUMNS, {("_", 0, "_")}))
    db.set_relation(
        "R_a",
        Relation(
            NODE_COLUMNS,
            {(0, 1, "a-1"), (2, 3, "a-3"), (4, 5, "a-5"), (6, 7, "a-7")},
        ),
    )
    db.set_relation(
        "R_b",
        Relation(
            NODE_COLUMNS,
            {(1, 2, "b-2"), (3, 1, "b-1"), (3, 4, "b-4"), (5, 6, "b-6"), (1, 8, "b-8")},
        ),
    )
    return db


_BASE = Union((Scan("R_a"), Scan("R_b")))

#: Operators whose inputs are base relations, so the store decides the form
#: each one reads: as produced (rows or columns) or with both cached.
_FORM_CASES = {
    "compose": Compose(Scan("R_a"), Scan("R_b")),
    "compose-reversed": Compose(Scan("R_b"), Scan("R_a")),
    "fixpoint-forward": Fixpoint(Scan("R_b")),
    "fixpoint-union-base": Fixpoint(_BASE, source_anchor=Scan("R_r")),
    "fixpoint-source-anchored": Fixpoint(Scan("R_b"), source_anchor=Scan("R_a")),
    "fixpoint-backward": Fixpoint(Scan("R_b"), target_anchor=Scan("R_a")),
    "recursive-union": RecursiveUnion(
        TagProject(SemiJoin(Scan("R_a"), Scan("R_r"), "F", "T"), "a"),
        (EdgeStep(Scan("R_b"), "a", "b"), EdgeStep(Scan("R_a"), "b", "a")),
    ),
    "semijoin": SemiJoin(Scan("R_b"), Scan("R_a"), "T", "F"),
    "antijoin": AntiJoin(Scan("R_b"), Scan("R_a"), "T", "F"),
    "project": Project(Scan("R_b"), ("T", "F"), aliases=("x", "y")),
    "tag-project": TagProject(Scan("R_b"), "b"),
}


class TestInputForms:
    """Operators read rows or columns as produced, with identical results."""

    @pytest.mark.parametrize("form", ["rows", "cols", "both"])
    @pytest.mark.parametrize("case", sorted(_FORM_CASES))
    def test_every_form_matches_the_tuple_executor(self, cyclic, case, form):
        expected = Executor(cyclic).evaluate(_FORM_CASES[case])
        store = _store_in_form(cyclic, form)
        assert ColumnarExecutor(store).evaluate(_FORM_CASES[case]) == expected

    @pytest.mark.parametrize(
        "case", ["compose", "fixpoint-forward", "fixpoint-backward", "semijoin"]
    )
    def test_row_inputs_are_not_transposed(self, cyclic, case):
        store = _store_in_form(cyclic, "rows")
        ColumnarExecutor(store).evaluate(_FORM_CASES[case])
        for name in ("R_a", "R_b"):
            assert store.relation(name)._cols is None


class TestProgramsAndWarmTemps:
    def _program(self):
        return Program(
            [
                Assignment("ab", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("unused", Compose(Scan("R_b"), Scan("R_a"))),
            ],
            Select(Scan("ab"), (Condition("F", "=", 0),)),
        )

    def test_lazy_skips_unused_temporaries(self, database):
        executor = ColumnarExecutor(database)
        result = executor.run(self._program())
        assert len(result) == 2
        assert executor.stats.temporaries_evaluated == 1

    def test_lazy_agrees_with_tuple_executor(self, database):
        program = self._program()
        expected = Executor(database).run(program)
        assert ColumnarExecutor(database).run(program) == expected

    def test_warm_rerun_reuses_materialized_temporaries(self, database):
        # The store keeps each program's temporaries for the store's life,
        # so re-running a cached plan skips straight to the result expression.
        program = self._program()
        store = ColumnarDatabase(database)
        first = ColumnarExecutor(store)
        first_result = first.run(program)
        assert first.stats.temporaries_evaluated == 1
        second = ColumnarExecutor(store)
        assert second.run(program) == first_result
        assert second.stats.temporaries_evaluated == 0

    def test_mutation_invalidates_warm_temporaries(self, database):
        program = Program([Assignment("t", Scan("R_a"))], Scan("t"))
        assert len(ColumnarExecutor(database).run(program)) == 3
        database.set_relation(
            "R_a", Relation(NODE_COLUMNS, {(0, 1, "a-0")})
        )
        assert len(ColumnarExecutor(database).run(program)) == 1

    def test_stats_are_per_run(self, database):
        # The Issue 8 satellite holds for the columnar engine too: the
        # second run reports what *it* did (resolve warm temporaries and
        # re-run the result expression only), not the first run's work on
        # top.  Without the reset the counters below would carry the first
        # run's join/temporary counts.
        program = self._program()
        executor = ColumnarExecutor(database)
        executor.run(program)
        first = executor.stats.as_dict()
        assert first["temporaries_evaluated"] == 1
        # The result selects F = 0, so ``ab`` joins only R_a's two rows
        # from node 0: the third, from node 4, reaches no answer.
        assert first["temporaries_demanded"] == 1
        assert first["join_output_rows"] == 2
        executor.run(program)
        second = executor.stats.as_dict()
        assert second["temporaries_evaluated"] == 0  # warm temps reused
        assert second["join_output_rows"] == 0  # ... so no join re-ran

    def test_run_returns_a_plain_relation(self, database):
        result = ColumnarExecutor(database).run(self._program())
        assert isinstance(result, Relation)
        assert result.columns == NODE_COLUMNS


#: One expression per operator type with an F column, over ``cyclic``'s base
#: relations; nested composes and joins put non-base inputs under demands.
_DEMAND_CASES = {
    "scan": Scan("R_b"),
    "identity": IdentityRelation(),
    "empty": EmptyRelation(),
    "select-f": Select(Scan("R_b"), (Condition("F", "=", 3),)),
    "select-f-and-v": Select(
        Scan("R_b"), (Condition("F", "=", 3), Condition("V", "!=", "b-1"))
    ),
    "select-f-ne": Select(Scan("R_b"), (Condition("F", "!=", 1),)),
    "project": Project(Scan("R_b"), ("T", "T", "V"), aliases=("F", "T", "V")),
    "tag-project": TagProject(Scan("R_b"), "b"),
    "compose": Compose(Scan("R_a"), Scan("R_b")),
    "compose-nested": Compose(
        Compose(Scan("R_a"), Scan("R_b")), Compose(Scan("R_b"), Scan("R_a"))
    ),
    "equijoin": EquiJoin(
        Scan("R_a"),
        Compose(Scan("R_b"), Scan("R_a")),
        "T",
        "F",
        output=(("L", "F", "F"), ("R", "T", "T"), ("R", "V", "V")),
    ),
    "semijoin-on-f": SemiJoin(Scan("R_b"), Compose(Scan("R_a"), Scan("R_b")), "T", "F"),
    "semijoin-on-t": SemiJoin(Scan("R_b"), Compose(Scan("R_a"), Scan("R_b")), "F", "T"),
    "antijoin-on-f": AntiJoin(Scan("R_b"), Compose(Scan("R_a"), Scan("R_b")), "T", "F"),
    "antijoin-on-t": AntiJoin(Scan("R_b"), Scan("R_a"), "F", "T"),
    "union": Union((Scan("R_a"), Compose(Scan("R_a"), Scan("R_b")))),
    "except": Difference(
        Fixpoint(_BASE), Compose(Scan("R_b"), Fixpoint(Scan("R_a")))
    ),
    "intersect": Intersect(Fixpoint(_BASE), Union((Scan("R_b"), Scan("R_a")))),
    "fixpoint": Fixpoint(_BASE),
    "fixpoint-composed-base": Fixpoint(Compose(Scan("R_a"), Scan("R_b"))),
    "fixpoint-source-anchored": Fixpoint(_BASE, source_anchor=Scan("R_a")),
    "fixpoint-backward": Fixpoint(_BASE, target_anchor=Scan("R_a")),
    "recursive-union": RecursiveUnion(
        TagProject(SemiJoin(Scan("R_a"), Scan("R_r"), "F", "T"), "a"),
        (EdgeStep(Scan("R_b"), "a", "b"), EdgeStep(Scan("R_a"), "b", "a")),
    ),
}


def _demands(seed):
    """Seeded demands over ``cyclic``'s F values, with absent values mixed in."""
    rng = random.Random(seed)
    values = ["_", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, "none"]
    return [set()] + [set(rng.sample(values, rng.randint(1, 6))) for _ in range(6)]


class TestDemandedEvaluation:
    """Under a demand, an expression returns exactly the full result's rows
    with F in the demand (never a superset), on a cold store and on one
    whose table already holds the temporaries' full or demanded results."""

    @pytest.mark.parametrize("case", sorted(_DEMAND_CASES))
    def test_demanded_rows_are_the_full_result_restricted(self, cyclic, case):
        expr = _DEMAND_CASES[case]
        full = Executor(cyclic).evaluate(expr)
        index = full.columns.index("F")
        store = ColumnarDatabase(cyclic)
        for demand in _demands(case):
            want = {row for row in full.rows if row[index] in demand}
            for target in (ColumnarDatabase(cyclic), store):
                codes = frozenset(map(target.dictionary.encode, demand))
                executor = ColumnarExecutor(target)
                got = executor._evaluate(expr, columnar._Scope(None, {}), codes)
                assert executor._decode(got).rows == want, (case, demand)

    @pytest.mark.parametrize("case", sorted(_DEMAND_CASES))
    def test_temporaries_under_demands_match_the_tuple_executor(self, cyclic, case):
        # The case as a temporary three live programs share, read under two
        # demands and then in full: every answer is exact, each demand is
        # cached on the shared entry, and the full result replaces them.
        store = ColumnarDatabase(cyclic)
        programs = [
            Program(
                [Assignment("t", _DEMAND_CASES[case])],
                Select(Scan("t"), (Condition("F", "=", origin),)),
            )
            for origin in (1, 3)
        ]
        programs.append(Program([Assignment("t", _DEMAND_CASES[case])], Scan("t")))
        entry = store.temps_for(programs[0])["t"]
        for count, program in enumerate(programs, 1):
            assert ColumnarExecutor(store).run(program) == Executor(cyclic).run(program)
            assert store.temps_for(program)["t"] is entry
            if count < len(programs):
                assert entry.relation is None and len(entry.demanded) == count
        assert entry.relation is not None and entry.demanded == {}

    def test_a_demanded_result_is_cached_on_its_entry(self, cyclic):
        program = _closure_program(
            "x", Select(Scan("x_lfp"), (Condition("F", "=", 1),))
        )
        store = ColumnarDatabase(cyclic)
        cold = ColumnarExecutor(store)
        cold.run(program)
        assert cold.stats.temporaries_evaluated == 2
        # x_lfp ran only from origin 1; its base x_ab ran in full.
        assert cold.stats.temporaries_demanded == 1
        assert cold.stats.fixpoint_iterations == 1
        entries = store.temps_for(program)
        assert entries["x_ab"].relation is not None
        assert entries["x_lfp"].relation is None
        (demand,) = entries["x_lfp"].demanded
        assert demand == frozenset({store.dictionary.encode(1)})
        warm = ColumnarExecutor(store)
        assert warm.run(program) == Executor(cyclic).run(program)
        assert warm.stats.temporaries_evaluated == 0
        assert warm.stats.temporaries_demanded_reused == 1
        assert warm.stats.fixpoint_iterations == 0

    def test_apply_delta_drops_demanded_results(self, cyclic):
        program = _closure_program(
            "x", Select(Scan("x_lfp"), (Condition("F", "=", 1),))
        )
        store = ColumnarDatabase(cyclic)
        ColumnarExecutor(store).run(program)
        entry = store.temps_for(program)["x_lfp"]
        assert entry.demanded
        delta = ShredDelta.build(
            deletes={"R_b": [(1, 2, "b-2")]}, inserts={"R_b": [(1, 9, "b-9")]}
        )
        apply_delta_to_database(cyclic, delta)
        store.apply_delta(delta)
        assert store.temps_for(program)["x_lfp"] is not entry
        patched = ColumnarExecutor(store)
        assert patched.run(program) == Executor(cyclic).run(program)
        assert patched.stats.temporaries_reused == 0


def _closure_program(prefix, result=None):
    """A closure over ``R_a ∘ R_b``; ``prefix`` names the temporaries."""
    ab, lfp = f"{prefix}_ab", f"{prefix}_lfp"
    return Program(
        [
            Assignment(ab, Compose(Scan("R_a"), Scan("R_b"))),
            Assignment(lfp, Fixpoint(Union((Scan(ab), Scan("R_b"))))),
        ],
        result if result is not None else Scan(lfp),
    )


def _keys(store):
    return sorted(str(entry.key) for entry in store.shared_temporaries())


class TestSharedTemporaries:
    """Structurally equal temporaries share one entry per store."""

    def test_equal_canonical_expressions_are_evaluated_once(self, cyclic):
        first = _closure_program("x")
        second = _closure_program(
            "y", Select(Scan("y_lfp"), (Condition("F", "=", 1),))
        )
        store = ColumnarDatabase(cyclic)
        cold = ColumnarExecutor(store)
        assert cold.run(first) == Executor(cyclic).run(first)
        assert cold.stats.temporaries_evaluated == 2
        assert cold.stats.temporaries_reused == 0
        other = ColumnarExecutor(store)
        assert other.run(second) == Executor(cyclic).run(second)
        assert other.stats.temporaries_evaluated == 0
        assert other.stats.temporaries_reused == 1  # y_lfp; y_ab is never read
        assert other.stats.fixpoint_iterations == 0
        assert len(store.shared_temporaries()) == 2
        assert all(entry.users == 2 for entry in store.shared_temporaries())

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                SemiJoin(Scan("R_b"), Scan("R_a"), "T", "F"),
                SemiJoin(Scan("R_b"), Scan("R_a"), "F", "T"),
            ),
            (
                Project(Scan("R_b"), ("T", "T", "V"), ("F", "T", "V")),
                Project(Scan("R_b"), ("T", "T", "V")),
            ),
            (
                Select(Scan("R_b"), (Condition("V", "=", 1),)),
                Select(Scan("R_b"), (Condition("V", "=", True),)),
            ),
        ],
        ids=["semijoin-columns", "project-aliases", "condition-type"],
    )
    def test_distinct_temporaries_are_not_shared(self, cyclic, first, second):
        store = ColumnarDatabase(cyclic)
        programs = [Program([Assignment("t", e)], Scan("t")) for e in (first, second)]
        for program in programs:
            executor = ColumnarExecutor(store)
            assert executor.run(program) == Executor(cyclic).run(program)
            assert executor.stats.temporaries_evaluated == 1
            assert executor.stats.temporaries_reused == 0
        assert len(store.shared_temporaries()) == 2

    def test_reads_of_a_shadowing_temporary_are_not_shared(self, cyclic):
        # R_a names both a base relation and a temporary here: keys that
        # read it must not match another program's.
        shadowing = Program(
            [
                Assignment("R_a", Scan("R_b")),
                Assignment("t", Compose(Scan("R_a"), Scan("R_b"))),
            ],
            Scan("t"),
        )
        plain = Program(
            [
                Assignment("u", Scan("R_b")),
                Assignment("t", Compose(Scan("u"), Scan("R_b"))),
            ],
            Scan("t"),
        )
        store = ColumnarDatabase(cyclic)
        for program in (shadowing, plain):
            assert ColumnarExecutor(store).run(program) == Executor(cyclic).run(program)
        assert _keys(store).count("R_b") == 1
        assert len(store.shared_temporaries()) == 3

    def test_an_entry_lives_while_a_program_uses_it(self, cyclic):
        store = ColumnarDatabase(cyclic)
        survivor = _closure_program("x")
        doomed = Program(
            [
                Assignment("ab", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("ba", Compose(Scan("R_b"), Scan("R_a"))),
            ],
            Union((Scan("ab"), Scan("ba"))),
        )
        ColumnarExecutor(store).run(survivor)
        ColumnarExecutor(store).run(doomed)
        assert _keys(store) == [
            "(R_a . R_b)", "(R_b . R_a)", "LFP(({(R_a . R_b)} UNION R_b))"
        ]
        shared = store.temps_for(survivor)["x_ab"]
        assert shared.users == 2
        del doomed
        gc.collect()
        assert shared.users == 1
        assert set(store.shared_temporaries()) == set(store.temps_for(survivor).values())
        del survivor
        gc.collect()
        assert store.shared_temporaries() == ()

    def test_apply_delta_drops_the_table(self, cyclic):
        store = ColumnarDatabase(cyclic)
        programs = [_closure_program("x"), _closure_program("y", Scan("y_ab"))]
        for program in programs:
            ColumnarExecutor(store).run(program)
        assert store.shared_temporaries()
        delta = ShredDelta.build(
            deletes={"R_b": [(3, 1, "b-1")]}, inserts={"R_b": [(7, 2, "b-9")]}
        )
        apply_delta_to_database(cyclic, delta)
        store.apply_delta(delta)
        assert store.shared_temporaries() == ()
        fresh = ColumnarDatabase(cyclic)
        for program in programs:
            patched = ColumnarExecutor(store)
            answer = patched.run(program)
            assert answer == ColumnarExecutor(fresh).run(program)
            assert answer == Executor(cyclic).run(program)
        assert patched.stats.temporaries_reused == 1  # the first program's x_ab

    def test_threads_sharing_temporaries_match_a_serial_run(
        self, cross_dtd, cross_shredded
    ):
        # The paper's cross-DTD queries: their CycleEX programs share most
        # of their closures, under different temporary names.
        translator = XPathToSQLTranslator(cross_dtd)
        queries = list(CROSS_QUERIES.values()) + [SCALABILITY_QUERY]
        programs = [translator.translate(query).program for query in queries]
        database = cross_shredded.database
        serial = [ColumnarExecutor(ColumnarDatabase(database)).run(p) for p in programs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-operator
        try:
            for round_ in range(5):
                store = ColumnarDatabase(database)
                barrier = threading.Barrier(len(programs))
                answers = [None] * len(programs)

                def run(index):
                    barrier.wait()
                    answers[index] = ColumnarExecutor(store).run(programs[index])

                threads = [
                    threading.Thread(target=run, args=(index,))
                    for index in range(len(programs))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                    assert not thread.is_alive()
                assert answers == serial, round_
                # No lost update: each entry counts every program using it.
                for entry in store.shared_temporaries():
                    users = sum(
                        entry in store.temps_for(p).values() for p in programs
                    )
                    assert entry.users == users, round_
        finally:
            sys.setswitchinterval(interval)
        assert len(store.shared_temporaries()) < sum(len(p) for p in programs)

    @pytest.mark.parametrize("same_thread", [True, False], ids=["same-thread", "other-thread"])
    def test_collection_inside_temps_for_does_not_deadlock(
        self, cyclic, monkeypatch, same_thread
    ):
        store = ColumnarDatabase(cyclic)
        doomed = [Program([Assignment("t", Compose(Scan("R_b"), Scan("R_a")))], Scan("t"))]
        ColumnarExecutor(store).run(doomed[0])
        inside, resume = threading.Event(), threading.Event()
        rename = temporaries.rename_scans

        def collect():
            doomed.clear()
            gc.collect()

        def rename_then_wait(expr, renames):
            # Runs while temps_for holds the table lock.
            if same_thread:
                collect()
            else:
                inside.set()
                resume.wait(10)
            return rename(expr, renames)

        monkeypatch.setattr(temporaries, "rename_scans", rename_then_wait)
        survivor = Program([Assignment("u", Compose(Scan("R_a"), Scan("R_b")))], Scan("u"))
        worker = threading.Thread(target=store.temps_for, args=(survivor,), daemon=True)
        worker.start()
        if not same_thread:
            assert inside.wait(10)
            collector = threading.Thread(target=collect, daemon=True)
            collector.start()
            collector.join(10)
            assert not collector.is_alive(), "the release waited on the table lock"
            resume.set()
        worker.join(10)
        assert not worker.is_alive(), "temps_for deadlocked"
        # The queued release was applied when temps_for let go of the lock.
        assert _keys(store) == ["(R_a . R_b)"]

    def test_memory_backend_span_reports_reuse(self, cyclic):
        backend = MemoryBackend(cyclic)
        first = _closure_program("x")
        backend.execute(first)
        program = _closure_program("y")
        with obs.trace("root") as root:
            result = backend.execute(program)
        attrs = root.find("execute").attrs
        assert attrs["temporaries_evaluated"] == 0
        assert attrs["temporaries_reused"] == 1
        assert result.stats["temporaries_reused"] == 1

    def test_tiny_document_reads_the_shared_table(self, cross_dtd):
        # 6 elements shred to 12 rows.  The memory backend runs even a store
        # this small on the columnar executor, so a repeat reads the table.
        tree = generate_document(cross_dtd, x_l=4, x_r=2, max_elements=12, seed=1)
        shredded = shred_document(tree, cross_dtd)
        assert shredded.database.total_rows() == 12
        program = XPathToSQLTranslator(cross_dtd).translate("a//d").program
        backend = MemoryBackend(shredded.database)
        first = backend.execute(program)
        second = backend.execute(program)
        assert second.stats["temporaries_evaluated"] == 0
        assert second.stats["temporaries_reused"] >= 1
        assert second.node_ids() == first.node_ids()


def _rows_held(store):
    """Rows the shared table keeps: full results plus demanded ones."""
    return sum(
        (0 if entry.relation is None else len(entry.relation))
        + sum(len(relation) for relation in entry.demanded.values())
        for entry in store.shared_temporaries()
    )


class TestPaperQueriesUnderDemand:
    QUERIES = list(CROSS_QUERIES.values()) + [SCALABILITY_QUERY]

    def test_a_warm_rerun_evaluates_no_temporary(self, cross_dtd, cross_shredded):
        translator = XPathToSQLTranslator(cross_dtd)
        programs = [translator.translate(query).program for query in self.QUERIES]
        store = ColumnarDatabase(cross_shredded.database)
        cold = [ColumnarExecutor(store) for _ in programs]
        answers = [executor.run(p) for executor, p in zip(cold, programs)]
        assert sum(executor.stats.temporaries_demanded for executor in cold) > 0
        for program, answer in zip(programs, answers):
            warm = ColumnarExecutor(store)
            assert warm.run(program) == answer
            stats = warm.stats
            assert stats.temporaries_evaluated == stats.temporaries_demanded == 0
            assert stats.join_output_rows == stats.fixpoint_iterations == 0
            assert stats.temporaries_reused >= 1

    def test_the_table_keeps_only_rows_an_answer_reaches(self, cross_dtd):
        # The recursive-scan benchmark's document: 8,016 elements.  Computed
        # for every origin, the five queries' temporaries held 231,592 rows.
        spec = DocumentSpec(x_l=14, x_r=4, max_elements=8000, seed=0)
        database = shred_document(spec.generate(cross_dtd), cross_dtd).database
        translator = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(result_cache_size=0)
        )
        programs = [translator.translate(query).program for query in self.QUERIES]
        store = ColumnarDatabase(database)
        for program in programs:
            ColumnarExecutor(store).run(program)
        assert _rows_held(store) <= 80_000


class TestMemoryBackend:
    def test_backend_agrees_with_the_tuple_executor(self, database):
        program = Program(
            [], Fixpoint(Union((Scan("R_a"), Scan("R_b"))))
        )
        result = MemoryBackend(database).execute(program)
        expected = Executor(database).run(program).column_values("T")
        assert result.node_ids() == tuple(sorted(expected))

    @pytest.mark.parametrize("max_elements", [1, 2, 3])
    def test_near_empty_documents_answer_like_the_evaluator(
        self, cross_dtd, max_elements
    ):
        # Most relations of these stores are empty (a root-only document
        # shreds to 2 rows); the columnar executor must still answer them.
        tree = generate_document(
            cross_dtd, x_l=4, x_r=2, max_elements=max_elements, seed=1
        )
        translator = XPathToSQLTranslator(cross_dtd)
        shredded = shred_document(tree, cross_dtd)
        assert shredded.database.total_rows() <= 8
        for query in CROSS_QUERIES.values():
            got = rdbms_ids(translator, query, shredded)
            expected = evaluate_xpath(tree, parse_xpath(query))
            assert list(got) == [node.node_id for node in expected], query
