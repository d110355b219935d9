"""Unit tests for the columnar batch executor (Issue 8 tentpole).

The node-for-node equivalence of the two executors over real translated
programs lives in ``tests/properties/test_executor_equivalence.py``; this
module pins the columnar substrate itself — the value dictionary, the
lazy cols/rows representations, the store cache and its invalidation, the
per-program warm-temporaries namespace, and operator/error parity with
the tuple executor on a hand-built database.
"""

import pickle

import pytest

from repro.errors import ExecutionError, SchemaError
from repro.backends.memory import MemoryBackend
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
    columnar_store,
)
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.relation import Relation
from repro.relational.schema import NODE_COLUMNS, DatabaseSchema, RelationSchema


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
    def test_store_is_cached_on_the_database(self, database):
        assert columnar_store(database) is columnar_store(database)

    def test_store_rebuilds_after_mutation(self, database):
        stale = columnar_store(database)
        database.set_relation(
            "R_r", Relation(NODE_COLUMNS, {("_", 0, "_"), ("_", 9, "_")})
        )
        fresh = columnar_store(database)
        assert fresh is not stale
        assert fresh.version == database.version
        assert len(fresh.relation("R_r")) == 2

    def test_base_relations_round_trip_through_the_dictionary(self, database):
        store = columnar_store(database)
        encoded = store.relation("R_a")
        assert store.dictionary.decode_rows(encoded.rows()) == set(
            database.relation("R_a").rows
        )

    def test_identity_built_once_and_correct(self, database):
        store = columnar_store(database)
        identity = store.identity()
        assert identity is store.identity()
        decoded = store.dictionary.decode_rows(identity.rows())
        assert decoded == {
            (t, t, v)
            for name in ("R_r", "R_a", "R_b")
            for _, t, v in database.relation(name).rows
        }

    def test_pickled_database_drops_the_store(self, database):
        columnar_store(database)
        clone = pickle.loads(pickle.dumps(database))
        assert not hasattr(clone, "_columnar_store")
        # And the clone rebuilds its own on demand.
        assert columnar_store(clone).database is clone

    def test_temps_namespace_is_per_program_and_weak(self, database):
        store = columnar_store(database)
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
        executor = ColumnarExecutor(database, lazy=True)
        result = executor.run(self._program())
        assert len(result) == 2
        assert executor.stats.temporaries_evaluated == 1

    def test_eager_evaluates_everything(self, database):
        executor = ColumnarExecutor(database, lazy=False)
        result = executor.run(self._program())
        assert len(result) == 2
        assert executor.stats.temporaries_evaluated == 2

    def test_lazy_and_eager_agree_with_tuple_executor(self, database):
        program = self._program()
        expected = Executor(database).run(program)
        assert ColumnarExecutor(database, lazy=True).run(program) == expected
        assert ColumnarExecutor(database, lazy=False).run(program) == expected

    def test_warm_rerun_reuses_materialized_temporaries(self, database):
        # The store keeps each program's temporaries for the store's life,
        # so re-running a cached plan skips straight to the result expression.
        program = self._program()
        first = ColumnarExecutor(database)
        first_result = first.run(program)
        assert first.stats.temporaries_evaluated == 1
        second = ColumnarExecutor(database)
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
        assert first["join_output_rows"] == 3
        executor.run(program)
        second = executor.stats.as_dict()
        assert second["temporaries_evaluated"] == 0  # warm temps reused
        assert second["join_output_rows"] == 0  # ... so no join re-ran

    def test_run_returns_a_plain_relation(self, database):
        result = ColumnarExecutor(database).run(self._program())
        assert isinstance(result, Relation)
        assert result.columns == NODE_COLUMNS


class TestMemoryBackendKnob:
    def test_backends_agree(self, database):
        program = Program(
            [], Fixpoint(Union((Scan("R_a"), Scan("R_b"))))
        )
        columnar = MemoryBackend(database, executor="columnar").execute(program)
        tuple_ = MemoryBackend(database, executor="tuple").execute(program)
        assert columnar.rows == tuple_.rows
        assert MemoryBackend(database).executor == "columnar"

    def test_unknown_executor_rejected(self, database):
        with pytest.raises(ValueError):
            MemoryBackend(database, executor="vectorised")
