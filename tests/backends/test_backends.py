"""Tests for the pluggable execution backends."""

import pytest

from repro.api import EngineConfig
from repro.backends import (
    BACKENDS,
    MemoryBackend,
    SqliteBackend,
    backend_names,
    create_backend,
    sqlite_schema_ddl,
)
from repro.backends.base import BackendResult
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.errors import ExecutionError
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath


class TestRegistry:
    def test_both_backends_registered(self):
        assert backend_names() == ["memory", "sqlite"]
        assert BACKENDS["memory"] is MemoryBackend
        assert BACKENDS["sqlite"] is SqliteBackend

    def test_create_backend_by_name(self, dept_shredded):
        backend = create_backend("memory", dept_shredded.database)
        assert isinstance(backend, MemoryBackend)
        with create_backend("sqlite", dept_shredded.database) as backend:
            assert isinstance(backend, SqliteBackend)

    def test_unknown_backend_rejected(self, dept_shredded):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("duckdb", dept_shredded.database)

    def test_create_backend_takes_no_options(self, dept_shredded):
        # The SQLite backend has one statement shape, so no config field
        # reaches a backend constructor any more.
        with pytest.raises(TypeError):
            create_backend("sqlite", dept_shredded.database, emission="single")


class TestBackendResult:
    def test_ints_and_strings_collapse(self):
        # The memory engine reads ints, SQLite's TEXT affinity strings.
        result = BackendResult("memory", [5, "5", 7, "7"])
        assert result.node_ids() == (5, 7)

    def test_ids_ascend_numerically(self):
        result = BackendResult("sqlite", ["10", "9", "100", "9"])
        assert result.node_ids() == (9, 10, 100)
        assert result.stats == {}


class TestAnswerForm:
    """Both backends answer with distinct ints in ascending node-id order."""

    @pytest.fixture(scope="class")
    def document(self, cross_dtd):
        tree = generate_document(cross_dtd, seed=3, max_elements=250)
        return tree, shred_document(tree, cross_dtd)

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    @pytest.mark.parametrize(
        "query", ["a//d", "a/b//b//c[d]"], ids=["digit-boundary", "duplicate-rows"]
    )
    def test_ids_are_ascending_ints_equal_to_the_evaluator(
        self, cross_dtd, document, backend_name, query, monkeypatch
    ):
        tree, shredded = document
        expected = sorted(node.node_id for node in evaluate_xpath(tree, parse_xpath(query)))
        program = XPathToSQLTranslator(cross_dtd).translate(query).program
        fetched = []
        run_plan = SqliteBackend._run_plan

        def counting_run_plan(self, plan):
            columns, rows, elapsed = run_plan(self, plan)
            fetched.append((len(rows), len(set(rows))))
            return columns, rows, elapsed

        monkeypatch.setattr(SqliteBackend, "_run_plan", counting_run_plan)
        with create_backend(backend_name, shredded.database) as backend:
            result = backend.execute(program)
        ids = result.node_ids()
        assert type(ids) is tuple
        assert all(type(node_id) is int for node_id in ids)
        assert all(left < right for left, right in zip(ids, ids[1:]))
        assert list(ids) == expected
        # A text sort would put 10 before 9.
        assert ids[0] < 10 <= ids[-1]
        # ``rows`` counts distinct result rows, also where SQLite fetched
        # some twice (56 fetched, 36 distinct for the second query).
        assert result.stats["rows"] == len(ids)
        if backend_name == "sqlite" and query == "a/b//b//c[d]":
            assert fetched == [(56, 36)]


class TestSqliteDDL:
    def test_one_table_per_relation_plus_identity_view(self, dept_shredded):
        statements = sqlite_schema_ddl(dept_shredded.database.schema)
        tables = [s for s in statements if s.startswith("CREATE TABLE")]
        assert len(tables) == len(dept_shredded.database.schema.relation_names)
        assert any("ALL_NODES" in s for s in statements)
        indexes = [s for s in statements if s.startswith("CREATE INDEX")]
        # One index per join column (F and T) per relation.
        assert len(indexes) == 2 * len(tables)


class TestSqliteExecution:
    def test_matches_memory_on_recursive_query(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        program = translator.translate("dept//project").program
        memory = MemoryBackend(dept_shredded.database)
        with SqliteBackend(dept_shredded.database) as sqlite:
            assert sqlite.execute(program).node_ids() == memory.execute(program).node_ids()

    def test_matches_direct_answer_path(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        expected = {
            node.node_id for node in translator.answer("dept//project", dept_shredded)
        }
        program = translator.translate("dept//project").program
        with SqliteBackend(dept_shredded.database) as sqlite:
            actual = set(sqlite.execute(program).node_ids())
        assert actual == expected

    def test_pushed_selections_agree(self, cross_dtd, cross_shredded):
        """Anchored fixpoints (incl. the backward case) execute correctly."""
        translator = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(use_small_seed=True, push_selections=True)
        )
        memory = MemoryBackend(cross_shredded.database)
        with SqliteBackend(cross_shredded.database) as sqlite:
            for query in ('a/b[text() = "b-0"]//c/d', 'a/b//c/d[text() = "d-0"]'):
                program = translator.translate(query).program
                assert sqlite.execute(program).node_ids() == memory.execute(program).node_ids()

    def test_recursive_union_strategy_agrees(self, cross_dtd, cross_shredded):
        translator = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(strategy=DescendantStrategy.RECURSIVE_UNION)
        )
        program = translator.translate("a/b//c/d").program
        memory = MemoryBackend(cross_shredded.database)
        with SqliteBackend(cross_shredded.database) as sqlite:
            assert sqlite.execute(program).node_ids() == memory.execute(program).node_ids()

    def test_backend_is_reusable_across_programs(self, cross_dtd, cross_shredded):
        """Temp tables are dropped, so one backend serves many executions."""
        translator = XPathToSQLTranslator(cross_dtd)
        first = translator.translate("a//d").program
        second = translator.translate("a/b//c/d").program
        memory = MemoryBackend(cross_shredded.database)
        with SqliteBackend(cross_shredded.database) as sqlite:
            one = sqlite.execute(first)
            two = sqlite.execute(second)
            again = sqlite.execute(first)
        assert one.node_ids() == again.node_ids()
        assert two.node_ids() == memory.execute(second).node_ids()

    def test_stats_report_rows_and_wall_time(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        program = translator.translate("dept//project").program
        with SqliteBackend(dept_shredded.database) as sqlite:
            result = sqlite.execute(program)
        assert result.stats["rows"] == len(result.node_ids())
        assert result.stats["elapsed_seconds"] >= 0
        assert result.stats["temporaries_evaluated"] >= 1

    def test_closed_backend_raises(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        program = translator.translate("dept//project").program
        backend = SqliteBackend(dept_shredded.database)
        backend.close()
        with pytest.raises(ExecutionError, match="closed"):
            backend.execute(program)

    def test_memory_backend_reports_executor_stats(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        program = translator.translate("dept//project").program
        result = MemoryBackend(dept_shredded.database).execute(program)
        assert result.backend == "memory"
        assert result.stats["rows"] == len(result.node_ids())
        assert "fixpoint_iterations" in result.stats


class TestIdentifierQuoting:
    def test_hyphenated_element_names_execute_on_sqlite(self):
        """DTD names may contain '-' (e.g. GedML); rendered SQL must quote them."""
        from repro.dtd.parser import parse_dtd
        from repro.xmltree.generator import generate_document

        dtd = parse_dtd(
            "root event-log\n"
            "event-log -> event-date*\n"
            "event-date -> event-date*\n",
            name="hyphens",
        )
        tree = generate_document(dtd, x_l=5, x_r=2, seed=1, max_elements=100)
        translator = XPathToSQLTranslator(dtd)
        shredded = translator.shred(tree)
        program = translator.translate("event-log//event-date").program
        memory = MemoryBackend(shredded.database)
        with SqliteBackend(shredded.database) as sqlite:
            assert sqlite.execute(program).node_ids() == memory.execute(program).node_ids()


class TestPreparedExecution:
    """The prepare()/execute_prepared() surface the service layer runs on."""

    def _program(self, dept_dtd):
        return XPathToSQLTranslator(dept_dtd).translate("dept//project").program

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_prepared_matches_one_shot(self, backend_name, dept_dtd, dept_shredded):
        program = self._program(dept_dtd)
        with create_backend(backend_name, dept_shredded.database) as backend:
            one_shot = backend.execute(program)
            prepared = backend.prepare(program)
            for _ in range(3):  # repeatable: no temp-table or state leakage
                repeat = backend.execute_prepared(prepared)
                assert repeat.node_ids() == one_shot.node_ids()

    def test_prepared_program_is_pruned(self, dept_dtd, dept_shredded):
        program = self._program(dept_dtd)
        backend = create_backend("memory", dept_shredded.database)
        prepared = backend.prepare(program)
        assert len(prepared.program.assignments) <= len(program.assignments)

    def test_sqlite_prepared_payload_precomputes_statements(
        self, dept_dtd, dept_shredded
    ):
        program = self._program(dept_dtd)
        with SqliteBackend(dept_shredded.database) as backend:
            prepared = backend.prepare(program)
            assert prepared.payload is not None
            # One statement per retained assignment plus the result SELECT.
            assert len(prepared.payload.statements) == len(
                prepared.program.assignments
            ) + 1

    def test_cross_backend_prepared_rejected(self, dept_dtd, dept_shredded):
        program = self._program(dept_dtd)
        memory = create_backend("memory", dept_shredded.database)
        with SqliteBackend(dept_shredded.database) as sqlite:
            prepared = memory.prepare(program)
            with pytest.raises(ValueError, match="prepared for backend"):
                sqlite.execute_prepared(prepared)

    def test_base_class_prepared_runs_on_sqlite(self, dept_dtd, dept_shredded):
        """A PreparedProgram without a SQLite payload is re-prepared, not broken."""
        from repro.backends.base import PreparedProgram

        program = self._program(dept_dtd)
        with SqliteBackend(dept_shredded.database) as backend:
            generic = PreparedProgram(backend="sqlite", program=program.pruned())
            assert backend.execute_prepared(generic).node_ids() == backend.execute(
                program
            ).node_ids()


class TestSqliteExplain:
    """Per-statement ``EXPLAIN QUERY PLAN`` of the script a program runs."""

    @pytest.mark.parametrize(
        "strategy",
        [
            DescendantStrategy.CYCLEEX,
            DescendantStrategy.CYCLEE,
            DescendantStrategy.RECURSIVE_UNION,
            DescendantStrategy.INTERVAL,
        ],
        ids=lambda strategy: strategy.value,
    )
    def test_explain_plans_every_statement_in_order(
        self, strategy, cross_dtd, cross_shredded
    ):
        translator = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(strategy=strategy)
        )
        program = translator.translate("a/b//c/d").program
        with SqliteBackend(cross_shredded.database) as sqlite:
            explained = sqlite.explain(program)
            targets = [target for target, _ in explained]
            assert targets == [
                assignment.target for assignment in program.pruned().assignments
            ] + ["<result>"]
            for target, rows in explained:
                assert rows, target
            # The result SELECT is planned against the temporary it reads.
            assert any(targets[-2] in row for row in explained[-1][1])
            # Every temporary explain created is dropped again: the same
            # program still executes on this backend and agrees with memory.
            memory = MemoryBackend(cross_shredded.database)
            assert sqlite.execute(program).node_ids() == memory.execute(program).node_ids()


class TestSqliteThreadedConnections:
    def test_each_thread_gets_its_own_connection(self, dept_dtd, dept_shredded):
        import threading

        program = XPathToSQLTranslator(dept_dtd).translate("dept//project").program
        with SqliteBackend(dept_shredded.database) as backend:
            expected = backend.execute(program).node_ids()
            results, errors = [], []

            def worker():
                try:
                    results.append(backend.execute(program).node_ids())
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert all(ids == expected for ids in results)

    def test_two_backends_do_not_share_the_shared_cache_db(self, dept_shredded):
        first = SqliteBackend(dept_shredded.database)
        second = SqliteBackend(dept_shredded.database)  # must not collide on DDL
        try:
            cursor_a = first._conn().execute("SELECT COUNT(*) FROM ALL_NODES")
            cursor_b = second._conn().execute("SELECT COUNT(*) FROM ALL_NODES")
            assert cursor_a.fetchone() == cursor_b.fetchone()
        finally:
            first.close()
            second.close()

    def test_dead_thread_connections_are_reaped(self, dept_dtd, dept_shredded):
        """Short-lived worker threads must not leak connections (Issue 3)."""
        import threading

        program = XPathToSQLTranslator(dept_dtd).translate("dept//project").program
        with SqliteBackend(dept_shredded.database) as backend:
            for _ in range(5):  # each round: a thread that opens a connection
                thread = threading.Thread(target=lambda: backend.execute(program))
                thread.start()
                thread.join()
            # Each new thread's open reaps all previously-dead owners, so at
            # most the *last* dead thread's connection lingers; the total
            # never grows with the number of dead threads.
            dead = [t for t, _ in backend._connections if not t.is_alive()]
            assert len(dead) <= 1
            assert len(backend._connections) <= 2  # anchor + last thread


class TestIdentifierAndLiteralEdgeCases:
    """DTDs with SQL-hostile names/values round-trip on both backends (Issue 4)."""

    @pytest.fixture(scope="class")
    def hostile(self):
        from repro.dtd.parser import parse_dtd
        from repro.shredding.shredder import shred_document
        from repro.xmltree.tree import XMLTree

        # Element names that are reserved words or contain '-' / '.' (all
        # legal in the DTD grammar), with values containing quotes and
        # backslashes.
        dtd = parse_dtd(
            "root select\n"
            "select -> foo-bar*, order*\n"
            "foo-bar -> EMPTY #text\n"
            "order -> x.y*\n"
            "x.y -> EMPTY #text\n",
            name="hostile",
        )
        tree = XMLTree.create("select")
        first = tree.add_child(tree.root, "foo-bar", value="o'brien")
        tree.add_child(tree.root, "foo-bar", value="back\\slash")
        order = tree.add_child(tree.root, "order")
        tree.add_child(order, "x.y", value='dou"ble')
        return dtd, tree, shred_document(tree, dtd)

    def test_dashed_and_reserved_names_execute_on_sqlite(self, hostile):
        dtd, tree, shredded = hostile
        translator = XPathToSQLTranslator(dtd)
        # x.y is reachable only through the wildcard: XPath NAME tokens do
        # not admit dots, but the relational layer still has to quote R_x.y.
        for query in ("select", "select/foo-bar", "select/order", "select/order/*"):
            program = translator.translate(query).program
            with MemoryBackend(shredded.database) as memory:
                expected = memory.execute(program).node_ids()
            with SqliteBackend(shredded.database) as sqlite_backend:
                actual = sqlite_backend.execute(program).node_ids()
            assert expected == actual, query

    def test_quoted_and_backslashed_values_roundtrip(self, hostile):
        dtd, tree, shredded = hostile
        translator = XPathToSQLTranslator(dtd)
        for query, matches in (
            ("select/foo-bar[text() = \"o'brien\"]", 1),
            ('select/foo-bar[text() = "back\\slash"]', 1),
            ('select/foo-bar[text() = "missing"]', 0),
        ):
            program = translator.translate(query).program
            with MemoryBackend(shredded.database) as memory:
                expected = memory.execute(program)
            with SqliteBackend(shredded.database) as sqlite_backend:
                actual = sqlite_backend.execute(program)
            assert expected.node_ids() == actual.node_ids(), query
            assert len(expected.node_ids()) == matches, query

    def test_recursive_union_strategy_survives_hostile_names(self, hostile):
        dtd, tree, shredded = hostile
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(strategy=DescendantStrategy.RECURSIVE_UNION)
        )
        program = translator.translate("select//order/*").program
        with MemoryBackend(shredded.database) as memory:
            expected = memory.execute(program).node_ids()
        with SqliteBackend(shredded.database) as sqlite_backend:
            actual = sqlite_backend.execute(program).node_ids()
        assert expected == actual
