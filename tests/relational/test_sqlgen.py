"""Unit tests for SQL text emission."""

import pytest

from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Condition,
    Difference,
    EdgeStep,
    Fixpoint,
    IdentityRelation,
    Program,
    Project,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
)
from repro.relational.sqlgen import SQLDialect, expression_to_sql, program_to_sql


class TestExpressionRendering:
    def test_scan(self):
        assert expression_to_sql(Scan("R_course")) == "SELECT F, T, V FROM R_course"

    def test_select_with_literal_escaping(self):
        sql = expression_to_sql(Select(Scan("R"), (Condition("V", "=", "o'brien"),)))
        assert "V = 'o''brien'" in sql

    def test_select_inequality(self):
        sql = expression_to_sql(Select(Scan("R"), (Condition("F", "!=", "_"),)))
        assert "<> '_'" in sql

    def test_compose_is_a_join_on_t_f(self):
        sql = expression_to_sql(Compose(Scan("R_a"), Scan("R_b")))
        assert "JOIN" in sql
        assert ".T = " in sql and ".F" in sql

    def test_semijoin_uses_in(self):
        sql = expression_to_sql(SemiJoin(Scan("R_a"), Scan("R_b")))
        assert " IN " in sql

    def test_antijoin_uses_not_in(self):
        sql = expression_to_sql(AntiJoin(Scan("R_a"), Scan("R_b")))
        assert "NOT IN" in sql

    def test_union_and_difference(self):
        sql = expression_to_sql(Union((Scan("A"), Scan("B"))))
        assert "UNION" in sql
        sql = expression_to_sql(Difference(Scan("A"), Scan("B")))
        assert "EXCEPT" in sql

    def test_difference_in_oracle_uses_minus(self):
        sql = expression_to_sql(Difference(Scan("A"), Scan("B")), SQLDialect.ORACLE)
        assert "MINUS" in sql

    def test_projection_distinct(self):
        sql = expression_to_sql(Project(Scan("R"), ("T", "T", "V"), ("F", "T", "V")))
        assert "SELECT DISTINCT" in sql
        assert "AS F" in sql

    def test_tag_project_adds_constant(self):
        sql = expression_to_sql(TagProject(Scan("R"), "course"))
        assert "'course' AS TAG" in sql

    def test_identity_relation_rendering(self):
        sql = expression_to_sql(IdentityRelation())
        assert "ALL_NODES" in sql


class TestIdentifierQuoting:
    def test_plain_names_stay_bare(self):
        from repro.relational.sqlgen import quote_identifier

        assert quote_identifier("R_course") == "R_course"
        assert quote_identifier("T1_step") == "T1_step"

    def test_names_with_dashes_and_dots_are_quoted(self):
        from repro.relational.sqlgen import quote_identifier

        assert quote_identifier("R_foo-bar") == '"R_foo-bar"'
        assert quote_identifier("R_a.b") == '"R_a.b"'

    def test_reserved_words_are_quoted(self):
        from repro.relational.sqlgen import quote_identifier

        assert quote_identifier("select") == '"select"'
        assert quote_identifier("ORDER") == '"ORDER"'
        assert quote_identifier("Table") == '"Table"'

    def test_embedded_quotes_are_doubled(self):
        from repro.relational.sqlgen import quote_identifier

        assert quote_identifier('na"me') == '"na""me"'

    def test_scan_of_dashed_relation_renders_quoted_in_every_dialect(self):
        for dialect in SQLDialect:
            sql = expression_to_sql(Scan("R_foo-bar"), dialect)
            assert '"R_foo-bar"' in sql, dialect

    def test_scan_of_reserved_word_relation_is_quoted(self):
        sql = expression_to_sql(Scan("order"), SQLDialect.GENERIC)
        assert 'FROM "order"' in sql

    def test_recursive_union_tags_go_through_literal_escaping(self):
        recursive = RecursiveUnion(
            TagProject(Scan("R_c"), "o'tag"),
            (EdgeStep(Scan("R_c"), "o'tag", "o'tag"),),
        )
        sql = expression_to_sql(recursive)
        assert "'o''tag'" in sql
        assert "'o'tag'" not in sql.replace("'o''tag'", "")


class TestEmptyRelationRendering:
    def test_renders_zero_row_select_in_every_dialect(self):
        from repro.relational.algebra import EmptyRelation

        for dialect in SQLDialect:
            sql = expression_to_sql(EmptyRelation(), dialect)
            assert "WHERE 1 = 0" in sql, dialect

    def test_sqlite_form_executes(self):
        import sqlite3

        from repro.relational.algebra import EmptyRelation

        sql = expression_to_sql(EmptyRelation(), SQLDialect.SQLITE)
        connection = sqlite3.connect(":memory:")
        try:
            rows = connection.execute(sql).fetchall()
        finally:
            connection.close()
        assert rows == []


class TestRecursionRendering:
    def test_fixpoint_generic_uses_with_recursive(self):
        sql = expression_to_sql(Fixpoint(Scan("R")), SQLDialect.GENERIC)
        assert sql.startswith("WITH RECURSIVE")
        assert "UNION ALL" in sql

    def test_fixpoint_db2_uses_plain_with(self):
        sql = expression_to_sql(Fixpoint(Scan("R")), SQLDialect.DB2)
        assert sql.startswith("WITH lfp")

    def test_fixpoint_oracle_uses_connect_by(self):
        sql = expression_to_sql(Fixpoint(Scan("R")), SQLDialect.ORACLE)
        assert "CONNECT BY PRIOR" in sql
        assert "CONNECT_BY_ROOT" in sql

    def test_fixpoint_source_anchor_becomes_seed_filter(self):
        sql = expression_to_sql(Fixpoint(Scan("R"), source_anchor=Scan("S")))
        assert "WHERE F IN" in sql

    def test_fixpoint_target_anchor_becomes_seed_filter(self):
        sql = expression_to_sql(Fixpoint(Scan("R"), target_anchor=Scan("S")))
        assert "WHERE T IN" in sql

    def test_recursive_union_has_one_branch_per_edge(self):
        recursive = RecursiveUnion(
            TagProject(Scan("R_c"), "c"),
            (
                EdgeStep(Scan("R_c"), "c", "c"),
                EdgeStep(Scan("R_s"), "c", "s"),
                EdgeStep(Scan("R_c"), "s", "c"),
            ),
        )
        sql = expression_to_sql(recursive)
        assert sql.count("UNION ALL") == 3
        assert "r.TAG = 'c'" in sql


class TestProgramRendering:
    def _program(self):
        return Program(
            [Assignment("T1", Compose(Scan("R_a"), Scan("R_b")))],
            Select(Scan("T1"), (Condition("F", "=", "_"),)),
        )

    def test_temp_tables_created_per_assignment(self):
        sql = program_to_sql(self._program())
        assert "CREATE TEMPORARY TABLE T1" in sql
        assert sql.strip().endswith(";")

    def test_all_dialects_render(self):
        for dialect in SQLDialect:
            assert "T1" in program_to_sql(self._program(), dialect)

    def test_translated_paper_query_renders(self):
        from repro.core.pipeline import XPathToSQLTranslator
        from repro.dtd.samples import dept_dtd

        translator = XPathToSQLTranslator(dept_dtd())
        sql = translator.translate("dept//project").sql()
        assert "CREATE TEMPORARY TABLE" in sql
        assert "WITH RECURSIVE" in sql
        assert "R_project" in sql


class TestGoldenText:
    """Exact-text goldens per dialect: a non-recursive program and a fixpoint.

    These pin the emitted SQL so dialect regressions show up as readable
    diffs; the SQLITE output is additionally executed for real by the
    backends test suite.
    """

    def _program(self):
        return Program(
            [Assignment("T1", Compose(Scan("R_a"), Scan("R_b")))],
            Select(Scan("T1"), (Condition("F", "=", "_"),)),
        )

    CTAS_GOLDEN = (
        "CREATE TEMPORARY TABLE T1 AS (\n"
        "SELECT l1.F AS F, r2.T AS T, r2.V AS V FROM (SELECT F, T, V FROM R_a) l1 "
        "JOIN (SELECT F, T, V FROM R_b) r2 ON l1.T = r2.F\n"
        ");\n"
        "\n"
        "SELECT t3.* FROM (SELECT F, T, V FROM T1) t3 WHERE t3.F = '_';"
    )

    def test_program_generic_golden(self):
        assert program_to_sql(self._program(), SQLDialect.GENERIC) == self.CTAS_GOLDEN

    def test_program_db2_golden(self):
        assert program_to_sql(self._program(), SQLDialect.DB2) == self.CTAS_GOLDEN

    def test_program_oracle_golden(self):
        assert program_to_sql(self._program(), SQLDialect.ORACLE) == self.CTAS_GOLDEN

    def test_program_sqlite_golden(self):
        assert program_to_sql(self._program(), SQLDialect.SQLITE) == (
            'CREATE TEMPORARY TABLE "T1" AS\n'
            'SELECT l1.F AS F, r2.T AS T, r2.V AS V FROM (SELECT * FROM "R_a") l1 '
            'JOIN (SELECT * FROM "R_b") r2 ON l1.T = r2.F;\n'
            "\n"
            'SELECT t3.* FROM (SELECT * FROM "T1") t3 WHERE t3.F = \'_\';'
        )

    def test_fixpoint_generic_golden(self):
        assert expression_to_sql(Fixpoint(Scan("R_c")), SQLDialect.GENERIC) == (
            "WITH RECURSIVE lfp (F, T, V) AS (\n"
            "  SELECT F, T, V FROM (SELECT F, T, V FROM R_c) seed\n"
            "  UNION ALL\n"
            "  SELECT lfp.F, step.T, step.V\n"
            "  FROM lfp JOIN (SELECT F, T, V FROM R_c) step ON lfp.T = step.F\n"
            ")\n"
            "SELECT DISTINCT F, T, V FROM lfp"
        )

    def test_fixpoint_db2_golden(self):
        assert expression_to_sql(Fixpoint(Scan("R_c")), SQLDialect.DB2) == (
            "WITH lfp (F, T, V) AS (\n"
            "  SELECT F, T, V FROM (SELECT F, T, V FROM R_c) seed\n"
            "  UNION ALL\n"
            "  SELECT lfp.F, step.T, step.V\n"
            "  FROM lfp JOIN (SELECT F, T, V FROM R_c) step ON lfp.T = step.F\n"
            ")\n"
            "SELECT DISTINCT F, T, V FROM lfp"
        )

    def test_fixpoint_oracle_golden(self):
        assert expression_to_sql(Fixpoint(Scan("R_c")), SQLDialect.ORACLE) == (
            "SELECT CONNECT_BY_ROOT F AS F, T, V\n"
            "FROM (SELECT F, T, V FROM R_c)\n"
            "CONNECT BY PRIOR T = F\n"
            "START WITH 1 = 1"
        )

    def test_fixpoint_sqlite_golden(self):
        # SQLite: unique CTE name, UNION (set semantics) for termination.
        assert expression_to_sql(Fixpoint(Scan("R_c")), SQLDialect.SQLITE) == (
            'WITH RECURSIVE lfp1 (F, T, V) AS (\n'
            '  SELECT F, T, V FROM (SELECT * FROM "R_c") seed\n'
            "  UNION\n"
            "  SELECT lfp1.F, step.T, step.V\n"
            '  FROM lfp1 JOIN (SELECT * FROM "R_c") step ON lfp1.T = step.F\n'
            ")\n"
            "SELECT DISTINCT F, T, V FROM lfp1"
        )


class TestSqliteDialectShapes:
    """Structural properties the SQLITE dialect must keep to stay executable."""

    def test_no_parenthesised_ctas(self):
        sql = program_to_sql(
            Program([Assignment("T1", Scan("R_a"))], Scan("T1")), SQLDialect.SQLITE
        )
        assert "AS (" not in sql

    def test_union_operands_are_derived_tables(self):
        sql = expression_to_sql(Union((Scan("A"), Scan("B"))), SQLDialect.SQLITE)
        assert sql.startswith("SELECT * FROM (")
        assert "(SELECT" not in sql.split("UNION")[0].replace("FROM (SELECT", "")

    def test_difference_operands_are_derived_tables(self):
        sql = expression_to_sql(Difference(Scan("A"), Scan("B")), SQLDialect.SQLITE)
        assert "EXCEPT" in sql
        assert not sql.startswith("(")

    def test_backward_fixpoint_prepends_edges(self):
        """A target anchor without a source anchor recurses backwards."""
        sql = expression_to_sql(
            Fixpoint(Scan("R"), target_anchor=Scan("S")), SQLDialect.SQLITE
        )
        assert "WHERE T IN" in sql
        assert "SELECT step.F, lfp2.T, lfp2.V" in sql
        assert "ON step.T = lfp2.F" in sql

    def test_backward_fixpoint_generic_also_prepends(self):
        sql = expression_to_sql(
            Fixpoint(Scan("R"), target_anchor=Scan("S")), SQLDialect.GENERIC
        )
        assert "SELECT step.F, lfp.T, lfp.V" in sql

    def test_recursive_union_keeps_origin_in_f(self):
        """Branches keep the origin node in F, matching EdgeStep semantics."""
        recursive = RecursiveUnion(
            TagProject(Scan("R_c"), "c"), (EdgeStep(Scan("R_c"), "c", "c"),)
        )
        for dialect in (SQLDialect.GENERIC, SQLDialect.SQLITE):
            sql = expression_to_sql(recursive, dialect)
            assert ".F AS F" in sql
            assert ".T AS F" not in sql

    def test_executes_on_sqlite(self):
        """The emitted script actually runs: closure of a 4-node chain."""
        import sqlite3

        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE R_c (F TEXT, T TEXT, V TEXT)")
        connection.executemany(
            "INSERT INTO R_c VALUES (?, ?, ?)",
            [("1", "2", "_"), ("2", "3", "_"), ("3", "4", "_")],
        )
        sql = expression_to_sql(Fixpoint(Scan("R_c")), SQLDialect.SQLITE)
        pairs = {(f, t) for f, t, _ in connection.execute(sql)}
        assert pairs == {
            ("1", "2"), ("2", "3"), ("3", "4"),
            ("1", "3"), ("2", "4"), ("1", "4"),
        }
