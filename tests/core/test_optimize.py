"""Unit tests for program-level optimisations and option presets."""

import pytest

from repro.api import EngineConfig
from repro.backends import create_backend
from repro.core.optimize import (
    DEFAULT_OPTIMIZE_LEVEL,
    OPTIMIZE_LEVELS,
    ProgramOptimizer,
    baseline_options,
    eliminate_common_subexpressions,
    optimize_program,
    prune_unreachable,
    push_selection_options,
    select_strategy,
    simplify_program,
    standard_options,
)
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.dtd.parser import parse_dtd
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Condition,
    Difference,
    EmptyRelation,
    EquiJoin,
    Fixpoint,
    Program,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from repro.relational.executor import Executor, execute_program
from repro.relational.schema import T as T_COLUMN
from repro.shredding.inlining import SimpleMapping
from repro.workloads.queries import (
    CROSS_QUERIES,
    DEPT_QUERIES,
    GEDML_QUERY,
    SCALABILITY_QUERY,
)
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from ..helpers import rdbms_ids


class TestOptionPresets:
    def test_baseline_disables_everything(self):
        options = baseline_options()
        assert not options.use_small_seed
        assert not options.push_selections

    def test_standard_enables_small_seed_only(self):
        options = standard_options()
        assert options.use_small_seed
        assert not options.push_selections

    def test_push_enables_both(self):
        options = push_selection_options()
        assert options.use_small_seed
        assert options.push_selections


class TestCommonSubexpressionElimination:
    def test_duplicate_assignments_merged(self):
        program = Program(
            [
                Assignment("T1", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("T2", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("T3", Compose(Scan("T1"), Scan("T2"))),
            ],
            Scan("T3"),
        )
        optimized = eliminate_common_subexpressions(program)
        assert len(optimized) == 2
        # T2's uses must have been redirected to T1.
        rewritten = optimized.expression_for("T3")
        assert str(rewritten) == "(T1 . T1)"

    def test_distinct_assignments_kept(self):
        program = Program(
            [
                Assignment("T1", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("T2", Compose(Scan("R_b"), Scan("R_a"))),
            ],
            Compose(Scan("T1"), Scan("T2")),
        )
        optimized = eliminate_common_subexpressions(program)
        assert len(optimized) == 2

    def test_chained_duplicates_collapse_transitively(self):
        program = Program(
            [
                Assignment("A1", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("A2", Compose(Scan("R_a"), Scan("R_b"))),
                Assignment("B1", Select(Scan("A1"), (Condition("F", "=", "_"),))),
                Assignment("B2", Select(Scan("A2"), (Condition("F", "=", "_"),))),
            ],
            Compose(Scan("B1"), Scan("B2")),
        )
        optimized = eliminate_common_subexpressions(program)
        assert len(optimized) == 2

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                SemiJoin(Scan("R_a"), Scan("R_b"), "T", "F"),
                SemiJoin(Scan("R_a"), Scan("R_b"), "F", "T"),
            ),
            (
                AntiJoin(Scan("R_a"), Scan("R_b"), "T", "F"),
                AntiJoin(Scan("R_a"), Scan("R_b"), "F", "T"),
            ),
            (
                Project(Scan("R_a"), ("T", "T", "V"), ("F", "T", "V")),
                Project(Scan("R_a"), ("T", "T", "V")),
            ),
            (
                EquiJoin(Scan("R_a"), Scan("R_b"), "T", "F", (("L", "F", "F"), ("R", "T", "T"))),
                EquiJoin(Scan("R_a"), Scan("R_b"), "T", "F", (("L", "F", "F"), ("L", "T", "T"))),
            ),
            (
                Select(Scan("R_a"), (Condition("V", "=", 1),)),
                Select(Scan("R_a"), (Condition("V", "=", True),)),
            ),
            (
                Select(Scan("R_a"), (Condition("V", "=", 1),)),
                Select(Scan("R_a"), (Condition("V", "=", 1.0),)),
            ),
        ],
        ids=["semijoin-columns", "antijoin-columns", "project-aliases",
             "equijoin-output", "condition-bool", "condition-float"],
    )
    def test_expressions_equal_only_in_print_stay_apart(self, first, second):
        # Each pair prints alike or compares equal field by field in Python
        # (1 == 1.0 == True), yet the two temporaries hold different relations.
        program = Program(
            [Assignment("T1", first), Assignment("T2", second)],
            Union((Scan("T1"), Scan("T2"))),
        )
        optimized = eliminate_common_subexpressions(program)
        assert optimized.temporaries() == ["T1", "T2"]
        assert str(optimized.result) == "(T1 UNION T2)"

    def test_equal_conditions_still_merge(self):
        program = Program(
            [
                Assignment("T1", Select(Scan("R_a"), (Condition("V", "=", 1),))),
                Assignment("T2", Select(Scan("R_a"), (Condition("V", "=", 1),))),
            ],
            Union((Scan("T1"), Scan("T2"))),
        )
        optimized = eliminate_common_subexpressions(program)
        assert optimized.temporaries() == ["T1"]

    def test_semantics_preserved_on_real_translation(self, dept_dtd, dept_tree, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        result = translator.translate("dept//student/qualified//course")
        optimized = eliminate_common_subexpressions(result.program)
        assert len(optimized) <= len(result.program)
        original_rows, _ = execute_program(dept_shredded.database, result.program)
        optimized_rows, _ = execute_program(dept_shredded.database, optimized)
        assert original_rows.rows == optimized_rows.rows

    def test_cse_reduces_size_when_same_rec_used_twice(self, cross_dtd):
        translator = XPathToSQLTranslator(cross_dtd)
        result = translator.translate("a//d | a//c")
        optimized = eliminate_common_subexpressions(result.program)
        assert len(optimized) <= len(result.program)


class TestSimplifyProgram:
    def test_adjacent_selections_merge(self):
        program = Program(
            [],
            Select(
                Select(Scan("R_a"), (Condition("F", "=", "_"),)),
                (Condition("V", "=", "x"),),
            ),
        )
        simplified = simplify_program(program)
        result = simplified.result
        assert isinstance(result, Select)
        assert isinstance(result.input, Scan)
        assert len(result.conditions) == 2

    def test_nested_projections_compose(self):
        inner = Project(Scan("R_a"), ("T", "T", "V"), ("F", "T", "V"))
        outer = Project(inner, ("F", "T", "V"))
        simplified = simplify_program(Program([], outer))
        result = simplified.result
        assert isinstance(result, Project)
        assert isinstance(result.input, Scan)
        assert result.columns == ("T", "T", "V")

    def test_union_flattens_and_dedupes(self):
        union = Union(
            (
                Scan("R_a"),
                Union((Scan("R_a"), Scan("R_b"))),
                EmptyRelation(),
            )
        )
        simplified = simplify_program(Program([], union))
        result = simplified.result
        assert isinstance(result, Union)
        assert [str(child) for child in result.inputs] == ["R_a", "R_b"]

    def test_union_keeps_branches_that_differ_in_join_columns(self):
        union = Union(
            (
                SemiJoin(Scan("R_a"), Scan("R_b"), "T", "F"),
                SemiJoin(Scan("R_a"), Scan("R_b"), "F", "T"),
            )
        )
        result = simplify_program(Program([], union)).result
        assert isinstance(result, Union)
        assert [child.left_column for child in result.inputs] == ["T", "F"]

    def test_operators_over_empty_inputs_fold(self):
        empty = EmptyRelation()
        assert isinstance(
            simplify_program(Program([], Compose(Scan("R_a"), empty))).result,
            EmptyRelation,
        )
        assert isinstance(
            simplify_program(Program([], Fixpoint(empty))).result, EmptyRelation
        )
        # An empty probe never filters anything out of an anti-join.
        assert str(
            simplify_program(Program([], AntiJoin(Scan("R_a"), empty))).result
        ) == "R_a"
        assert str(
            simplify_program(Program([], Difference(Scan("R_a"), empty))).result
        ) == "R_a"


class TestReachabilityPruning:
    """The schema-aware level-2 pass over hand-built programs."""

    def _dtd(self):
        return samples.dept_dtd()

    def test_impossible_compose_collapses(self):
        # cno has no children, so R_cno . R_course joins nothing, ever.
        dtd = self._dtd()
        program = Program([], Compose(Scan("R_cno"), Scan("R_course")))
        pruned = prune_unreachable(program, dtd)
        assert isinstance(pruned.result, EmptyRelation)

    def test_possible_compose_survives(self):
        dtd = self._dtd()
        program = Program([], Compose(Scan("R_dept"), Scan("R_course")))
        pruned = prune_unreachable(program, dtd)
        assert not isinstance(pruned.result, EmptyRelation)

    def test_union_drops_dead_branches(self):
        dtd = self._dtd()
        union = Union(
            (
                Compose(Scan("R_dept"), Scan("R_course")),
                Compose(Scan("R_cno"), Scan("R_course")),  # dead
            )
        )
        pruned = prune_unreachable(Program([], union), dtd)
        assert "R_cno" not in str(pruned.result)

    def test_root_filter_on_non_root_scan_collapses(self):
        # Only the document root has F = '_'; course rows never do.
        dtd = self._dtd()
        program = Program([], Select(Scan("R_course"), (Condition("F", "=", "_"),)))
        pruned = prune_unreachable(program, dtd)
        assert isinstance(pruned.result, EmptyRelation)

    def test_value_selection_on_valueless_type_collapses(self):
        # prereq carries no PCDATA, so V = 'x' can never hold there.
        dtd = self._dtd()
        program = Program([], Select(Scan("R_prereq"), (Condition("V", "=", "x"),)))
        pruned = prune_unreachable(program, dtd)
        assert isinstance(pruned.result, EmptyRelation)

    def test_semijoin_against_dead_probe_collapses(self):
        dtd = self._dtd()
        probe = Compose(Scan("R_cno"), Scan("R_course"))  # empty
        program = Program([], SemiJoin(Scan("R_course"), probe))
        pruned = prune_unreachable(program, dtd)
        assert isinstance(pruned.result, EmptyRelation)

    def test_dead_temporaries_are_eliminated(self):
        dtd = self._dtd()
        program = Program(
            [
                Assignment("T1", Compose(Scan("R_cno"), Scan("R_course"))),
                Assignment("T2", Compose(Scan("R_dept"), Scan("R_course"))),
            ],
            Union((Scan("T1"), Scan("T2"))),
        )
        pruned = prune_unreachable(program, dtd)
        assert pruned.temporaries() == ["T2"]

    def test_pruning_preserves_execution_results(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(
            dept_dtd, config=EngineConfig(optimize_level=0)
        )
        for query in ("dept//project", "dept/course[not //project]"):
            program = translator.translate(query).program
            pruned = prune_unreachable(program, dept_dtd)
            original, _ = execute_program(dept_shredded.database, program)
            rewritten, _ = execute_program(dept_shredded.database, pruned)
            assert original.rows == rewritten.rows


class TestOptimizeLevels:
    def test_level_0_is_identity(self, cross_dtd):
        translator = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(optimize_level=0)
        )
        program = translator.translate("a//d").program
        assert str(optimize_program(program, 0, dtd=cross_dtd)) == str(program)

    WORKLOADS = {
        "dept": (*DEPT_QUERIES.values(), "dept//student/qualified//course"),
        "cross": (*CROSS_QUERIES.values(), SCALABILITY_QUERY),
        "gedml": (GEDML_QUERY,),
    }

    @pytest.mark.parametrize("dtd_name", sorted(WORKLOADS))
    def test_levels_shrink_monotonically(self, dtd_name):
        # Summed over each paper workload's queries: operators and
        # assignments never grow with the level, and CSE always fires.
        dtd = samples.paper_dtds()[dtd_name]
        queries = self.WORKLOADS[dtd_name]
        translator = XPathToSQLTranslator(dtd, config=EngineConfig(optimize_level=0))
        raws = [translator.translate(query).program for query in queries]
        operators, assignments = {}, {}
        for level in OPTIMIZE_LEVELS:
            programs = [optimize_program(raw, level, dtd=dtd) for raw in raws]
            operators[level] = sum(p.operator_profile().total for p in programs)
            assignments[level] = sum(len(p) for p in programs)
        for sizes in (operators, assignments):
            assert sizes[2] <= sizes[1] < sizes[0], (dtd_name, sizes)

    def test_schema_dead_query_collapses_entirely(self, cross_dtd, cross_shredded):
        translators = {
            level: XPathToSQLTranslator(
                cross_dtd, config=EngineConfig(optimize_level=level)
            )
            for level in OPTIMIZE_LEVELS
        }
        backends = [
            create_backend(name, cross_shredded.database) for name in ("memory", "sqlite")
        ]
        try:
            for query in ("b", "a/a", "b//d"):
                programs = {
                    level: translator.translate(query).program
                    for level, translator in translators.items()
                }
                collapsed = programs[2]
                assert len(collapsed) == 0, query
                assert isinstance(collapsed.result, EmptyRelation), query
                assert collapsed.operator_profile().total == 0, query
                for backend in backends:
                    for level, program in programs.items():
                        ids = backend.execute(program).node_ids()
                        assert not ids, (query, backend.name, level)
        finally:
            for backend in backends:
                backend.close()

    def test_invalid_level_rejected(self, cross_dtd):
        with pytest.raises(ValueError):
            ProgramOptimizer(dtd=cross_dtd, level=7)
        with pytest.raises(ValueError):
            XPathToSQLTranslator(cross_dtd, config=EngineConfig(optimize_level=-1))

    def test_default_level_is_2(self, cross_dtd):
        assert DEFAULT_OPTIMIZE_LEVEL == 2
        assert XPathToSQLTranslator(cross_dtd).optimize_level == 2


class TestSelectStrategy:
    def test_cyclic_region_uses_interval(self):
        # Recursive regions need real transitive closure: the interval
        # encoding answers it with one range join instead of a fixpoint.
        assert select_strategy(samples.cross_dtd(), "a//d") is DescendantStrategy.INTERVAL
        assert select_strategy(samples.gedml_dtd(), "even//data") is DescendantStrategy.INTERVAL

    def test_acyclic_region_unfolds(self):
        library = parse_dtd(
            "root library\n"
            "library -> shelf*\n"
            "shelf -> book*\n"
            "book -> title, author*\n"
            "title -> EMPTY #text\n"
            "author -> EMPTY #text\n",
            name="library",
        )
        auto = XPathToSQLTranslator(
            library, config=EngineConfig(strategy=DescendantStrategy.AUTO)
        )
        for query in ("library//title", "library//book[author]/title"):
            assert select_strategy(library, query) is DescendantStrategy.CYCLEE
            # Unfolding leaves the program recursion-free.
            profile = auto.translate(query).operator_profile()
            assert profile.lfps == 0 and profile.recursive_unions == 0, query

    def test_no_descendant_step_defaults_to_cycleex(self):
        assert select_strategy(samples.cross_dtd(), "a/b") is DescendantStrategy.CYCLEEX

    def test_wide_dags_fall_back_to_interval(self):
        # The complete-DAG family is the paper's exponential-unfolding case:
        # no recursion, but unfolding blows up, so the range join wins.
        dag = samples.complete_dag_dtd(12)
        root = dag.root
        assert (
            select_strategy(dag, f"{root}//{dag.element_types[-1]}")
            is DescendantStrategy.INTERVAL
        )

    def test_qualifier_regions_count(self):
        # The // inside the qualifier touches the cyclic course region.
        dtd = samples.dept_dtd()
        assert (
            select_strategy(dtd, "dept/course[//project]")
            is DescendantStrategy.INTERVAL
        )

    def test_auto_pipeline_answers_match_concrete(self, cross_dtd, cross_shredded):
        auto = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(strategy=DescendantStrategy.AUTO)
        )
        fixed = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(strategy=DescendantStrategy.CYCLEEX)
        )
        for query in ("a//d", "a/b//c/d", "a[not //c]"):
            assert rdbms_ids(auto, query, cross_shredded) == rdbms_ids(
                fixed, query, cross_shredded
            )


class TestPushSelectionEffect:
    def test_push_reduces_fixpoint_work(self, cross_dtd, cross_tree, cross_shredded):
        query = 'a/b[text() = "b-0"]//c/d'
        pushed = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(use_small_seed=True, push_selections=True)
        )
        plain = XPathToSQLTranslator(
            cross_dtd, config=EngineConfig(use_small_seed=True, push_selections=False)
        )
        # Measured on the tuple executor, which evaluates every operator in
        # full: the columnar engine restricts the plain program's closures to
        # the origins the root selection reaches at execution time, and there
        # the plain program materializes fewer tuples than the pushed one.
        database = cross_shredded.database
        push = Executor(database)
        push.run(pushed.translate(query).program)
        plain_run = Executor(database)
        plain_run.run(plain.translate(query).program)
        assert push.stats.tuples_materialized <= plain_run.stats.tuples_materialized

    def test_push_and_plain_agree(self, cross_dtd, cross_tree, cross_shredded):
        query = 'a/b//c/d[text() = "d-1"]'
        expected = {n.node_id for n in evaluate_xpath(cross_tree, parse_xpath(query))}
        for config in (
            EngineConfig(use_small_seed=True, push_selections=False),
            EngineConfig(use_small_seed=True, push_selections=True),
            EngineConfig(use_small_seed=False, push_selections=False),
        ):
            translator = XPathToSQLTranslator(cross_dtd, config=config)
            got = set(rdbms_ids(translator, query, cross_shredded))
            assert got == expected


class TestSmallSeedEffect:
    """Sect. 5.2's small ``(E)*`` seed (``use_small_seed``), stated as the
    programs and counts it produces rather than as times."""

    @pytest.mark.parametrize("strategy", ["cycleex", "recursive-union"])
    def test_small_seed_changes_no_program_without_cyclee(self, cross_dtd, strategy):
        for query in CROSS_QUERIES.values():
            small, full = (
                XPathToSQLTranslator(
                    cross_dtd, config=EngineConfig(strategy=strategy, use_small_seed=seed)
                ).translate(query).program
                for seed in (True, False)
            )
            assert str(small) == str(full), query

    def test_small_seed_keeps_cyclee_answers_and_join_work(self, cross_dtd, cross_shredded):
        # Only the seeds' sizes differ; which of the two materializes more
        # tuples depends on the document, so no direction is asserted.
        for query in CROSS_QUERIES.values():
            runs = []
            for seed in (True, False):
                program = XPathToSQLTranslator(
                    cross_dtd, config=EngineConfig(strategy="cyclee", use_small_seed=seed)
                ).translate(query).program
                executor = Executor(cross_shredded.database)
                answer = executor.run(program).column_values(T_COLUMN)
                runs.append((answer, executor.stats.join_output_rows))
            small, full = runs
            assert small[0] == full[0], query
            assert small[1] == full[1] > 0, query
