"""Tests for the experiment harness and the per-figure experiment modules.

Most run tiny configurations so they are fast; the answer-size checks run
the ``--quick`` sweeps themselves.  The figure-scale runs are
``repro experiment expN``, whose timings are reported, not asserted.
"""

from collections import defaultdict

import pytest

from repro.api import EngineConfig
from repro.backends import create_backend
from repro.dtd import samples
from repro.experiments import exp1, exp2, exp3, exp4, exp5, harness
from repro.experiments.harness import (
    Approach,
    default_approaches,
    format_table,
    measure_query,
)


class TestHarness:
    def test_default_approaches_cover_r_e_x(self):
        names = [a.name for a in default_approaches()]
        assert names == ["R", "E", "X"]
        names_without_e = [a.name for a in default_approaches(include_cyclee=False)]
        assert names_without_e == ["R", "X"]

    def test_measure_query_records_fields(self, cross_dtd, cross_shredded):
        approach = Approach("X", EngineConfig())
        measured = measure_query(approach, cross_dtd, cross_shredded, "a//d", "unit")
        assert measured.approach == "X"
        assert measured.dataset == "unit"
        assert measured.execution_seconds >= 0
        assert measured.total_seconds >= measured.execution_seconds
        assert measured.document_elements == cross_shredded.tree.size()

    def test_measurements_agree_across_approaches(self, cross_dtd, cross_shredded):
        rows = [
            measure_query(approach, cross_dtd, cross_shredded, "a//d")
            for approach in default_approaches()
        ]
        assert len({row.result_rows for row in rows}) == 1

    def test_each_timed_step_starts_right_after_a_collection(
        self, cross_dtd, cross_shredded, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(harness.gc, "collect", lambda: calls.append("collect"))
        approach = Approach("X", EngineConfig())
        translator = approach.translator(cross_dtd)
        translate = translator.translate_uncached

        def translate_spy(query):
            calls.append("translate")
            return translate(query)

        monkeypatch.setattr(translator, "translate_uncached", translate_spy)
        engine = create_backend("memory", cross_shredded.database)
        execute = engine.execute

        def execute_spy(program):
            calls.append("execute")
            return execute(program)

        monkeypatch.setattr(engine, "execute", execute_spy)
        measure_query(
            approach, cross_dtd, cross_shredded, "a//d",
            translator=translator, engine=engine,
        )
        assert calls == ["collect", "translate", "collect", "execute"]

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1), ("longer", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        # Every cell is padded to its column's width, so every line is too.
        assert {len(line) for line in lines} == {len(lines[0])}


class TestExperimentModules:
    def test_exp1_runs_and_summarizes(self):
        rows = exp1.run(
            max_elements=400,
            xl_values=(6,),
            xr_values=(3,),
            queries={"Qa": "a/b//c/d"},
        )
        assert len(rows) == 2 * 3  # 2 datasets x 3 approaches x 1 query
        summary = exp1.summarize(rows)
        assert "Qa" in summary and "approach" in summary

    def test_exp1_measures_every_approach(self):
        rows = exp1.run(max_elements=300, xl_values=(6,), xr_values=(), queries={"Qc": "a[not //c]"})
        assert {row.approach for row in rows} == {"R", "E", "X"}

    def test_exp2_push_vs_nopush(self):
        rows = exp2.run(max_elements=400, selected_sizes=(100,))
        assert len(rows) == 2  # Qe and Qf
        for row in rows:
            assert row.push_seconds >= 0 and row.nopush_seconds >= 0
            assert row.selected_actual >= 1
        assert "speedup" in exp2.summarize(rows)

    def test_exp3_scales_dataset_sizes(self):
        rows = exp3.run(sizes=(200, 400))
        assert len(rows) == 2 * 3
        small = [r for r in rows if r.dataset.startswith("200")]
        large = [r for r in rows if r.dataset.startswith("400")]
        assert small and large
        assert "approach" in exp3.summarize(rows)

    def test_exp4_bioml_cases(self):
        rows = exp4.run_bioml(max_elements=400, cases=exp4.BIOML_CASES[:2])
        assert {row.approach for row in rows} == {"R", "E", "X"}
        assert len(rows) == 2 * 3
        assert "case" in rows[0].dataset

    def test_exp4_gedml(self):
        rows = exp4.run_gedml(max_elements=400, xl_values=(8,), xr_values=())
        assert len(rows) == 3
        assert all(row.query == "even//data" for row in rows)

    def test_exp5_table5_rows(self):
        rows = exp5.run(dtds=[("Cross (Fig. 11a)", samples.cross_dtd)])
        assert len(rows) == 1
        row = rows[0]
        assert row.nodes == 4 and row.edges == 5 and row.cycles == 2
        # CycleEX must never use more operators than CycleE on any pair.
        assert row.cycleex_all[1] <= row.cyclee_all[1]
        assert row.cycleex_lfp[1] <= row.cyclee_lfp[1]
        assert "X LFP" in exp5.summarize(rows)

    def test_exp5_operator_growth_shapes(self):
        growth = exp5.operator_growth(max_n=8)
        ns = [n for n, _, _ in growth]
        cyclee = [e for _, e, _ in growth]
        cycleex = [x for _, _, x in growth]
        assert ns == list(range(2, 9))
        # CycleE blows up exponentially; CycleEX stays quadratic.
        assert cyclee[-1] >= 2 ** (8 - 2) - 1
        assert cycleex[-1] <= 8 * 8

    def test_exp5_cycleex_never_needs_more_operators_than_cyclee(self):
        rows = exp5.run()
        assert [row.dtd_name for row in rows] == [name for name, _ in exp5.TABLE5_DTDS]
        for row in rows:
            # At min, max and average, for LFPs and for all operators.
            for cycleex, cyclee in ((row.cycleex_lfp, row.cyclee_lfp),
                                    (row.cycleex_all, row.cyclee_all)):
                assert all(x <= e for x, e in zip(cycleex, cyclee)), row
        gedml = rows[-1]
        assert (gedml.cycleex_all[1], gedml.cyclee_all[1]) == (37, 102)

    def test_exp3_report_quick(self):
        text = exp3.report(quick=True)
        assert text.startswith("Exp-3 (Fig. 14)")
        assert "exec_s" in text


def _assert_one_answer_size_per_group(rows, groups):
    sizes = defaultdict(set)
    for row in rows:
        sizes[(row.query, row.dataset)].add(row.result_rows)
    assert len(sizes) == groups
    assert all(len(answers) == 1 for answers in sizes.values()), dict(sizes)


class TestQuickSweepAnswers:
    """R, E and X return the same answer on every (query, document) of the
    ``--quick`` sweeps, on both backends."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_exp1(self, backend):
        rows = exp1.run(**exp1.QUICK_SWEEP, backend=backend)
        _assert_one_answer_size_per_group(rows, 12)  # 4 queries x 3 distinct shapes

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_exp3(self, backend):
        _assert_one_answer_size_per_group(exp3.run(**exp3.QUICK_SWEEP, backend=backend), 2)

    def test_exp1_measures_each_shape_once(self, monkeypatch):
        # (X_L=12, X_R=4) lies on both series: one measurement, printed twice.
        measure = exp1._measure_for_spec
        specs = []

        def counting(spec, *args):
            specs.append((spec.x_l, spec.x_r))
            return measure(spec, *args)

        monkeypatch.setattr(exp1, "_measure_for_spec", counting)
        rows = exp1.run(**exp1.QUICK_SWEEP)
        assert sorted(specs) == [(8, 4), (12, 4), (12, 8)]
        datasets = [row.dataset for row in rows[:: len(rows) // 4]]
        assert datasets == ["XL=8,XR=4", "XL=12,XR=4", "XL=12,XR=4", "XL=12,XR=8"]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_exp1_temporaries_do_not_depend_on_the_order_of_approaches(self, backend):
        # On one engine per dataset, a measurement evaluates its own
        # program's temporaries whatever ran before it.
        def evaluated(approaches):
            rows = exp1.run(**exp1.QUICK_SWEEP, approaches=approaches, backend=backend)
            counts = defaultdict(set)
            for row in rows:
                counts[row.query, row.dataset, row.approach].add(
                    row.stats["temporaries_evaluated"]
                )
            return counts

        approaches = default_approaches()
        forward = evaluated(approaches)
        assert len(forward) == 4 * 3 * 3  # queries x distinct shapes x approaches
        assert all(len(counts) == 1 for counts in forward.values())
        assert evaluated(approaches[::-1]) == forward

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_exp4(self, backend):
        rows = exp4.run_bioml(**exp4.QUICK_BIOML, backend=backend) + exp4.run_gedml(
            **exp4.QUICK_GEDML, backend=backend
        )
        _assert_one_answer_size_per_group(rows, len(exp4.BIOML_CASES) + 2)


class TestBackendAxis:
    def test_measure_query_on_sqlite_matches_memory_rows(self, cross_dtd, cross_shredded):
        from repro.experiments.harness import default_approaches, measure_query

        approach = default_approaches()[-1]
        memory = measure_query(approach, cross_dtd, cross_shredded, "a//d", backend="memory")
        sqlite = measure_query(approach, cross_dtd, cross_shredded, "a//d", backend="sqlite")
        assert memory.backend == "memory"
        assert sqlite.backend == "sqlite"
        assert memory.result_rows == sqlite.result_rows
