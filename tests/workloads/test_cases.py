"""The fixed workloads as fuzz cases: what ``repro diff`` replays.

Every query in ``repro.workloads.queries`` (plus the non-recursive library
DTD) becomes one case.  Their answers are checked against the XPath
evaluator in ``tests/properties/test_executor_equivalence.py`` (both
executors, SQLite and the level-0 program, under three configurations)
and, on the full engine grid, by ``repro diff``.
"""

from repro.workloads import queries as wl
from repro.workloads.cases import library_dtd, workload_cases


class TestWorkloadCases:
    def test_cover_recursive_and_non_recursive_dtds(self):
        cases = workload_cases()
        recursive = [case for case in cases if case.dtd().is_recursive()]
        flat = [case for case in cases if not case.dtd().is_recursive()]
        assert recursive and flat

    def test_cover_every_workload_query(self):
        covered = {case.query for case in workload_cases()}
        assert set(wl.DEPT_QUERIES.values()) <= covered
        assert set(wl.CROSS_QUERIES.values()) <= covered
        assert wl.SCALABILITY_QUERY in covered
        assert wl.GEDML_QUERY in covered
        assert {case.query for case in wl.BIOML_CASES} <= covered
        # The selective templates appear instantiated with a concrete value.
        for template in wl.SELECTIVE_QUERIES.values():
            prefix = template.split("{", 1)[0]
            assert any(query.startswith(prefix) for query in covered)

    def test_one_case_per_distinct_dtd_query_pair(self):
        cases = workload_cases()
        pairs = [(case.dtd_text, case.query) for case in cases]
        assert len(pairs) == len(set(pairs)) == 19
        assert len({case.label for case in cases}) == len(cases)

    def test_document_knobs(self):
        for max_elements in (200, 400):
            for case in workload_cases(max_elements=max_elements):
                document = case.document
                assert (document.x_l, document.x_r, document.seed) == (8, 3, 5)
                assert document.distinct_values == 100
                assert document.max_elements == max_elements

    def test_library_dtd_is_non_recursive(self):
        assert not library_dtd().is_recursive()
