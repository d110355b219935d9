"""Unit tests for the schema mappings (simple mapping and shared inlining)."""

import pytest

from repro.dtd import samples
from repro.errors import ShreddingError
from repro.relational.schema import DOC_ORDER, NODE_COLUMNS
from repro.shredding.inlining import SimpleMapping, shared_inlining


class TestSimpleMapping:
    def test_one_relation_per_element_type(self):
        dtd = samples.dept_dtd()
        mapping = SimpleMapping(dtd)
        assert len(mapping.relation_names()) == len(dtd.element_types)
        assert mapping.relation_for("course") == "R_course"

    def test_inverse_lookup(self):
        mapping = SimpleMapping(samples.cross_dtd())
        assert mapping.element_for("R_b") == "b"
        with pytest.raises(ShreddingError):
            mapping.element_for("R_missing")

    def test_unknown_element_type(self):
        mapping = SimpleMapping(samples.cross_dtd())
        with pytest.raises(ShreddingError):
            mapping.relation_for("zzz")

    def test_database_schema_structure(self):
        dtd = samples.cross_dtd()
        schema = SimpleMapping(dtd).database_schema()
        assert set(schema.relation_names) == {
            "R_a", "R_b", "R_c", "R_d", DOC_ORDER,
        }
        for name in schema.relation_names:
            if name == DOC_ORDER:
                assert schema.relation(name).columns == ("T", "PRE", "SIZE")
            else:
                assert schema.relation(name).columns == NODE_COLUMNS
        # The document-order side table is not a node relation: queries
        # range over R_* relations only, DOC_ORDER is join-only.
        assert set(schema.node_relations) == {"R_a", "R_b", "R_c", "R_d"}
        assert schema.relation_for_element("c") == "R_c"

    def test_custom_prefix(self):
        mapping = SimpleMapping(samples.cross_dtd(), prefix="tbl_")
        assert mapping.relation_for("a") == "tbl_a"


class TestSharedInlining:
    def test_dept_partition_heads(self):
        partition = shared_inlining(samples.dept_dtd())
        heads = {relation.head for relation in partition.relations}
        # Starred/recursive types head their own relations...
        assert {"dept", "course", "student", "project"} <= heads
        # ...while text leaves are inlined into their parents.
        assert "cno" not in heads
        assert "sno" not in heads

    def test_every_type_mapped_exactly_once(self):
        dtd = samples.dept_dtd()
        partition = shared_inlining(dtd)
        members = [m for relation in partition.relations for m in relation.members]
        assert sorted(members) == sorted(dtd.element_types)

    def test_value_columns_for_inlined_text_types(self):
        partition = shared_inlining(samples.dept_dtd())
        course_relation = partition.relation_for("cno")
        assert course_relation.head == "course"
        assert "cno" in course_relation.value_columns
        assert "title" in course_relation.value_columns

    def test_relation_columns_include_keys(self):
        partition = shared_inlining(samples.dept_dtd())
        for relation in partition.relations:
            columns = relation.columns()
            assert columns[0] == "ID"
            assert columns[1] == "parentId"

    def test_parent_code_for_shared_heads(self):
        # course has several parents (dept, prereq, qualified, required), so
        # its relation carries a parentCode column.
        partition = shared_inlining(samples.dept_dtd())
        course_relation = partition.relation_for("course")
        assert course_relation.has_parent_code
        assert "parentCode" in course_relation.columns()

    def test_no_starred_edge_inside_a_subgraph(self):
        dtd = samples.dept_dtd()
        partition = shared_inlining(dtd)
        starred_children = {spec.child for spec in dtd.edges() if spec.starred}
        for relation in partition.relations:
            inlined = set(relation.members) - {relation.head}
            assert not (inlined & starred_children)

    def test_unknown_element_lookup(self):
        partition = shared_inlining(samples.cross_dtd())
        with pytest.raises(ShreddingError):
            partition.relation_for("zzz")

    def test_database_schema_generation(self):
        partition = shared_inlining(samples.dept_dtd())
        schema = partition.database_schema()
        assert schema.relation_for_element("cno") == partition.relation_for("cno").name
        assert len(schema.relation_names) == len(partition.relations)
