"""Unit tests for the relational-algebra AST and Program analysis."""

import pytest

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
    IntervalJoin,
    Program,
    Project,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
    rename_scans,
)


def _program():
    base = Union((Scan("R_b"), Compose(Scan("R_c"), Scan("R_b"))))
    assignments = [
        Assignment("base", base),
        Assignment("closure", Fixpoint(Scan("base"))),
        Assignment("unused", Compose(Scan("R_a"), Scan("R_a"))),
    ]
    result = Select(Compose(Scan("R_a"), Scan("closure")), (Condition("F", "=", "_"),))
    return Program(assignments, result)


class TestProgramStructure:
    def test_temporaries_and_lookup(self):
        program = _program()
        assert program.temporaries() == ["base", "closure", "unused"]
        assert isinstance(program.expression_for("closure"), Fixpoint)
        with pytest.raises(KeyError):
            program.expression_for("nope")

    def test_str_lists_assignments_and_result(self):
        text = str(_program())
        assert "base <-" in text
        assert "RESULT <-" in text

    def test_pruned_drops_unused_assignments(self):
        pruned = _program().pruned()
        assert pruned.temporaries() == ["base", "closure"]

    def test_pruned_keeps_transitive_dependencies(self):
        pruned = _program().pruned()
        assert "base" in pruned.temporaries()

    def test_len_counts_assignments(self):
        assert len(_program()) == 3


class TestOperatorProfile:
    def test_profile_counts(self):
        profile = _program().operator_profile()
        assert profile.lfps == 1
        assert profile.joins == 3  # two composes in assignments + one in result
        assert profile.unions == 1
        assert profile.selections == 1
        assert profile.total == profile.joins + profile.unions + profile.lfps

    def test_union_with_many_inputs_counts_n_minus_one(self):
        program = Program([], Union((Scan("a"), Scan("b"), Scan("c"))))
        assert program.operator_profile().unions == 2

    def test_recursive_union_counts_steps(self):
        recursive = RecursiveUnion(
            TagProject(Scan("R_b"), "b"),
            (
                EdgeStep(Scan("R_b"), "a", "b"),
                EdgeStep(Scan("R_c"), "b", "c"),
            ),
        )
        profile = Program([], recursive).operator_profile()
        assert profile.recursive_unions == 1
        assert profile.joins == 2
        assert profile.unions == 2

    def test_semijoin_and_difference_counted(self):
        expr = Difference(SemiJoin(Scan("a"), Scan("b")), AntiJoin(Scan("a"), Scan("c")))
        profile = Program([], expr).operator_profile()
        assert profile.joins == 2
        assert profile.differences == 1

    def test_profile_as_dict(self):
        as_dict = _program().operator_profile().as_dict()
        assert as_dict["lfps"] == 1
        assert "total" in as_dict


class TestExpressionStrings:
    def test_fixpoint_str_mentions_anchor(self):
        plain = Fixpoint(Scan("R"))
        anchored = Fixpoint(Scan("R"), source_anchor=Scan("S"))
        assert "source" not in str(plain)
        assert "source=S" in str(anchored)

    def test_condition_str(self):
        assert str(Condition("V", "=", "x")) == "V = 'x'"

    def test_identity_str(self):
        assert str(IdentityRelation()) == "R_id"

    def test_tag_project_str(self):
        assert str(TagProject(Scan("R"), "c")) == "TAG[c](R)"

    def test_children_exposed(self):
        compose = Compose(Scan("a"), Scan("b"))
        assert compose.children() == (Scan("a"), Scan("b"))
        fixpoint = Fixpoint(Scan("a"), source_anchor=Scan("s"), target_anchor=Scan("t"))
        assert len(fixpoint.children()) == 3


class TestCanonicalForm:
    def test_condition_equality_includes_the_value_type(self):
        assert Condition("V", "=", 1) == Condition("V", "=", 1)
        assert hash(Condition("V", "=", 1)) == hash(Condition("V", "=", 1))
        assert Condition("V", "=", 1) != Condition("V", "=", True)
        assert Condition("V", "=", 1) != Condition("V", "=", 1.0)
        assert len({Condition("V", "=", 1), Condition("V", "=", True)}) == 2

    def test_rename_reaches_every_scan(self):
        scans = [Scan(f"t{index}") for index in range(12)]
        expr = Union(
            (
                Select(scans[0], (Condition("F", "=", "_"),)),
                Project(scans[1], ("T", "T", "V"), ("F", "T", "V")),
                TagProject(scans[2], "c"),
                Compose(scans[3], IdentityRelation()),
                EquiJoin(scans[4], scans[5], "T", "F", (("L", "F", "F"),)),
                SemiJoin(scans[6], scans[7], "F", "T"),
                AntiJoin(scans[8], Scan("base")),
                Difference(Intersect(scans[9], scans[10]), scans[11]),
                Fixpoint(Scan("t0"), source_anchor=Scan("t1"), target_anchor=Scan("t2")),
                RecursiveUnion(Scan("t3"), (EdgeStep(Scan("t4"), "a", "b"),)),
                IntervalJoin(Scan("t5"), Scan("t6"), Scan("t7")),
            )
        )
        renamed = rename_scans(expr, {f"t{index}": f"u{index}" for index in range(12)})
        names = {node.name for node in _walk(renamed) if isinstance(node, Scan)}
        assert names == {f"u{index}" for index in range(12)} | {"base"}
        # Everything but the names is kept, so renaming back restores expr.
        back = rename_scans(renamed, {f"u{index}": f"t{index}" for index in range(12)})
        assert back == expr


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)
