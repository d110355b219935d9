"""Translation passes keep the nodes they do not change.

Every pass that rewrites a tree rebuilds a node only through
:meth:`~repro._support.Node.map_children`, which returns the node itself
when every child comes back as the same object.  The passes are the
optimizer's reachability pruning, clean-ups and common-subexpression
elimination, :func:`~repro.expath.simplify.simplify_query`,
:func:`~repro.relational.algebra.rename_scans` and
:func:`~repro.expath.ast.substitute`.  Run again on their own output, they
return the very same objects and construct no node.  That is checked here
over the 396 level-2 translations of the program-digest table.

``children()`` and ``map_children()`` read one declaration per class, the
class's ``_child_fields``.  The second half checks that they agree for
every node class.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Tuple

import pytest

from repro._support import Node
from repro.core.optimize import ProgramOptimizer
from repro.expath import ast as expath_ast
from repro.expath.ast import (
    EAnd,
    ELabel,
    ENot,
    EOr,
    EPathQual,
    EQualified,
    EQualifier,
    ESlash,
    EStar,
    ETextEquals,
    EUnion,
    Equation,
    Expr,
    substitute,
)
from repro.expath.simplify import simplify_query
from repro.relational import algebra
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Condition,
    Difference,
    EdgeStep,
    EquiJoin,
    Fixpoint,
    Intersect,
    IntervalJoin,
    Project,
    RAExpr,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
    rename_scans,
)

from .test_program_digests import digest_translations

ABSTRACT = {RAExpr, Expr, EQualifier}
NODE_CLASSES = sorted(
    (
        cls
        for module in (algebra, expath_ast)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, Node)
        and cls.__module__ == module.__name__
        and cls not in ABSTRACT
    ),
    key=lambda cls: (cls.__module__, cls.__name__),
)


class Constructions:
    """Counts every node construction while installed."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.count = 0
        for cls in NODE_CLASSES:
            monkeypatch.setattr(cls, "__init__", self._counting(cls.__init__))

    def _counting(self, init):
        def counting_init(node, *args, **kwargs):
            self.count += 1
            init(node, *args, **kwargs)

        return counting_init


@pytest.fixture(scope="module")
def level2_translations():
    """The level-2 digest translations: workload cases at O2, and the fuzz queries."""
    return [
        (key, translator, result)
        for key, translator, result in digest_translations()
        if key.endswith("/O2") or key.startswith("fuzz/")
    ]


def test_the_level2_set_is_the_digest_tables(level2_translations):
    assert len(level2_translations) == 396


def _expressions(program: algebra.Program) -> Iterator[RAExpr]:
    for assignment in program.assignments:
        yield assignment.expression
    yield program.result


def test_the_optimizer_keeps_its_own_output(level2_translations, monkeypatch):
    optimizers = {}
    for key, translator, result in level2_translations:
        program = result.program
        optimizer = optimizers.setdefault(
            id(translator),
            ProgramOptimizer(dtd=translator.dtd, mapping=translator.mapping, level=2),
        )
        constructions = Constructions(monkeypatch)
        again = optimizer.run(program)
        monkeypatch.undo()
        assert constructions.count == 0, key
        assert len(again.assignments) == len(program.assignments), key
        assert all(a is b for a, b in zip(again.assignments, program.assignments)), key
        assert again.result is program.result, key


def test_simplify_query_keeps_its_own_output(level2_translations, monkeypatch):
    for key, _, result in level2_translations:
        extended = result.extended
        constructions = Constructions(monkeypatch)
        again = simplify_query(extended)
        monkeypatch.undo()
        assert constructions.count == 0, key
        assert len(again.equations) == len(extended.equations), key
        for before, after in zip(extended.equations, again.equations):
            assert after.expression is before.expression, key
        assert again.result is extended.result, key


def test_renaming_and_substituting_nothing_keep_every_node(level2_translations, monkeypatch):
    for key, _, result in level2_translations:
        constructions = Constructions(monkeypatch)
        for expr in _expressions(result.program):
            assert rename_scans(expr, {}) is expr, key
        extended = result.extended
        for expr in [eq.expression for eq in extended.equations] + [extended.result]:
            assert substitute(expr, {}) is expr, key
        monkeypatch.undo()
        assert constructions.count == 0, key


# ---------------------------------------------------------------------------
# One declaration per class
# ---------------------------------------------------------------------------


def _samples() -> Dict[str, Node]:
    """One instance of every node class that has children, under a label."""
    a, b, c = Scan("a"), Scan("b"), Scan("c")
    x, y = ELabel("x"), ELabel("y")
    v, w = ETextEquals("v"), ETextEquals("w")
    return {
        "Select": Select(a, (Condition("F", "=", "_"),)),
        "Project": Project(a, ("T", "T", "V"), ("F", "T", "V")),
        "Compose": Compose(a, b),
        "EquiJoin": EquiJoin(a, b, "T", "F", (("L", "F", "F"), ("R", "T", "T"))),
        "SemiJoin": SemiJoin(a, b),
        "AntiJoin": AntiJoin(a, b),
        "Union": Union((a, b, c)),
        "Difference": Difference(a, b),
        "Intersect": Intersect(a, b),
        "TagProject": TagProject(a, "t"),
        "IntervalJoin": IntervalJoin(a, b, Scan("DOC_ORDER")),
        "Fixpoint": Fixpoint(a, b, c),
        "Fixpoint/unanchored": Fixpoint(a),
        "Fixpoint/target": Fixpoint(a, None, c),
        "RecursiveUnion": RecursiveUnion(
            TagProject(a, "s"), (EdgeStep(b, "s", "t"), EdgeStep(c, "t", "s"))
        ),
        "EdgeStep": EdgeStep(b, "s", "t"),
        "Assignment": Assignment("T1", a),
        "ESlash": ESlash(x, y),
        "EUnion": EUnion(x, y),
        "EStar": EStar(x),
        "EQualified": EQualified(x, v),
        "EPathQual": EPathQual(x),
        "ENot": ENot(v),
        "EAnd": EAnd(v, w),
        "EOr": EOr(v, w),
        "Equation": Equation("X", x),
    }


SAMPLES = _samples()


def _leaf(cls: type) -> Node:
    return cls(*(f"{name}-1" for name in cls._fields))


LEAVES = [cls for cls in NODE_CLASSES if not cls._child_fields]


def test_every_class_with_children_has_a_sample():
    declared = {cls for cls in NODE_CLASSES if cls._child_fields}
    assert declared == {type(sample) for sample in SAMPLES.values()}


def _visits(node: Node) -> Tuple[Node, List[Node]]:
    visited: List[Node] = []

    def record(child: Node) -> Node:
        visited.append(child)
        return child

    return node.map_children(record), visited


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_map_children_visits_exactly_the_children(label):
    node = SAMPLES[label]
    kept, visited = _visits(node)
    assert kept is node
    assert [id(child) for child in visited] == [id(child) for child in node.children()]


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_map_children_rebuilds_only_the_children(label):
    node = SAMPLES[label]
    rebuilt = node.map_children(copy.copy)
    assert type(rebuilt) is type(node) and rebuilt is not node
    # Every other field is carried over, so the copy equals the original...
    assert rebuilt == node and hash(rebuilt) == hash(node)
    # ...and each child is the copy, not the original.
    _, originals = _visits(node)
    _, copies = _visits(rebuilt)
    assert len(copies) == len(originals)
    assert all(a == b and a is not b for a, b in zip(copies, originals))


@pytest.mark.parametrize(
    "label,name",
    [
        (label, name)
        for label, node in sorted(SAMPLES.items())
        for name in node._child_fields
        if not name.endswith("*")
    ],
)
def test_a_none_field_holds_no_child(label, name):
    # Only a Fixpoint's anchors are None in practice, but the classes with
    # one or two children have accessors of their own, and they must read
    # a None field the way the generic ones do.
    sample = SAMPLES[label]
    cls = type(sample)
    node = cls(*(None if field == name else getattr(sample, field) for field in cls._fields))
    kept, visited = _visits(node)
    assert kept is node
    assert all(child is not None for child in visited)
    assert [id(child) for child in node.children()] == [id(child) for child in visited]
    assert getattr(node.map_children(copy.copy), name) is None


@pytest.mark.parametrize("cls", LEAVES, ids=lambda cls: cls.__qualname__)
def test_a_leaf_has_no_children(cls):
    node = _leaf(cls)
    kept, visited = _visits(node)
    assert kept is node and visited == [] and node.children() == ()


def _scan_names(expr: RAExpr) -> List[str]:
    names = [expr.name] if isinstance(expr, Scan) else []
    for child in expr.children():
        names += _scan_names(child)
    return names


@pytest.mark.parametrize(
    "label", sorted(label for label, node in SAMPLES.items() if isinstance(node, RAExpr))
)
def test_rename_scans_reaches_every_scan(label):
    node = SAMPLES[label]
    renames = {name: f"{name}'" for name in _scan_names(node)}
    renamed = rename_scans(node, renames)
    assert sorted(_scan_names(renamed)) == sorted(renames.values())
