"""Value semantics of the translator's node classes.

The XPath, extended-XPath, DTD content-model and relational-algebra nodes
are plain classes on :class:`repro._support.Frozen`.  Every one of them must
behave as the frozen dataclass it replaces: equality needs the same class
and equal fields, the hash is the hash of the field tuple (set iteration
orders, and so the emitted programs, depend on it), fields cannot be
assigned or deleted, pickling round-trips, and ``repr`` keeps the
dataclass format.  Each check compares against a frozen dataclass built
with the same name and fields.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro._support import Frozen
from repro.dtd import model as dtd_model
from repro.expath import ast as expath_ast
from repro.relational import algebra
from repro.xpath import ast as xpath_ast

MODULES = (xpath_ast, expath_ast, dtd_model, algebra)
ABSTRACT = {
    xpath_ast.Path,
    xpath_ast.Qualifier,
    expath_ast.Expr,
    expath_ast.EQualifier,
    dtd_model.ContentModel,
    algebra.RAExpr,
}

NODE_CLASSES = sorted(
    (
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, Frozen)
        and cls.__module__ == module.__name__
        and cls not in ABSTRACT
    ),
    key=lambda cls: (cls.__module__, cls.__name__),
)


def test_every_node_class_is_covered():
    # 13 XPath, 16 extended-XPath, 8 DTD and 18 relational-algebra classes.
    assert len(NODE_CLASSES) == 55


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_node_class_behaves_as_its_frozen_dataclass(cls):
    values = tuple(f"{name}-1" for name in cls._fields)
    node = cls(*values)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)(*values)

    # Equality needs the same class and equal fields.
    assert node == cls(*values)
    assert node == cls(**dict(zip(cls._fields, values)))
    if cls._fields:
        assert node != cls(*(f"{name}-2" for name in cls._fields))
    assert node != type(f"{cls.__name__}Subclass", (cls,), {})(*values)
    assert node != twin and node != values

    # The hash is the dataclass hash: that of the field tuple.
    assert hash(node) == hash(values) == hash(twin)

    for name in cls._fields + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, "changed")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert tuple(getattr(node, name) for name in cls._fields) == values

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(node, protocol))
        assert type(copy) is cls and copy == node and hash(copy) == hash(node)

    assert repr(node) == repr(twin)
