"""Python plumbing shared by every layer: lazy re-exports and frozen value classes.

Lazy re-exports (PEP 562)
-------------------------
A package lists which module defines each name it re-exports and installs
the module-level ``__getattr__`` and ``__dir__`` that :func:`lazy_exports`
returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.xpath.ast": ("Label", "Path"),
        "repro.xpath.parser": ("parse_xpath",),
    })

Importing the package then loads none of those modules.  The first access
to a name imports its defining module and stores the name in the package
namespace, so later accesses are plain attribute reads.  ``dir()`` lists
every exported name before any of them is loaded.  A name that is the last
component of its module (``"repro.dtd.samples": ("samples",)``) resolves to
that submodule itself.

Frozen value classes
--------------------
:class:`Frozen` is the base of the translator's immutable node types: the
XPath, extended-XPath and relational-algebra nodes and the DTD content
models.  It gives them what ``@dataclass(frozen=True)`` would, without
generating and compiling methods for each class when its module loads.

Tree nodes
----------
:class:`Node` is the base of the trees the translation rewrites: the
extended-XPath expressions and qualifiers and the relational-algebra
expressions.  Each class names the fields that hold its children once;
:meth:`Node.children` and :meth:`Node.map_children`, the one rewrite
primitive, read that list.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import FrozenInstanceError
from operator import attrgetter, is_
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["Frozen", "Node", "lazy_exports"]


def lazy_exports(
    package: str, sources: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``sources`` maps each defining module's absolute name to the names the
    package re-exports from it.
    """
    origin: Dict[str, str] = {
        name: module for module, names in sources.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module_name = origin.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(module_name)
        value = module if module_name.endswith("." + name) else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


class Frozen:
    """Immutable value object with structural equality over its fields.

    A subclass declares its fields as class annotations, in order, and sets
    them in an explicit ``__init__`` with ``object.__setattr__``.  The base
    supplies the rest, matching what a frozen dataclass generates:

    * ``==`` holds between instances of the same class with equal fields;
    * ``hash(node) == hash(<field tuple>)``, the dataclass hash, so set
      iteration orders (and the programs emitted from them) are unchanged;
    * assigning or deleting an attribute raises
      :class:`dataclasses.FrozenInstanceError`;
    * ``repr`` reads ``ClassName(field=value, ...)``.

    Each class gets its own ``__eq__`` and ``__hash__``, closures over its
    field names, so no per-class code is generated or compiled.
    Instances keep a ``__dict__`` (no ``__slots__``), so unpickling and
    copying restore the fields without going through ``__setattr__``.
    """

    #: Field names in declaration order.
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__")
        if own:
            cls._fields = cls._fields + tuple(own)
            cls.__eq__, cls.__hash__ = _field_eq_and_hash(cls._fields)

    # Equality and hash of a class without fields; __init_subclass__
    # replaces both for a class that declares some.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return _EMPTY_TUPLE_HASH

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


_EMPTY_TUPLE_HASH = hash(())


def _field_eq_and_hash(fields: Tuple[str, ...]) -> Tuple[Callable, Callable]:
    """``__eq__`` and ``__hash__`` over ``fields``.

    A lone field is read with ``getattr``, which CPython calls faster than
    an ``attrgetter``, and hashed as a 1-tuple, as the dataclass does.
    More fields are read as one tuple by an ``attrgetter``.
    """
    if len(fields) == 1:
        (name,) = fields

        def __eq__(self: Frozen, other: object) -> bool:
            if other.__class__ is self.__class__:
                return getattr(self, name) == getattr(other, name)
            return NotImplemented

        def __hash__(self: Frozen) -> int:
            return hash((getattr(self, name),))

        return __eq__, __hash__

    values = attrgetter(*fields)

    def __eq__(self: Frozen, other: object) -> bool:
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self: Frozen) -> int:
        return hash(values(self))

    return __eq__, __hash__


class Node(Frozen):
    """A :class:`Frozen` tree node whose class names the fields holding its children.

    A subclass sets ``_child_fields`` to those field names, in field order.
    A name holds one child node, or ``None``, which is no child.  A name
    ending in ``*`` holds a tuple of children.  The items of such a tuple
    may instead all be *parts*: values of a class that sets ``_part``,
    such as a recursive union's edge steps.  A part is not a child itself;
    its own children count as the node's children.

    :meth:`children` and :meth:`map_children` both read ``_child_fields``,
    so a pass that rewrites nodes states its rules and leaves the
    rebuilding to :meth:`map_children`.
    """

    # Plain assignments, not annotations: annotations declare fields.
    _child_fields = ()
    _part = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "_child_fields" in cls.__dict__:
            cls.children, cls.map_children = _child_accessors(cls)  # type: ignore[assignment]

    def children(self) -> Tuple["Node", ...]:
        """The child nodes, in field order."""
        return ()

    def map_children(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """This node with ``fn`` applied to each child.

        Returns the node itself when every child comes back as the same
        object, so a pass that changes nothing builds nothing.  Otherwise
        the class's constructor builds a node with the new children and
        every other field unchanged.
        """
        return self


def _child_accessors(cls: type) -> Tuple[Callable, Callable]:
    """``(children, map_children)`` of ``cls``, from its ``_child_fields``.

    The generic pair below reads every declaration.  The three shapes that
    translation visits most, one or two plain children and one tuple of
    children, get closures of their own in its place, which defer to it
    when a child is ``None``: with the generic pair alone, translating the
    benchmark workloads' warm-up queries took x1.27-1.39 as long
    (CPython 3.11 on a 2-vCPU VM).
    """
    fields = cls._fields  # type: ignore[attr-defined]
    names = [name.rstrip("*") for name in cls._child_fields]  # type: ignore[attr-defined]
    is_tuple = [name.endswith("*") for name in cls._child_fields]  # type: ignore[attr-defined]
    positions = [fields.index(name) for name in names]
    get = attrgetter(*names)
    values = get if len(names) > 1 else (lambda node: (get(node),))

    def rebuild(node: Node, new: Tuple[object, ...]) -> Node:
        rebuilt = [getattr(node, name) for name in fields]
        for position, child in zip(positions, new):
            rebuilt[position] = child
        return node.__class__(*rebuilt)

    def children(node: Node) -> Tuple[Node, ...]:
        nodes: List[Node] = []
        for many, value in zip(is_tuple, values(node)):
            if many:
                nodes.extend(_items_children(value))
            elif value is not None:
                nodes.append(value)
        return tuple(nodes)

    def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
        old = values(node)
        new = tuple(
            _map_items(value, fn) if many else None if value is None else fn(value)
            for many, value in zip(is_tuple, old)
        )
        return node if all(map(is_, new, old)) else rebuild(node, new)

    if is_tuple == [True]:

        def tuple_children(node: Node) -> Tuple[Node, ...]:
            return _items_children(get(node))

        def map_tuple(node: Node, fn: Callable[[Node], Node]) -> Node:
            old = get(node)
            new = _map_items(old, fn)
            return node if new is old else rebuild(node, (new,))

        return tuple_children, map_tuple

    if is_tuple == [False]:

        def one_child(node: Node) -> Tuple[Node, ...]:
            child = get(node)
            return () if child is None else (child,)

        def map_one(node: Node, fn: Callable[[Node], Node]) -> Node:
            old = get(node)
            if old is None:
                return node
            new = fn(old)
            return node if new is old else rebuild(node, (new,))

        return one_child, map_one

    if is_tuple == [False, False]:

        def two_children(node: Node) -> Tuple[Node, ...]:
            pair = left, right = get(node)
            return children(node) if left is None or right is None else pair

        def map_two(node: Node, fn: Callable[[Node], Node]) -> Node:
            left, right = get(node)
            if left is None or right is None:
                return map_children(node, fn)
            new_left = fn(left)
            new_right = fn(right)
            if new_left is left and new_right is right:
                return node
            return rebuild(node, (new_left, new_right))

        return two_children, map_two

    return children, map_children


def _items_children(items: Tuple[Node, ...]) -> Tuple[Node, ...]:
    """The children held by a ``*`` field: its items, or its parts' children."""
    if items and items[0]._part:
        return tuple(child for item in items for child in item.children())
    return items


def _map_items(items: Tuple[Node, ...], fn: Callable[[Node], Node]) -> Tuple[Node, ...]:
    """A ``*`` field's tuple with ``fn`` applied: ``items`` itself when nothing changes."""
    if items and items[0]._part:
        new = tuple(item.map_children(fn) for item in items)
    else:
        new = tuple(map(fn, items))
    return items if all(map(is_, new, items)) else new
