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
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["Frozen", "lazy_exports"]


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
