"""Abstract syntax for the XPath fragment of Sect. 2.2.

The grammar is::

    p ::= eps | A | * | p/p | //p | p UNION p | p[q]
    q ::= p | text() = c | not q | q and q | q or q

plus the special query ``EMPTYSET`` which returns the empty node set over
every document (used by the translation algorithms for pruning).

All nodes are immutable :class:`~repro._support.Frozen` values with
structural equality; ``str()`` of a node produces concrete syntax that
re-parses to an equal tree (round-trip property tested in the test suite).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union as TUnion

from repro._support import Frozen

__all__ = [
    "Path",
    "Qualifier",
    "EmptyPath",
    "EmptySet",
    "Label",
    "Wildcard",
    "Slash",
    "Descendant",
    "Union",
    "Qualified",
    "PathQual",
    "TextEquals",
    "Not",
    "And",
    "Or",
    "iter_subpaths",
    "path_size",
]


class Path(Frozen):
    """Base class of path expressions."""

    def children(self) -> Tuple["Path", ...]:
        """Immediate path sub-expressions (not qualifiers)."""
        return ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class Qualifier(Frozen):
    """Base class of qualifier ([q]) expressions."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


class EmptyPath(Path):
    """The empty path ``eps``: returns the context node itself."""

    def __str__(self) -> str:
        return "."


class EmptySet(Path):
    """The special query returning the empty set over all documents."""

    def __str__(self) -> str:
        return "EMPTYSET"


class Label(Path):
    """A label step ``A``: children of the context node labelled ``A``."""

    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        return self.name


class Wildcard(Path):
    """The wildcard ``*``: all children of the context node."""

    def __str__(self) -> str:
        return "*"


class Slash(Path):
    """Concatenation ``p1/p2``."""

    left: Path
    right: Path

    def __init__(self, left: Path, right: Path) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self) -> Tuple[Path, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        left = _maybe_paren(self.left)
        # `a//b` prints without the intermediate slash: a/(//b) == a//b.
        if isinstance(self.right, Descendant):
            return f"{left}{self.right}"
        return f"{left}/{_maybe_paren(self.right)}"


class Descendant(Path):
    """The descendant-or-self axis ``//p``."""

    inner: Path

    def __init__(self, inner: Path) -> None:
        object.__setattr__(self, "inner", inner)

    def children(self) -> Tuple[Path, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"//{_maybe_paren(self.inner)}"


class Union(Path):
    """Union ``p1 UNION p2`` (written ``p1 | p2`` in concrete syntax)."""

    left: Path
    right: Path

    def __init__(self, left: Path, right: Path) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self) -> Tuple[Path, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


class Qualified(Path):
    """A qualified path ``p[q]``."""

    path: Path
    qualifier: "Qualifier"

    def __init__(self, path: Path, qualifier: "Qualifier") -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "qualifier", qualifier)

    def children(self) -> Tuple[Path, ...]:
        return (self.path,)

    def __str__(self) -> str:
        return f"{_maybe_paren(self.path)}[{self.qualifier}]"


def _maybe_paren(path: Path) -> str:
    if isinstance(path, Union):
        return str(path)  # Union already prints with parentheses.
    return str(path)


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------


class PathQual(Qualifier):
    """Existential path qualifier ``[p]``: true iff ``p`` is non-empty."""

    path: Path

    def __init__(self, path: Path) -> None:
        object.__setattr__(self, "path", path)

    def __str__(self) -> str:
        return str(self.path)


class TextEquals(Qualifier):
    """Value qualifier ``[text() = 'c']``."""

    value: str

    def __init__(self, value: str) -> None:
        object.__setattr__(self, "value", value)

    def __str__(self) -> str:
        return f'text() = "{self.value}"'


class Not(Qualifier):
    """Negation ``[not q]``."""

    inner: Qualifier

    def __init__(self, inner: Qualifier) -> None:
        object.__setattr__(self, "inner", inner)

    def __str__(self) -> str:
        return f"not({self.inner})"


class And(Qualifier):
    """Conjunction ``[q1 and q2]``."""

    left: Qualifier
    right: Qualifier

    def __init__(self, left: Qualifier, right: Qualifier) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class Or(Qualifier):
    """Disjunction ``[q1 or q2]``."""

    left: Qualifier
    right: Qualifier

    def __init__(self, left: Qualifier, right: Qualifier) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


# ---------------------------------------------------------------------------
# Utilities
# ---------------------------------------------------------------------------


def iter_subpaths(path: Path) -> Iterator[Path]:
    """Yield every path sub-expression of ``path`` in post-order.

    Qualifier contents are included (their path sub-expressions are visited),
    matching the post-order sub-query list ``L`` used by XPathToEXp.
    """
    if isinstance(path, Qualified):
        yield from iter_subpaths(path.path)
        yield from _iter_qualifier_paths(path.qualifier)
    else:
        for child in path.children():
            yield from iter_subpaths(child)
    yield path


def _iter_qualifier_paths(qualifier: Qualifier) -> Iterator[Path]:
    if isinstance(qualifier, PathQual):
        yield from iter_subpaths(qualifier.path)
    elif isinstance(qualifier, Not):
        yield from _iter_qualifier_paths(qualifier.inner)
    elif isinstance(qualifier, (And, Or)):
        yield from _iter_qualifier_paths(qualifier.left)
        yield from _iter_qualifier_paths(qualifier.right)
    # TextEquals contributes no path sub-expressions.


def path_size(path: Path) -> int:
    """Number of AST nodes in ``path`` (paths and qualifiers)."""
    total = 1
    if isinstance(path, Qualified):
        total += path_size(path.path) + _qualifier_size(path.qualifier)
        return total
    for child in path.children():
        total += path_size(child)
    return total


def _qualifier_size(qualifier: Qualifier) -> int:
    if isinstance(qualifier, PathQual):
        return 1 + path_size(qualifier.path)
    if isinstance(qualifier, TextEquals):
        return 1
    if isinstance(qualifier, Not):
        return 1 + _qualifier_size(qualifier.inner)
    if isinstance(qualifier, (And, Or)):
        return 1 + _qualifier_size(qualifier.left) + _qualifier_size(qualifier.right)
    raise TypeError(f"unknown qualifier {qualifier!r}")
