"""DTD data model: content models as regular expressions and the DTD itself.

Following Sect. 2.1 of the paper, a DTD ``D`` is an extended context-free
grammar ``(Ele, Rg, r)`` where ``Rg(A)`` is a regular expression over element
types built from the empty word, type references, concatenation ``,``,
disjunction ``|`` and the Kleene star ``*`` (we also support ``+`` and ``?``
as conveniences since real DTDs such as BIOML and GedML use them; both are
definable in terms of the paper's operators).

The content-model classes are immutable value objects.  Use the lowercase
constructor helpers (:func:`ref`, :func:`seq`, :func:`choice`, :func:`star`,
:func:`plus`, :func:`opt`, :func:`empty`) rather than the class constructors
when building models by hand; they normalise trivial cases.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional as Opt, Set, Tuple

from repro._support import Frozen
from repro.errors import DTDError

__all__ = [
    "ContentModel",
    "Empty",
    "TypeRef",
    "Sequence",
    "Choice",
    "Star",
    "Plus",
    "Optional",
    "empty",
    "ref",
    "seq",
    "choice",
    "star",
    "plus",
    "opt",
    "ChildSpec",
    "DTD",
]


# ---------------------------------------------------------------------------
# Content models
# ---------------------------------------------------------------------------


class ContentModel(Frozen):
    """Base class of content-model regular expressions.

    Subclasses are :class:`~repro._support.Frozen` values; equality and
    hashing are structural.
    """

    def element_types(self) -> Set[str]:
        """Return the set of element-type names referenced by this model."""
        raise NotImplementedError

    def starred_types(self) -> Set[str]:
        """Return element types that occur under a ``*``/``+`` in this model.

        These are exactly the types whose DTD-graph edge from the parent is
        labelled ``*`` in the paper's figures (i.e. may repeat).
        """
        raise NotImplementedError

    def nullable(self) -> bool:
        """Return True if the empty word matches this content model."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - exercised via subclasses
        raise NotImplementedError


class Empty(ContentModel):
    """The empty word (PCDATA-only / empty content)."""

    def element_types(self) -> Set[str]:
        return set()

    def starred_types(self) -> Set[str]:
        return set()

    def nullable(self) -> bool:
        return True

    def __str__(self) -> str:
        return "EMPTY"


class TypeRef(ContentModel):
    """A reference to a sub-element type ``B``."""

    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def element_types(self) -> Set[str]:
        return {self.name}

    def starred_types(self) -> Set[str]:
        return set()

    def nullable(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.name


class Sequence(ContentModel):
    """Concatenation ``alpha, beta, ...``."""

    parts: Tuple[ContentModel, ...]

    def __init__(self, parts: Tuple[ContentModel, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def element_types(self) -> Set[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.element_types()
        return out

    def starred_types(self) -> Set[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.starred_types()
        return out

    def nullable(self) -> bool:
        return all(part.nullable() for part in self.parts)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


class Choice(ContentModel):
    """Disjunction ``alpha | beta | ...``."""

    parts: Tuple[ContentModel, ...]

    def __init__(self, parts: Tuple[ContentModel, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def element_types(self) -> Set[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.element_types()
        return out

    def starred_types(self) -> Set[str]:
        out: Set[str] = set()
        for part in self.parts:
            out |= part.starred_types()
        return out

    def nullable(self) -> bool:
        return any(part.nullable() for part in self.parts)

    def __str__(self) -> str:
        return "(" + " | ".join(str(p) for p in self.parts) + ")"


class Star(ContentModel):
    """Kleene star ``alpha*`` (zero or more)."""

    inner: ContentModel

    def __init__(self, inner: ContentModel) -> None:
        object.__setattr__(self, "inner", inner)

    def element_types(self) -> Set[str]:
        return self.inner.element_types()

    def starred_types(self) -> Set[str]:
        return self.inner.element_types()

    def nullable(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.inner}*"


class Plus(ContentModel):
    """``alpha+`` (one or more); equivalent to ``alpha, alpha*``."""

    inner: ContentModel

    def __init__(self, inner: ContentModel) -> None:
        object.__setattr__(self, "inner", inner)

    def element_types(self) -> Set[str]:
        return self.inner.element_types()

    def starred_types(self) -> Set[str]:
        return self.inner.element_types()

    def nullable(self) -> bool:
        return self.inner.nullable()

    def __str__(self) -> str:
        return f"{self.inner}+"


class Optional(ContentModel):
    """``alpha?`` (zero or one); equivalent to ``(alpha | epsilon)``."""

    inner: ContentModel

    def __init__(self, inner: ContentModel) -> None:
        object.__setattr__(self, "inner", inner)

    def element_types(self) -> Set[str]:
        return self.inner.element_types()

    def starred_types(self) -> Set[str]:
        return self.inner.starred_types()

    def nullable(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.inner}?"


def empty() -> Empty:
    """Return the empty content model."""
    return Empty()


def ref(name: str) -> TypeRef:
    """Return a reference to element type ``name``."""
    return TypeRef(name)


def _coerce(part) -> ContentModel:
    if isinstance(part, ContentModel):
        return part
    if isinstance(part, str):
        return TypeRef(part)
    raise DTDError(f"cannot use {part!r} as a content-model part")


def seq(*parts) -> ContentModel:
    """Concatenate parts; strings are coerced to type references."""
    coerced = tuple(_coerce(p) for p in parts)
    if not coerced:
        return Empty()
    if len(coerced) == 1:
        return coerced[0]
    return Sequence(coerced)


def choice(*parts) -> ContentModel:
    """Disjunction of parts; strings are coerced to type references."""
    coerced = tuple(_coerce(p) for p in parts)
    if not coerced:
        return Empty()
    if len(coerced) == 1:
        return coerced[0]
    return Choice(coerced)


def star(part) -> Star:
    """Kleene star of ``part``."""
    return Star(_coerce(part))


def plus(part) -> Plus:
    """One-or-more repetition of ``part``."""
    return Plus(_coerce(part))


def opt(part) -> Optional:
    """Zero-or-one occurrence of ``part``."""
    return Optional(_coerce(part))


# ---------------------------------------------------------------------------
# DTD
# ---------------------------------------------------------------------------


class ChildSpec(Frozen):
    """An edge of the DTD graph: parent type, child type, and whether starred.

    ``starred`` is True when the child occurs under a ``*`` or ``+`` in the
    parent's content model (the edge is drawn with a ``*`` label in the
    paper's DTD graphs and forces the child into its own inlining subgraph).
    """

    parent: str
    child: str
    starred: bool

    def __init__(self, parent: str, child: str, starred: bool) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "starred", starred)


class DTD:
    """A DTD ``(Ele, Rg, r)``: element types, productions and a root type.

    Parameters
    ----------
    root:
        Name of the distinguished root element type.
    productions:
        Mapping from element-type name to its content model.  Every element
        type referenced by any content model must have a production; types
        with no children should map to :class:`Empty`.
    text_types:
        Optional set of element types that carry a text (PCDATA) value.
        This is metadata used by the XML generator and shredder; the
        translation algorithms only need it for ``text() = c`` qualifiers.
    name:
        Optional human-readable name (used in reports and experiment output).
    """

    def __init__(
        self,
        root: str,
        productions: Mapping[str, ContentModel],
        text_types: Opt[Iterable[str]] = None,
        name: str = "",
    ) -> None:
        self._root = root
        self._productions: Dict[str, ContentModel] = dict(productions)
        self._text_types: FrozenSet[str] = frozenset(text_types or ())
        self._name = name or root
        self._validate()

    # -- construction helpers -------------------------------------------------

    def _validate(self) -> None:
        if self._root not in self._productions:
            raise DTDError(f"root type {self._root!r} has no production")
        for parent, model in self._productions.items():
            for child in model.element_types():
                if child not in self._productions:
                    raise DTDError(
                        f"element type {child!r} (child of {parent!r}) has no production"
                    )
        unknown_text = self._text_types - set(self._productions)
        if unknown_text:
            raise DTDError(f"text types {sorted(unknown_text)} are not element types")

    # -- basic accessors -------------------------------------------------------

    @property
    def name(self) -> str:
        """Human readable name of the DTD."""
        return self._name

    @property
    def root(self) -> str:
        """The root element type."""
        return self._root

    @property
    def element_types(self) -> List[str]:
        """All element types, root first, then sorted alphabetically."""
        rest = sorted(t for t in self._productions if t != self._root)
        return [self._root] + rest

    @property
    def text_types(self) -> FrozenSet[str]:
        """Element types that carry a PCDATA value."""
        return self._text_types

    def production(self, element_type: str) -> ContentModel:
        """Return the content model of ``element_type``."""
        try:
            return self._productions[element_type]
        except KeyError:
            raise DTDError(f"unknown element type {element_type!r}") from None

    def has_type(self, element_type: str) -> bool:
        """Return True if ``element_type`` is declared in this DTD."""
        return element_type in self._productions

    def __contains__(self, element_type: str) -> bool:
        return self.has_type(element_type)

    def __len__(self) -> int:
        return len(self._productions)

    def __iter__(self) -> Iterator[str]:
        return iter(self.element_types)

    def __repr__(self) -> str:
        return f"DTD(name={self._name!r}, root={self._root!r}, types={len(self)})"

    # -- structural queries ----------------------------------------------------

    def children(self, element_type: str) -> List[str]:
        """Return the distinct sub-element types of ``element_type`` (sorted)."""
        return sorted(self.production(element_type).element_types())

    def child_specs(self, element_type: str) -> List[ChildSpec]:
        """Return one :class:`ChildSpec` per distinct child of ``element_type``."""
        model = self.production(element_type)
        starred = model.starred_types()
        return [
            ChildSpec(element_type, child, child in starred)
            for child in sorted(model.element_types())
        ]

    def edges(self) -> List[ChildSpec]:
        """Return every parent/child edge of the DTD graph."""
        out: List[ChildSpec] = []
        for parent in self.element_types:
            out.extend(self.child_specs(parent))
        return out

    def parents(self, element_type: str) -> List[str]:
        """Return the element types that have ``element_type`` as a child."""
        return sorted(
            parent
            for parent in self._productions
            if element_type in self._productions[parent].element_types()
        )

    def reachable_from(self, element_type: str) -> Set[str]:
        """Return types reachable from ``element_type`` via one or more edges."""
        seen: Set[str] = set()
        frontier = list(self.children(element_type))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self.children(node))
        return seen

    def is_recursive(self) -> bool:
        """Return True if some element type is (transitively) defined in terms of itself."""
        return any(t in self.reachable_from(t) for t in self._productions)

    def recursive_types(self) -> Set[str]:
        """Return the element types that lie on a cycle of the DTD graph."""
        return {t for t in self._productions if t in self.reachable_from(t)}

    def with_name(self, name: str) -> "DTD":
        """Return a copy of this DTD carrying a different display name."""
        return DTD(self._root, self._productions, self._text_types, name=name)

    def restricted_to(self, keep: Iterable[str], root: Opt[str] = None, name: str = "") -> "DTD":
        """Return the sub-DTD induced by the element types in ``keep``.

        Productions are rewritten so that references to dropped types are
        removed (a dropped child inside a sequence/choice simply disappears).
        This is how the BIOML subgraph DTDs of Fig. 15 are derived from the
        full 4-cycle BIOML DTD.
        """
        keep_set = set(keep)
        new_root = root or self._root
        if new_root not in keep_set:
            raise DTDError(f"root {new_root!r} must be kept")

        def prune(model: ContentModel) -> ContentModel:
            if isinstance(model, Empty):
                return model
            if isinstance(model, TypeRef):
                return model if model.name in keep_set else Empty()
            if isinstance(model, Sequence):
                parts = tuple(p for p in (prune(x) for x in model.parts) if not isinstance(p, Empty))
                return seq(*parts)
            if isinstance(model, Choice):
                parts = tuple(p for p in (prune(x) for x in model.parts) if not isinstance(p, Empty))
                return choice(*parts)
            if isinstance(model, Star):
                inner = prune(model.inner)
                return Empty() if isinstance(inner, Empty) else Star(inner)
            if isinstance(model, Plus):
                inner = prune(model.inner)
                return Empty() if isinstance(inner, Empty) else Plus(inner)
            if isinstance(model, Optional):
                inner = prune(model.inner)
                return Empty() if isinstance(inner, Empty) else Optional(inner)
            raise DTDError(f"unknown content model {model!r}")

        productions = {t: prune(self._productions[t]) for t in keep_set}
        text_types = self._text_types & keep_set
        return DTD(new_root, productions, text_types, name=name or f"{self._name}-sub")

    def is_contained_in(self, other: "DTD") -> bool:
        """Return True if this DTD's graph is a subgraph of ``other``'s graph.

        Following Sect. 2.1: D is contained in D' when the DTD graph of D is
        a subgraph of D' under the identity mapping on element-type names and
        the roots coincide.
        """
        if self._root != other.root:
            return False
        for element_type in self._productions:
            if not other.has_type(element_type):
                return False
        my_edges = {(e.parent, e.child) for e in self.edges()}
        other_edges = {(e.parent, e.child) for e in other.edges()}
        return my_edges <= other_edges

    # -- export ---------------------------------------------------------------

    def to_text(self) -> str:
        """Render the DTD in the simple grammar syntax accepted by :func:`parse_dtd`."""
        lines = [f"root {self._root}"]
        for element_type in self.element_types:
            model = self._productions[element_type]
            suffix = " #text" if element_type in self._text_types else ""
            lines.append(f"{element_type} -> {model}{suffix}")
        return "\n".join(lines) + "\n"
