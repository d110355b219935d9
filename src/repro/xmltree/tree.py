"""Ordered labelled XML trees with stable node identifiers.

An :class:`XMLTree` is the document abstraction used by the whole library:
the XPath/extended-XPath evaluators walk it, the shredder turns it into
relations, and the GAV view machinery extracts sub-trees from it.  Nodes
carry a label (the element-type name), an optional text value (PCDATA) and a
unique integer id; the shredder derives its ``F``/``T`` node identifiers
from those ids, so identifiers are stable for the lifetime of the tree.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["XMLNode", "XMLTree", "build_tree"]


class XMLNode:
    """A single element node.

    Attributes
    ----------
    node_id:
        Unique integer identifier within the tree: document order as the
        tree is built, the next free id for a node inserted later.
    label:
        Element-type name.
    value:
        Optional text (PCDATA) value; ``None`` when the element has none.
    parent:
        Parent node, or ``None`` for the root.
    children:
        Ordered list of child nodes.
    """

    __slots__ = ("node_id", "label", "value", "parent", "children")

    def __init__(
        self,
        node_id: int,
        label: str,
        value: Optional[str] = None,
        parent: Optional["XMLNode"] = None,
    ) -> None:
        self.node_id = node_id
        self.label = label
        self.value = value
        self.parent = parent
        self.children: List["XMLNode"] = []

    def __repr__(self) -> str:
        return f"XMLNode(id={self.node_id}, label={self.label!r}, value={self.value!r})"

    # Identity semantics: two distinct nodes are never equal even if they have
    # the same label/value, mirroring XML node identity.
    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return self is other

    def iter_descendants(self) -> Iterator["XMLNode"]:
        """Yield this node and all its descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants_or_self(self) -> List["XMLNode"]:
        """Return this node plus every descendant (document order)."""
        return list(self.iter_descendants())

    def path_from_root(self) -> List[str]:
        """Return the list of labels from the root down to this node."""
        labels: List[str] = []
        node: Optional[XMLNode] = self
        while node is not None:
            labels.append(node.label)
            node = node.parent
        return list(reversed(labels))

    def depth(self) -> int:
        """Depth of the node; the root has depth 1."""
        return len(self.path_from_root())


class XMLTree:
    """An XML document: a root node plus id-indexed access to every node."""

    def __init__(self, root: XMLNode) -> None:
        self._root = root
        self._by_id: Dict[int, XMLNode] = {}
        for node in root.iter_descendants():
            if node.node_id in self._by_id:
                raise ValueError(f"duplicate node id {node.node_id}")
            self._by_id[node.node_id] = node
        self._next_id = max(self._by_id) + 1 if self._by_id else 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, root_label: str, root_value: Optional[str] = None) -> "XMLTree":
        """Create a tree consisting of a single root node."""
        return cls(XMLNode(0, root_label, root_value))

    def add_child(
        self, parent: XMLNode, label: str, value: Optional[str] = None
    ) -> XMLNode:
        """Append a new child with the next free node id and return it."""
        node_id = self._next_id
        self._next_id += 1
        child = XMLNode(node_id, label, value, parent=parent)
        parent.children.append(child)
        self._by_id[node_id] = child
        return child

    # -- mutation ---------------------------------------------------------------

    def insert_child(
        self,
        parent: XMLNode,
        label: str,
        value: Optional[str] = None,
        index: Optional[int] = None,
    ) -> XMLNode:
        """Insert a new child at ``index`` (append when ``None``) and return it.

        The new node gets the next free id.  Removed nodes' ids are not handed
        out again, except through :meth:`release_ids` after a rolled-back
        script, so a committed delete's ids never come back (the live-update
        delta machinery relies on this).
        """
        if parent.node_id not in self._by_id or self._by_id[parent.node_id] is not parent:
            raise KeyError(f"node {parent.node_id} is not part of this tree")
        node_id = self._next_id
        self._next_id += 1
        child = XMLNode(node_id, label, value, parent=parent)
        if index is None:
            parent.children.append(child)
        else:
            if index < 0 or index > len(parent.children):
                raise IndexError(
                    f"child index {index} out of range for {len(parent.children)} children"
                )
            parent.children.insert(index, child)
        self._by_id[node_id] = child
        return child

    def remove_subtree(self, node: XMLNode) -> List[XMLNode]:
        """Detach ``node`` (and its subtree) from the tree.

        Returns the removed nodes in document order.  The root cannot be
        removed.  Freed ids are *not* recycled (see :meth:`insert_child`).
        """
        if node.node_id not in self._by_id or self._by_id[node.node_id] is not node:
            raise KeyError(f"node {node.node_id} is not part of this tree")
        if node.parent is None:
            raise ValueError("cannot remove the root of the tree")
        removed = node.descendants_or_self()
        node.parent.children.remove(node)
        node.parent = None
        for gone in removed:
            del self._by_id[gone.node_id]
        return removed

    def restore_subtree(self, node: XMLNode, parent: XMLNode, index: int) -> None:
        """Undo :meth:`remove_subtree`: ``node`` is child ``index`` of ``parent`` again."""
        parent.children.insert(index, node)
        node.parent = parent
        for restored in node.iter_descendants():
            self._by_id[restored.node_id] = restored

    @property
    def next_id(self) -> int:
        """The id the next inserted node gets."""
        return self._next_id

    def release_ids(self, next_id: int) -> None:
        """Hand ids from ``next_id`` on out again (their nodes were rolled back)."""
        self._next_id = next_id

    def copy(self) -> "XMLTree":
        """Return a deep copy preserving node ids and child order."""
        new_root = XMLNode(self._root.node_id, self._root.label, self._root.value)
        stack: List[Tuple[XMLNode, XMLNode]] = [(self._root, new_root)]
        while stack:
            old, new = stack.pop()
            for child in old.children:
                clone = XMLNode(child.node_id, child.label, child.value, parent=new)
                new.children.append(clone)
                stack.append((child, clone))
        twin = XMLTree(new_root)
        twin._next_id = self._next_id
        return twin

    # -- accessors --------------------------------------------------------------

    @property
    def root(self) -> XMLNode:
        """The root element."""
        return self._root

    def node(self, node_id: int) -> XMLNode:
        """Return the node with the given id."""
        return self._by_id[node_id]

    def nodes(self) -> List[XMLNode]:
        """All nodes in document order."""
        return list(self._root.iter_descendants())

    def size(self) -> int:
        """Number of element nodes in the document."""
        return len(self._by_id)

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:
        return f"XMLTree(root={self._root.label!r}, size={self.size()})"

    def labels(self) -> Dict[str, int]:
        """Histogram of element labels (label -> count)."""
        counts: Dict[str, int] = {}
        for node in self._root.iter_descendants():
            counts[node.label] = counts.get(node.label, 0) + 1
        return counts

    def nodes_with_label(self, label: str) -> List[XMLNode]:
        """All nodes carrying the given label, in document order."""
        return [n for n in self._root.iter_descendants() if n.label == label]

    def height(self) -> int:
        """Length (in nodes) of the longest root-to-leaf path."""
        best = 0
        stack: List[Tuple[XMLNode, int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            for child in node.children:
                stack.append((child, depth + 1))
        return best

    # -- serialization ----------------------------------------------------------

    def to_xml(self, indent: int = 2) -> str:
        """Serialize to a simple XML string (for debugging and examples)."""
        lines: List[str] = []

        def emit(node: XMLNode, level: int) -> None:
            pad = " " * (indent * level)
            if not node.children and node.value is None:
                lines.append(f"{pad}<{node.label}/>")
                return
            if not node.children:
                lines.append(f"{pad}<{node.label}>{node.value}</{node.label}>")
                return
            lines.append(f"{pad}<{node.label}>")
            if node.value is not None:
                lines.append(f"{pad}{' ' * indent}{node.value}")
            for child in node.children:
                emit(child, level + 1)
            lines.append(f"{pad}</{node.label}>")

        emit(self._root, 0)
        return "\n".join(lines) + "\n"


# A nested-structure spec: (label, value, [children]) or (label, [children]) or
# just a label string for a leaf.
NodeSpec = Union[str, Tuple]


def build_tree(spec: NodeSpec) -> XMLTree:
    """Build an :class:`XMLTree` from a nested tuple specification.

    Accepted node forms:

    * ``"label"`` — a leaf with no value,
    * ``("label", [child, ...])`` — children only,
    * ``("label", "value")`` — value only,
    * ``("label", "value", [child, ...])`` — both.

    Example
    -------
    >>> tree = build_tree(("dept", [("course", [("cno", "cs66")])]))
    >>> tree.root.label
    'dept'
    """
    counter = [0]

    def parse(node_spec: NodeSpec) -> Tuple[str, Optional[str], List[NodeSpec]]:
        if isinstance(node_spec, str):
            return node_spec, None, []
        if not isinstance(node_spec, tuple) or not node_spec:
            raise ValueError(f"invalid node spec {node_spec!r}")
        label = node_spec[0]
        value: Optional[str] = None
        children: List[NodeSpec] = []
        for part in node_spec[1:]:
            if isinstance(part, list):
                children = part
            elif isinstance(part, str):
                value = part
            else:
                raise ValueError(f"invalid node spec part {part!r} in {node_spec!r}")
        return label, value, children

    label, value, children = parse(spec)
    root = XMLNode(counter[0], label, value)
    counter[0] += 1
    tree = XMLTree(root)

    def attach(parent: XMLNode, specs: Sequence[NodeSpec]) -> None:
        for child_spec in specs:
            child_label, child_value, grand = parse(child_spec)
            child = tree.add_child(parent, child_label, child_value)
            attach(child, grand)

    attach(root, children)
    return tree
