"""Direct evaluation of XPath queries over XML trees (the correctness oracle).

Implements the semantics of Sect. 2.2: ``v[[p]]`` is the set of nodes of the
tree reachable from a context node ``v`` via ``p``; a qualifier ``[q]``
holds at a node when its path is non-empty / its text comparison succeeds /
its boolean combination evaluates to true.

Whole-document queries are evaluated at a *virtual root* whose only child is
the document root, so a query such as ``dept//project`` first matches the
document root by label (exactly as in the paper's examples, where the query
starts with the root element type).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.xpath.ast import (
    And,
    Descendant,
    EmptyPath,
    EmptySet,
    Label,
    Not,
    Or,
    Path,
    PathQual,
    Qualified,
    Qualifier,
    Slash,
    TextEquals,
    Union,
    Wildcard,
)
from repro.xmltree.tree import XMLNode, XMLTree

__all__ = ["XPathEvaluator", "evaluate_xpath"]


class XPathEvaluator:
    """Evaluate XPath queries over a fixed XML tree.

    The evaluator caches nothing across queries other than the tree itself;
    it favours clarity over speed since it is the oracle the translated SQL
    is compared against.
    """

    def __init__(self, tree: XMLTree) -> None:
        self._tree = tree

    # -- public API -------------------------------------------------------------

    def evaluate(self, path: Path) -> List[XMLNode]:
        """Evaluate ``path`` at the virtual root; returns nodes in node-id order.

        The virtual root has the document root as its only child, so a
        top-level query beginning with the root element's label matches the
        document root itself.  Node-id order is document order until an
        insert lands before existing siblings: inserted nodes take the next
        free id.
        """
        result = self._eval_at_virtual_root(path)
        return sorted(result, key=lambda node: node.node_id)

    def evaluate_at(self, node: XMLNode, path: Path) -> List[XMLNode]:
        """Evaluate ``path`` with ``node`` as the context node."""
        return sorted(self._eval(path, {node}), key=lambda n: n.node_id)

    def satisfies(self, node: XMLNode, qualifier: Qualifier) -> bool:
        """Return True when ``qualifier`` holds at ``node``."""
        return self._holds(qualifier, node)

    # -- internals --------------------------------------------------------------

    def _eval_at_virtual_root(self, path: Path) -> Set[XMLNode]:
        root = self._tree.root
        if isinstance(path, EmptySet):
            return set()
        if isinstance(path, EmptyPath):
            # The virtual root itself is not a document node; the empty path
            # over a whole document conventionally denotes the document root.
            return {root}
        if isinstance(path, Label):
            return {root} if root.label == path.name else set()
        if isinstance(path, Wildcard):
            return {root}
        if isinstance(path, Slash):
            left = self._eval_at_virtual_root(path.left)
            return self._eval(path.right, left)
        if isinstance(path, Descendant):
            # Descendants-or-self of the virtual root = every document node.
            context = set(self._tree.nodes())
            return self._eval(path.inner, context)
        if isinstance(path, Union):
            return self._eval_at_virtual_root(path.left) | self._eval_at_virtual_root(
                path.right
            )
        if isinstance(path, Qualified):
            nodes = self._eval_at_virtual_root(path.path)
            return {node for node in nodes if self._holds(path.qualifier, node)}
        raise TypeError(f"unknown path expression {path!r}")

    def _eval(self, path: Path, context: Set[XMLNode]) -> Set[XMLNode]:
        if not context:
            return set()
        if isinstance(path, EmptySet):
            return set()
        if isinstance(path, EmptyPath):
            return set(context)
        if isinstance(path, Label):
            return {
                child
                for node in context
                for child in node.children
                if child.label == path.name
            }
        if isinstance(path, Wildcard):
            return {child for node in context for child in node.children}
        if isinstance(path, Slash):
            return self._eval(path.right, self._eval(path.left, context))
        if isinstance(path, Descendant):
            expanded: Set[XMLNode] = set()
            for node in context:
                expanded.update(node.iter_descendants())
            return self._eval(path.inner, expanded)
        if isinstance(path, Union):
            return self._eval(path.left, context) | self._eval(path.right, context)
        if isinstance(path, Qualified):
            nodes = self._eval(path.path, context)
            return {node for node in nodes if self._holds(path.qualifier, node)}
        raise TypeError(f"unknown path expression {path!r}")

    def _holds(self, qualifier: Qualifier, node: XMLNode) -> bool:
        if isinstance(qualifier, PathQual):
            return bool(self._eval(qualifier.path, {node}))
        if isinstance(qualifier, TextEquals):
            return node.value == qualifier.value
        if isinstance(qualifier, Not):
            return not self._holds(qualifier.inner, node)
        if isinstance(qualifier, And):
            return self._holds(qualifier.left, node) and self._holds(qualifier.right, node)
        if isinstance(qualifier, Or):
            return self._holds(qualifier.left, node) or self._holds(qualifier.right, node)
        raise TypeError(f"unknown qualifier {qualifier!r}")


def evaluate_xpath(tree: XMLTree, path: Path) -> List[XMLNode]:
    """Evaluate ``path`` over ``tree`` at the virtual root (node-id order)."""
    return XPathEvaluator(tree).evaluate(path)
