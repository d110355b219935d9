"""GAV XML views of XML data and query answering without materialisation.

Sect. 3.4 of the paper considers GAV mappings ``sigma : D1 -> D2`` where
``D1`` (the view DTD) is *contained in* ``D2`` (the source DTD): for any
source document ``T`` conforming to ``D2``, the view ``V`` is the maximal
top-down substructure of ``T`` that conforms to ``D1`` — the root maps to
the root, and an element reached via a path ``rho`` in ``V`` maps to the
element reached via the same path in ``T``.  Such views arise in XML access
control (revealing only part of a document) and data integration.

Because XPath is not closed under rewriting over such views (Example 3.2)
and regular XPath incurs an exponential blow-up (Example 3.3), the paper's
first translation step — XPath to *extended* XPath over ``D1`` — doubles as
a polynomial-time query answering algorithm: the rewritten query, evaluated
over the source ``T``, returns exactly ``Q(V)``.

This module provides:

* :func:`extract_view` — materialise ``V`` from ``T`` (used by tests to
  check the equivalence; real deployments keep ``V`` virtual);
* :class:`GAVView` — a view definition that answers XPath queries over the
  virtual view by rewriting them with XPathToEXp and evaluating the
  extended query on the source document (or pushing it to the RDBMS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.backends.memory import MemoryBackend
from repro.core.expath_to_sql import TranslationOptions
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy, XPathToExtended
from repro.dtd.model import DTD
from repro.errors import ViewError
from repro.expath.ast import ExtendedXPathQuery
from repro.expath.evaluator import ExtendedXPathEvaluator
from repro.shredding.shredder import shred_document
from repro.xmltree.tree import XMLNode, XMLTree
from repro.xpath.ast import Path
from repro.xpath.parser import parse_xpath

__all__ = ["GAVView", "extract_view", "answer_on_view"]


def extract_view(source: XMLTree, view_dtd: DTD) -> XMLTree:
    """Materialise the GAV view of ``source`` defined by ``view_dtd``.

    The view keeps the source root and, recursively, every child whose
    element type is a child of the current type in the view DTD; all other
    subtrees are pruned.  The result is the maximal top-down substructure of
    the source that uses only the view DTD's edges, with the same node
    labels and text values (node identities are fresh).
    """
    if source.root.label != view_dtd.root:
        raise ViewError(
            f"source root {source.root.label!r} does not match view root {view_dtd.root!r}"
        )
    view = XMLTree.create(source.root.label, source.root.value)

    def copy_children(source_node: XMLNode, view_node: XMLNode) -> None:
        allowed = set(view_dtd.children(source_node.label))
        for child in source_node.children:
            if child.label not in allowed:
                continue
            copied = view.add_child(view_node, child.label, child.value)
            copy_children(child, copied)

    copy_children(source.root, view.root)
    return view


class GAVView:
    """A virtual GAV XML view: answer XPath queries without materialising it.

    Parameters
    ----------
    view_dtd:
        The (possibly recursive) DTD ``D1`` of the view.
    source_dtd:
        Optional source DTD ``D2``; when provided it must contain
        ``view_dtd`` (Sect. 2.1 containment), which is the condition under
        which the rewriting is exact.
    """

    def __init__(self, view_dtd: DTD, source_dtd: Optional[DTD] = None) -> None:
        self._view_dtd = view_dtd
        self._source_dtd = source_dtd
        if source_dtd is not None and not view_dtd.is_contained_in(source_dtd):
            raise ViewError(
                f"view DTD {view_dtd.name!r} is not contained in source DTD "
                f"{source_dtd.name!r}; query answering would not be exact"
            )
        self._rewriter = XPathToExtended(view_dtd, strategy=DescendantStrategy.CYCLEEX)

    @property
    def view_dtd(self) -> DTD:
        """The view DTD ``D1``."""
        return self._view_dtd

    @property
    def source_dtd(self) -> Optional[DTD]:
        """The source DTD ``D2`` (if declared)."""
        return self._source_dtd

    def rewrite(self, query) -> ExtendedXPathQuery:
        """Rewrite an XPath query on the view into extended XPath on the source.

        The rewriting is computed in polynomial time and is equivalent to the
        original query over every source DTD containing the view DTD
        (Theorem 4.2).
        """
        path = parse_xpath(query) if isinstance(query, str) else query
        return self._rewriter.translate(path)

    def answer(self, query, source: XMLTree) -> List[XMLNode]:
        """Answer a view query directly on the source document (native engine).

        Returns the source nodes whose images in the view would be selected
        by the query; the view itself is never materialised.
        """
        rewritten = self.rewrite(query)
        return ExtendedXPathEvaluator(source).evaluate_query(rewritten)

    def answer_via_rdbms(self, query, source: XMLTree) -> List[XMLNode]:
        """Answer a view query by shredding the source and running SQL.

        Combines both paper contributions: the view rewriting (step 1) and
        the SQL lowering with the LFP operator (step 2).  The source is
        shredded with the *source* DTD when one is declared, otherwise with
        the view DTD.
        """
        storage_dtd = self._source_dtd or self._view_dtd
        translator = XPathToSQLTranslator(storage_dtd)
        # Rewriting happens over the *view* DTD so excluded edges are never
        # followed; lowering happens over the storage mapping of the source.
        rewritten = self.rewrite(query)
        program = translator.lower_extended(rewritten)
        shredded = shred_document(source, storage_dtd, translator.mapping)
        backend = MemoryBackend(shredded.database)
        return shredded.nodes_for_ids(backend.execute(program).node_ids())


def answer_on_view(query, view_dtd: DTD, source: XMLTree) -> List[XMLNode]:
    """Convenience wrapper: answer ``query`` on the virtual view of ``source``."""
    return GAVView(view_dtd).answer(query, source)
