"""Random valid update scripts for mutation fuzzing.

:class:`RandomMutationGenerator` produces the scripts that
:func:`repro.fuzz.run_fuzz` attaches to cases when
``FuzzConfig.mutations_per_case`` is above 0; the
:class:`~repro.fuzz.oracle.DifferentialOracle` then checks each such case
on its delta arm (``Backend.apply_delta``) and its scratch arm (a fresh
shred of the mutated tree) against the XPath evaluator.  Every mutation
the generator emits is valid by construction — it rehearses the script on a scratch copy
of the document through the real :class:`DocumentMutator`, so DTD
validation has already accepted the exact sequence — and node ids are
deterministic, so a script replays bit-identically on a regenerated
document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dtd.model import (
    DTD,
    Choice,
    ContentModel,
    Empty,
    Optional as OptModel,
    Plus,
    Sequence as SeqModel,
    Star,
    TypeRef,
)
from repro.errors import MutationError
from repro.live.mutations import (
    DeleteSubtree,
    DocumentMutator,
    InsertSubtree,
    Mutation,
    ReplaceText,
    SubtreeSpec,
)
from repro.xmltree.tree import XMLTree

__all__ = ["MutationGenConfig", "RandomMutationGenerator"]

# Small closed pool so replaced values sometimes collide with generator
# output (value predicates stay selective but satisfiable).
_VALUE_POOL = ("v0", "v1", "v2", "mut0", "mut1")


# -- script generation ----------------------------------------------------------


@dataclass(frozen=True)
class MutationGenConfig:
    """Knobs of one random mutation script."""

    mutations: int = 4
    max_subtree_depth: int = 3
    # Relative weights of (insert, delete, replace_text) attempts.
    insert_weight: int = 3
    delete_weight: int = 2
    replace_weight: int = 3


class RandomMutationGenerator:
    """Generate random DTD-valid mutation scripts for one document.

    The generator rehearses every candidate mutation on a scratch copy of
    the tree through the real :class:`DocumentMutator`; rejected candidates
    are simply skipped, so the returned script is valid as a *sequence*
    (each mutation valid in the state left by its predecessors).
    """

    def __init__(
        self,
        dtd: DTD,
        rng: Optional[random.Random] = None,
        config: Optional[MutationGenConfig] = None,
    ) -> None:
        self._dtd = dtd
        self._rng = rng if rng is not None else random.Random(0)
        self._config = config or MutationGenConfig()

    def script(self, tree: XMLTree) -> Tuple[Mutation, ...]:
        """One random valid mutation sequence against ``tree`` (not mutated)."""
        scratch = tree.copy()
        mutator = DocumentMutator(scratch, self._dtd)
        config = self._config
        kinds = (
            ["insert"] * config.insert_weight
            + ["delete"] * config.delete_weight
            + ["replace"] * config.replace_weight
        )
        script: List[Mutation] = []
        misses = 0
        while len(script) < config.mutations and misses < 8 * config.mutations:
            kind = self._rng.choice(kinds)
            if kind == "insert":
                mutation = self._try_insert(scratch, mutator)
            elif kind == "delete":
                mutation = self._try_delete(scratch, mutator)
            else:
                mutation = self._try_replace(scratch, mutator)
            if mutation is None:
                misses += 1
                continue
            script.append(mutation)
        return tuple(script)

    # -- candidates -------------------------------------------------------------

    def _nodes(self, tree: XMLTree):
        return list(tree.root.descendants_or_self())

    def _try_replace(self, tree: XMLTree, mutator: DocumentMutator) -> Optional[Mutation]:
        candidates = [
            node for node in self._nodes(tree) if node.label in self._dtd.text_types
        ]
        if not candidates:
            return None
        node = self._rng.choice(candidates)
        value: Optional[str] = (
            None if self._rng.random() < 0.15 else self._rng.choice(_VALUE_POOL)
        )
        try:
            mutator.replace_text(node, value)
        except MutationError:
            return None
        return ReplaceText(node.node_id, value)

    def _try_delete(self, tree: XMLTree, mutator: DocumentMutator) -> Optional[Mutation]:
        candidates = [node for node in self._nodes(tree) if node.parent is not None]
        self._rng.shuffle(candidates)
        # Prefer small subtrees: an unconstrained delete near the root tends
        # to erase most of the document, leaving trivially-empty queries.
        if self._rng.random() < 0.85:
            small = [
                node
                for node in candidates
                if sum(1 for _ in node.descendants_or_self()) <= 6
            ]
            candidates = small or candidates
        for node in candidates[:12]:
            node_id = node.node_id
            try:
                mutator.delete_subtree(node)
            except MutationError:
                continue
            return DeleteSubtree(node_id)
        return None

    def _try_insert(self, tree: XMLTree, mutator: DocumentMutator) -> Optional[Mutation]:
        parents = [node for node in self._nodes(tree) if self._dtd.children(node.label)]
        self._rng.shuffle(parents)
        for parent in parents[:12]:
            labels = self._dtd.children(parent.label)
            label = self._rng.choice(labels)
            spec = self._sample_subtree(label, self._config.max_subtree_depth)
            if spec is None:
                continue
            index = self._rng.randrange(len(parent.children) + 1)
            parent_id = parent.node_id
            try:
                mutator.insert_subtree(parent, spec, index=index)
            except MutationError:
                continue
            return InsertSubtree(parent_id, spec, index)
        return None

    # -- subtree sampling -------------------------------------------------------

    def _sample_subtree(self, label: str, depth: int) -> Optional[SubtreeSpec]:
        """A random conforming subtree of type ``label``, or None if the
        content model cannot be closed within ``depth`` levels (recursive
        types whose every word re-references an element type)."""
        model = self._dtd.production(label)
        word = self._sample_word(model, depth - 1)
        if word is None:
            return None
        children: List[SubtreeSpec] = []
        for child_label in word:
            child = self._sample_subtree(child_label, depth - 1)
            if child is None:
                return None
            children.append(child)
        value: Optional[str] = None
        if label in self._dtd.text_types and self._rng.random() < 0.8:
            value = self._rng.choice(_VALUE_POOL)
        return (label, value, tuple(children))

    def _sample_word(self, model: ContentModel, depth: int) -> Optional[List[str]]:
        """A random word of the model's language; None when ``depth`` is
        exhausted and the model is not nullable."""
        if isinstance(model, Empty):
            return []
        if depth <= 0 and model.nullable():
            return []
        if isinstance(model, TypeRef):
            return [model.name] if depth > 0 else None
        if isinstance(model, SeqModel):
            out: List[str] = []
            for part in model.parts:
                word = self._sample_word(part, depth)
                if word is None:
                    return None
                out.extend(word)
            return out
        if isinstance(model, Choice):
            parts = list(model.parts)
            self._rng.shuffle(parts)
            for part in parts:
                word = self._sample_word(part, depth)
                if word is not None:
                    return word
            return None
        if isinstance(model, Star):
            out = []
            for _ in range(self._rng.randint(0, 2)):
                word = self._sample_word(model.inner, depth)
                if word is None:
                    break
                out.extend(word)
            return out
        if isinstance(model, Plus):
            first = self._sample_word(model.inner, depth)
            if first is None:
                return None
            if self._rng.random() < 0.3:
                extra = self._sample_word(model.inner, depth)
                if extra is not None:
                    first = first + extra
            return first
        if isinstance(model, OptModel):
            if self._rng.random() < 0.5:
                word = self._sample_word(model.inner, depth)
                if word is not None:
                    return word
            return []
        return None
