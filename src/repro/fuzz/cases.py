"""Serializable fuzz cases: one (DTD, document spec, query) triple.

A :class:`FuzzCase` is fully self-describing — the DTD travels as grammar
text (the syntax of :func:`repro.dtd.parser.parse_dtd` / ``DTD.to_text``)
and the document as a :class:`DocumentSpec` (the ``XMLGenerator`` knobs),
so a case serialized to JSON replays bit-identically anywhere.  Failing
cases saved by the harness (``repro fuzz --save-failures``) and the
checked-in regression corpus under ``tests/fuzz/corpus/`` both use this
format.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path as FilePath
from typing import Dict, Optional, Tuple, Union

from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.xmltree.generator import generate_document
from repro.xmltree.tree import XMLTree

__all__ = ["DocumentSpec", "FuzzCase", "CASE_FORMAT_VERSION", "SUPPORTED_CASE_FORMATS"]

# The format written for cases that carry a mutation script.  Version 1
# (the original read-only triple) is still written when a case has no
# mutations, so the checked-in regression corpus stays byte-stable and
# older readers keep working; both versions are accepted on read.
CASE_FORMAT_VERSION = 2
SUPPORTED_CASE_FORMATS = (1, 2)


@dataclass(frozen=True)
class DocumentSpec:
    """The generator knobs that reproduce one document from a DTD."""

    x_l: int = 8
    x_r: int = 3
    max_elements: int = 150
    seed: int = 0
    distinct_values: int = 4

    def generate(self, dtd: DTD) -> XMLTree:
        """Materialise the document this spec describes."""
        return generate_document(
            dtd,
            x_l=self.x_l,
            x_r=self.x_r,
            max_elements=self.max_elements,
            seed=self.seed,
            distinct_values=self.distinct_values,
        )


@dataclass(frozen=True)
class FuzzCase:
    """One differential scenario: a DTD, a document recipe and a query.

    ``mutations`` (format 2) optionally carries a live-update script — a
    tuple of :mod:`repro.live.mutations` records applied to the generated
    document before querying.  Mutation-free cases round-trip as format 1.
    """

    label: str
    dtd_text: str
    query: str
    document: DocumentSpec = field(default_factory=DocumentSpec)
    mutations: Tuple = ()

    # -- materialisation --------------------------------------------------------

    def dtd(self) -> DTD:
        """Parse the DTD text back into a :class:`DTD`."""
        return parse_dtd(self.dtd_text, name=self.label)

    def tree(self) -> XMLTree:
        """Generate the case's (pre-mutation) document."""
        return self.document.generate(self.dtd())

    def mutated_tree(self) -> XMLTree:
        """Generate the document and apply the mutation script to it."""
        from repro.live.mutations import DocumentMutator

        dtd = self.dtd()
        tree = self.document.generate(dtd)
        DocumentMutator(tree, dtd).apply_script(self.mutations)
        return tree

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe).

        Cases without mutations serialize as format 1 — byte-identical to
        the pre-live layout — so the existing corpus never churns.
        """
        record: Dict[str, object] = {
            "format": 1,
            "label": self.label,
            "dtd": self.dtd_text,
            "query": self.query,
            "document": asdict(self.document),
        }
        if self.mutations:
            from repro.live.mutations import mutation_to_dict

            record["format"] = CASE_FORMAT_VERSION
            record["mutations"] = [
                mutation_to_dict(mutation) for mutation in self.mutations
            ]
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzCase":
        """Rebuild a case from :meth:`to_dict` output.

        Malformed input (hand-edited or version-skewed corpus files) raises
        :class:`ValueError` with a description, never a raw KeyError.
        """
        version = data.get("format", 1)
        if version not in SUPPORTED_CASE_FORMATS:
            raise ValueError(f"unsupported fuzz-case format {version!r}")
        missing = [key for key in ("label", "dtd", "query") if key not in data]
        if missing:
            raise ValueError(f"fuzz case is missing field(s) {missing}")
        document_data = data.get("document", {})
        if not isinstance(document_data, dict):
            raise ValueError(f"fuzz-case document must be an object, got {document_data!r}")
        known = set(DocumentSpec.__dataclass_fields__)
        unknown = sorted(set(document_data) - known)
        if unknown:
            raise ValueError(f"fuzz-case document has unknown knob(s) {unknown}")
        wrong_type = sorted(
            key
            for key, value in document_data.items()
            if not isinstance(value, int) or isinstance(value, bool)
        )
        if wrong_type:
            # A string seed would still *run* (random.Random accepts it) but
            # produce a different document, silently breaking replay fidelity.
            raise ValueError(f"fuzz-case document knob(s) {wrong_type} must be integers")
        mutation_data = data.get("mutations", [])
        if version == 1 and mutation_data:
            raise ValueError("format-1 fuzz cases cannot carry mutations")
        if not isinstance(mutation_data, list):
            raise ValueError(
                f"fuzz-case mutations must be a list, got {mutation_data!r}"
            )
        mutations: Tuple = ()
        if mutation_data:
            from repro.errors import MutationError
            from repro.live.mutations import mutation_from_dict

            try:
                mutations = tuple(
                    mutation_from_dict(mutation) for mutation in mutation_data
                )
            except MutationError as exc:
                raise ValueError(f"fuzz-case mutation is malformed: {exc}") from exc
        return cls(
            label=str(data["label"]),
            dtd_text=str(data["dtd"]),
            query=str(data["query"]),
            document=DocumentSpec(**document_data),
            mutations=mutations,
        )

    def to_json(self) -> str:
        """Serialize as pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        """Parse a case from JSON text."""
        return cls.from_dict(json.loads(text))

    def save(
        self,
        path: Union[str, FilePath],
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        """Write the case to ``path`` as JSON.

        ``extra`` merges additional (JSON-safe) top-level keys into the
        file — diagnostic metadata like per-engine timing.  Replay ignores
        unknown top-level keys, so extras never affect reproduction; keys
        that would shadow the case fields themselves are rejected.
        """
        record = self.to_dict()
        if extra:
            clashes = sorted(set(extra) & set(record))
            if clashes:
                raise ValueError(f"extra key(s) {clashes} would shadow case fields")
            record.update(extra)
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        FilePath(path).write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, FilePath]) -> "FuzzCase":
        """Read a case back from a JSON file."""
        return cls.from_json(FilePath(path).read_text(encoding="utf-8"))
