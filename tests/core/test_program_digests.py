"""Translated programs stay byte-identical to a committed digest table.

Each entry of ``program_digests.json`` is the sha256 of ``str(program)``
for one translation:

* ``<case>/<strategy>/O<level>``: every case of
  ``workload_cases(max_elements=200)`` under every concrete
  descendant-axis strategy at optimizer levels 0, 1 and 2;
* ``<case>/<strategy>/O2/<variant>``: the same cases at level 2 under the
  experiments' other lowering options, ``push`` (``push_selections=True``)
  and ``full-seed`` (``use_small_seed=False``);
* ``fuzz/<dtd>/<i>``: 40 seeded :class:`RandomXPathGenerator` queries on
  each sample DTD, under the default configuration.

Every key also has a ``<key>/extended`` entry, the sha256 of
``str(result.extended)``: the extended-XPath query the program was
lowered from.

A change that alters any emitted program fails here: a new rewrite, a
different set iteration order (node hashes feed it), a renamed
temporary.  A speed-up of translation must leave the table unchanged.
When a change to the programs is intended, regenerate the table with::

    PYTHONPATH=src python -m tests.core.test_program_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.api.config import EngineConfig
from repro.core.pipeline import TranslationResult, XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd.samples import paper_dtds
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.workloads.cases import workload_cases

FIXTURE = Path(__file__).with_name("program_digests.json")
LEVELS = (0, 1, 2)
# Level-2 lowering variants: key suffix -> EngineConfig fields.
VARIANTS = {"push": {"push_selections": True}, "full-seed": {"use_small_seed": False}}
FUZZ_QUERIES = 40
FUZZ_SEED = 20


def _sha256(value: object) -> str:
    return hashlib.sha256(str(value).encode("utf-8")).hexdigest()


def digest_translations() -> Iterator[Tuple[str, XPathToSQLTranslator, TranslationResult]]:
    """``(key, translator, translation)`` for every translation the table pins."""
    strategies = [s for s in DescendantStrategy if s is not DescendantStrategy.AUTO]
    for case in workload_cases(max_elements=200):
        dtd = case.dtd()
        for strategy in strategies:
            prefix = f"{case.label}/{strategy.value}"
            for level in LEVELS:
                config = EngineConfig(strategy=strategy, optimize_level=level)
                translator = XPathToSQLTranslator(dtd, config=config)
                yield f"{prefix}/O{level}", translator, translator.translate(case.query)
            for variant, changes in VARIANTS.items():
                config = EngineConfig(strategy=strategy, optimize_level=2, **changes)
                translator = XPathToSQLTranslator(dtd, config=config)
                yield f"{prefix}/O2/{variant}", translator, translator.translate(case.query)
    for name, dtd in sorted(paper_dtds().items()):
        translator = XPathToSQLTranslator(dtd)
        generator = RandomXPathGenerator(dtd, XPathGenConfig(seed=FUZZ_SEED))
        for index, query in enumerate(generator.queries(FUZZ_QUERIES)):
            yield f"fuzz/{name}/{index:02d}", translator, translator.translate(query)


def program_digests() -> Dict[str, str]:
    """The digest table of the current tree, keyed as the module describes."""
    digests: Dict[str, str] = {}
    for key, _, result in digest_translations():
        digests[key] = _sha256(result.program)
        digests[f"{key}/extended"] = _sha256(result.extended)
    return digests


def test_programs_match_the_committed_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = program_digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{len(changed)} programs changed: {changed[:10]}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(program_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
