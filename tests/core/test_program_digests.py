"""Translated programs stay byte-identical to a committed digest table.

Each entry of ``program_digests.json`` is the sha256 of ``str(program)``
for one translation:

* ``<case>/<strategy>/O<level>``: every case of
  ``workload_cases(max_elements=200)`` under every concrete
  descendant-axis strategy at optimizer levels 0 and 2;
* ``fuzz/<dtd>/<i>``: 40 seeded :class:`RandomXPathGenerator` queries on
  each sample DTD, under the default configuration.

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
from typing import Dict

from repro.api.config import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd.samples import paper_dtds
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.workloads.cases import workload_cases

FIXTURE = Path(__file__).with_name("program_digests.json")
LEVELS = (0, 2)
FUZZ_QUERIES = 40
FUZZ_SEED = 20


def _digest(translator: XPathToSQLTranslator, query: str) -> str:
    program = translator.translate(query).program
    return hashlib.sha256(str(program).encode("utf-8")).hexdigest()


def program_digests() -> Dict[str, str]:
    """The digest table of the current tree, keyed as the module describes."""
    digests: Dict[str, str] = {}
    strategies = [s for s in DescendantStrategy if s is not DescendantStrategy.AUTO]
    for case in workload_cases(max_elements=200):
        dtd = case.dtd()
        for strategy in strategies:
            for level in LEVELS:
                config = EngineConfig(strategy=strategy, optimize_level=level)
                translator = XPathToSQLTranslator(dtd, config=config)
                key = f"{case.label}/{strategy.value}/O{level}"
                digests[key] = _digest(translator, case.query)
    for name, dtd in sorted(paper_dtds().items()):
        translator = XPathToSQLTranslator(dtd)
        generator = RandomXPathGenerator(dtd, XPathGenConfig(seed=FUZZ_SEED))
        for index, query in enumerate(generator.queries(FUZZ_QUERIES)):
            digests[f"fuzz/{name}/{index:02d}"] = _digest(translator, query)
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
