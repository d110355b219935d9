"""The five benchmark workloads: seeded inputs and request streams.

Every input is a pure function of ``(workload name, seed)``: the document
recipe, the query set and the request sequence.  The program under test
only ever receives the generated inputs (a :class:`DocumentSpec`, query
strings and mutation scripts), never the seed.

The workloads reuse the paper's own inputs where it has them: the
cross-cycle DTD of Fig. 11(a) with the Exp-1 queries Qa-Qd and the Exp-3
query ``a//d``, and the dept DTD of Example 2.2 (the richest sample, 14
element types).  Every workload runs the default CycleEX translation.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.config import EngineConfig
from repro.dtd.model import DTD
from repro.dtd.samples import paper_dtds
from repro.fuzz.cases import DocumentSpec
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
from repro.live.mutations import DocumentMutator, mutation_to_dict
from repro.workloads.queries import CROSS_QUERIES, DEPT_QUERIES, SCALABILITY_QUERY
from repro.xmltree.tree import XMLTree
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

__all__ = ["WORKLOADS", "Request", "RequestStream", "Workload", "build"]

#: The paper's Exp-1 queries Qa-Qd plus the Exp-3 scalability query.
PAPER_QUERIES: Tuple[str, ...] = tuple(CROSS_QUERIES.values()) + (SCALABILITY_QUERY,)

#: Number of distinct fuzz queries of hot-read and live-mixed (fits the
#: 128-entry result cache, so every repeat can be a hit).
HOT_QUERIES = 40

#: Their answers hold 1 to 64 nodes.  Unbounded, a few queries answering
#: most of the document would set the cost of the query set.
HOT_ANSWER_NODES = (1, 64)

#: fresh-plans generates its queries in blocks of this many and sends each
#: block in a seeded order, so every run sends the same mix.
FRESH_BLOCK = 40

#: Seed of the documents, the query sets and fresh-plans' query generator,
#: the same for every run (as the paper fixes its datasets).  The run's seed
#: orders the reads and draws live-mixed's mutation scripts.  The cost of a
#: request follows the document's shape and the queries, more than a change
#: worth detecting: over equally sized documents of different seeds,
#: SQLite's cost per query ranged from 10.5 to 15.9 ms, and fresh-plans'
#: throughput spread by 11.6% over ten seeds with seeded inputs.
INPUTS_SEED = 0

#: live-mixed sends one update after every ``UPDATE_EVERY - 1`` reads.
UPDATE_EVERY = 8

#: Documents stay within this share of their workload's element target.
SIZE_BAND = 0.05

#: live-mixed's 4-mutation scripts.  With these weights a script leaves the
#: document's size unchanged on average (the generator's defaults add about
#: five nodes per script), so the size band rarely has to reject one.
MUTATIONS = MutationGenConfig(
    mutations=4, insert_weight=1, delete_weight=2, replace_weight=3, max_subtree_depth=2
)


@dataclass(frozen=True)
class WorkloadDef:
    """The fixed shape of one workload; :func:`build` adds the seed."""

    name: str
    dtd: str
    x_l: int
    x_r: int
    elements: int
    config: EngineConfig


WORKLOADS: Dict[str, WorkloadDef] = {
    wl.name: wl
    for wl in (
        # Result cache on and 40 queries: nearly every read is a cache hit.
        WorkloadDef("hot-read", "cross", 12, 4, 1000, EngineConfig()),
        # The paper's queries with the result cache off: every read runs
        # the recursive fixpoints.
        WorkloadDef("recursive-scan", "cross", 14, 4, 8000, EngineConfig(result_cache_size=0)),
        # Every read is a new plan.  300 elements, not more: on larger
        # documents the execution of the few queries that descend through
        # all three dept cycles outweighs translation.
        WorkloadDef("fresh-plans", "dept", 8, 3, 300, EngineConfig()),
        WorkloadDef(
            "sqlite-scan", "cross", 14, 4, 500,
            EngineConfig(backend="sqlite", result_cache_size=0),
        ),
        # Updates invalidate the result cache, so reads execute again.
        # 600 elements, not 1,000: every read after an update executes, and
        # a run must carry 200 reads per slice within the time budget.
        WorkloadDef("live-mixed", "cross", 12, 4, 600, EngineConfig()),
    )
}


@dataclass(frozen=True)
class Request:
    """One request of a workload's sequence.

    ``kind`` is ``"read"`` (``query`` set) or ``"update"`` (``script`` set,
    the JSON form of a mutation script; ``version`` is the document version
    the script produces, counting the generated document as version 0).
    """

    kind: str
    query: Optional[str] = None
    script: Optional[Tuple[Dict[str, Any], ...]] = None
    version: int = 0


def choose_document(dtd: DTD, wl: WorkloadDef, seed: int) -> Tuple[DocumentSpec, XMLTree]:
    """The first seed-derived document within the size band of the target.

    The generator's documents range from 2 elements to the cap depending
    on the seed; fixing the size keeps the cost of a request comparable
    from seed to seed.
    """
    for attempt in range(1000):
        spec = DocumentSpec(
            x_l=wl.x_l,
            x_r=wl.x_r,
            max_elements=wl.elements,
            seed=seed * 1000 + attempt,
            distinct_values=4,
        )
        tree = spec.generate(dtd)
        if abs(tree.size() - wl.elements) <= SIZE_BAND * wl.elements:
            return spec, tree
    raise RuntimeError(f"no document of about {wl.elements} elements for seed {seed}")


def hot_queries(dtd: DTD, tree: XMLTree, seed: int) -> List[str]:
    """Distinct fuzz queries (by canonical form) with bounded answers."""
    generator = RandomXPathGenerator(dtd, XPathGenConfig(seed=seed))
    low, high = HOT_ANSWER_NODES
    seen = set()
    out: List[str] = []
    while len(out) < HOT_QUERIES:
        query = generator.generate()
        path = parse_xpath(query)
        if str(path) in seen:
            continue
        seen.add(str(path))
        if low <= len(evaluate_xpath(tree, path)) <= high:
            out.append(query)
    return out


class RequestStream:
    """A workload's deterministic request sequence, generated on demand.

    Requests are appended by :meth:`extend`; the ``k``-th request is the
    same whenever it is generated, so how far a run gets does not change
    what it sends.  Generation happens between timed slices, never during.
    """

    def __init__(
        self, wl: WorkloadDef, dtd: DTD, tree: XMLTree, seed: int, queries: Tuple[str, ...]
    ) -> None:
        self._wl = wl
        self._dtd = dtd
        self._rng = random.Random(f"{seed}:{wl.name}:requests")
        self._queries = queries
        self._block: List[str] = []
        self.requests: List[Request] = []
        self._version = 0
        if wl.name == "fresh-plans":
            self._fresh = RandomXPathGenerator(dtd, XPathGenConfig(seed=INPUTS_SEED))
            self._root = dtd.root
        if wl.name == "live-mixed":
            # The chain advances through every generated script, so script
            # k is always generated against document version k - 1.
            self._chain = tree
            self._mutations = RandomMutationGenerator(
                dtd, random.Random(f"{seed}:{wl.name}:mutations"), MUTATIONS
            )

    def _next(self) -> Request:
        name = self._wl.name
        if name == "fresh-plans":
            # A unique, always-true qualifier on the root step makes every
            # query new to the plan cache without changing its answer.
            # Deduplicating the generator's output instead would exhaust
            # its short queries first, so later requests would cost more.
            if not self._block:
                self._block = [self._fresh.generate() for _ in range(FRESH_BLOCK)]
                self._rng.shuffle(self._block)
            query = self._block.pop()
            tag = f'[not(text() = "fresh-{len(self.requests)}")]'
            return Request("read", query=self._root + tag + query[len(self._root):])
        if name == "live-mixed" and len(self.requests) % UPDATE_EVERY == UPDATE_EVERY - 1:
            # Scripts that would leave the size band are skipped: the
            # generator's occasional unconstrained delete can erase most of
            # the document, after which every read costs a fraction of
            # what it cost before.
            while True:
                script = self._mutations.script(self._chain)
                trial = self._chain.copy()
                DocumentMutator(trial, self._dtd).apply_script(script)
                if abs(trial.size() - self._wl.elements) <= SIZE_BAND * self._wl.elements:
                    break
            self._chain = trial
            self._version += 1
            return Request(
                "update",
                script=tuple(mutation_to_dict(m) for m in script),
                version=self._version,
            )
        # Reads walk seeded permutations of the query set, so every run
        # sends the same mix and only the order depends on the seed.
        if not self._block:
            self._block = list(self._queries)
            self._rng.shuffle(self._block)
        return Request("read", query=self._block.pop())

    def extend(self, count: int) -> None:
        """Append ``count`` more requests."""
        for _ in range(count):
            self.requests.append(self._next())


@dataclass
class Workload:
    """Everything one workload sends, derived from ``(name, seed)``."""

    wl: WorkloadDef
    seed: int
    dtd: DTD
    document: DocumentSpec
    tree: XMLTree
    queries: Tuple[str, ...]
    warm: Tuple[str, ...]
    stream: RequestStream = field(repr=False)

    @property
    def name(self) -> str:
        return self.wl.name

    def server_recipe(self) -> Dict[str, Any]:
        """The JSON the bench server builds its pool from."""
        return {
            "dtd": self.wl.dtd,
            "document": asdict(self.document),
            "config": self.wl.config.to_dict(),
            "warm": list(self.warm),
        }


def build(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` for ``seed``."""
    wl = WORKLOADS[name]
    dtd = paper_dtds()[wl.dtd]
    spec, tree = choose_document(dtd, wl, INPUTS_SEED)
    if name in ("recursive-scan", "sqlite-scan"):
        queries = PAPER_QUERIES
        warm = PAPER_QUERIES
    elif name == "fresh-plans":
        # Example 2.2's queries warm the workers; the stream never repeats
        # them or itself, so every request misses the plan cache.
        queries = ()
        warm = tuple(DEPT_QUERIES.values())
    else:
        queries = tuple(hot_queries(dtd, tree, INPUTS_SEED))
        warm = queries
    stream = RequestStream(wl, dtd, tree, seed, queries)
    return Workload(wl, seed, dtd, spec, tree, queries, warm, stream)
