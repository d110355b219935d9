"""The serving start-up path loads what serving runs, all of it, and no more.

Launch-to-ready time of the benchmark server is mostly imports, so every
module the server's imports load is paid on each launch.  Pool workers are
forked after those imports, so a module a worker needs but the parent did
not load is compiled again in every worker.  For each backend, a fresh
interpreter runs exactly the five imports of ``bench/server.py`` and
reports the ``repro.*`` modules it loaded (and ``sqlite3``); they must be
a subset of :data:`SERVING_MODULES` and include none of
:data:`OFF_PATH_MODULES` and no engine.  It then builds a pool for the
backend, which loads that backend's engine, :data:`ENGINE_MODULES`,
before it forks.  The same interpreter then does what a pool worker does
while the server sets up (build a service, register a generated document,
translate and answer a query) and must load no further module.  A change
that grows the path must add the new modules here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SERVER_IMPORTS = """
from repro.api.config import EngineConfig
from repro.dtd.samples import paper_dtds
from repro.fuzz.cases import DocumentSpec
from repro.service import ProcessQueryService
from repro.service.http import QueryHTTPServer
"""

REPORT_LOADED = """
import json, sys

backend = sys.argv[1]

def loaded():
    return sorted(
        m for m in sys.modules if m in ("repro", "sqlite3") or m.startswith("repro.")
    )

after_imports = loaded()

config = EngineConfig(backend=backend)
ProcessQueryService(paper_dtds()["cross"], config=config, workers=1).close()
after_pool = loaded()

from repro.dtd.parser import parse_dtd
from repro.service.service import QueryService

dtd = parse_dtd(paper_dtds()["cross"].to_text(), name="cross")
tree = DocumentSpec(max_elements=120, seed=3).generate(dtd)
service = QueryService(dtd, config=config)
service.plan("a//d")
service.register_document("doc", tree)
assert service.answer("a//d[c]", "doc")
service.close()
print(json.dumps({"imports": after_imports, "pool": after_pool, "answering": loaded()}))
"""

# Everything the five imports load.  Keep sorted.
SERVING_MODULES = frozenset(
    """
    repro repro._support
    repro.api repro.api.config
    repro.backends repro.backends.base
    repro.core repro.core.cycleex repro.core.expath_to_sql repro.core.optimize
    repro.core.pipeline repro.core.plancache repro.core.tarjan
    repro.core.xpath_to_expath
    repro.dtd repro.dtd.graph repro.dtd.model repro.dtd.parser repro.dtd.samples
    repro.errors
    repro.expath repro.expath.ast repro.expath.metrics repro.expath.simplify
    repro.fuzz repro.fuzz.cases
    repro.obs repro.obs.logs repro.obs.metrics repro.obs.trace
    repro.relational repro.relational.algebra
    repro.relational.database repro.relational.relation repro.relational.schema
    repro.relational.sqlgen
    repro.service repro.service.http repro.service.pool repro.service.service
    repro.shredding repro.shredding.inlining repro.shredding.shredder
    repro.xmltree repro.xmltree.generator repro.xmltree.tree
    repro.xpath repro.xpath.ast repro.xpath.parser
    """.split()
)

# What a pool loads for its backend before it forks, and nothing else does.
ENGINE_MODULES = {
    "memory": frozenset(
        """
        repro.backends.memory repro.relational.columnar repro.relational.stats
        repro.relational.temporaries
        """.split()
    ),
    "sqlite": frozenset(
        "repro.backends.sqlite repro.relational.temporaries sqlite3".split()
    ),
}

# Modules serving never runs.  Each of them once loaded on this path; the
# test names them so that one coming back fails with its name.
OFF_PATH_MODULES = frozenset(
    """
    repro.api.engine repro.backends.registry repro.core.sqlgen_r
    repro.expath.evaluator
    repro.fuzz.dtd_gen repro.fuzz.harness repro.fuzz.oracle repro.fuzz.shrink
    repro.fuzz.xpath_gen repro.live repro.live.delta repro.live.mutations
    repro.relational.executor repro.views repro.views.gav
    repro.xmltree.validator repro.xpath.evaluator
    """.split()
)


@pytest.fixture(scope="module", params=sorted(ENGINE_MODULES))
def loaded_modules(request):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SERVER_IMPORTS + REPORT_LOADED, request.param],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    report = json.loads(completed.stdout)
    return (
        request.param,
        set(report["imports"]),
        set(report["pool"]),
        set(report["answering"]),
    )


def test_server_imports_load_only_the_committed_modules(loaded_modules):
    _, loaded, _, _ = loaded_modules
    assert "repro.service.http" in loaded
    assert loaded <= SERVING_MODULES, sorted(loaded - SERVING_MODULES)


def test_server_imports_load_no_off_path_module(loaded_modules):
    _, loaded, _, answering = loaded_modules
    assert not loaded & OFF_PATH_MODULES, sorted(loaded & OFF_PATH_MODULES)
    assert not answering & OFF_PATH_MODULES, sorted(answering & OFF_PATH_MODULES)


def test_the_pool_loads_its_own_engine_before_forking(loaded_modules):
    backend, loaded, pool, _ = loaded_modules
    assert pool - loaded == ENGINE_MODULES[backend]


def test_answering_after_the_pool_loads_nothing_more(loaded_modules):
    _, _, pool, answering = loaded_modules
    assert answering == pool, sorted(answering - pool)


def test_a_server_never_loads_the_other_engine(loaded_modules):
    backend, _, _, answering = loaded_modules
    if backend == "memory":
        assert not answering & {"repro.backends.sqlite", "sqlite3"}
    else:
        assert "repro.relational.columnar" not in answering
