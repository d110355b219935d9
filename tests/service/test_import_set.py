"""The serving start-up path loads no ``repro`` module beyond a committed list.

Launch-to-ready time of the benchmark server is mostly imports, and pool
workers are forked, so every module the server's imports pull in is paid
on each launch.  A fresh interpreter runs exactly the five imports of
``bench/server.py`` and reports the ``repro.*`` modules it loaded; they
must be a subset of :data:`SERVING_MODULES`.  A change that shrinks the
path passes unchanged; one that grows it must add the new modules here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
print(json.dumps(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))))
"""

# Everything the five imports load today.  Keep sorted.
SERVING_MODULES = frozenset(
    """
    repro
    repro.api repro.api.config repro.api.engine
    repro.backends repro.backends.base repro.backends.memory repro.backends.sqlite
    repro.core repro.core.cycleex repro.core.expath_to_sql repro.core.optimize
    repro.core.pipeline repro.core.plancache repro.core.sqlgen_r repro.core.tarjan
    repro.core.xpath_to_expath
    repro.dtd repro.dtd.graph repro.dtd.model repro.dtd.parser repro.dtd.samples
    repro.errors
    repro.expath repro.expath.ast repro.expath.evaluator repro.expath.metrics
    repro.expath.simplify
    repro.fuzz repro.fuzz.cases repro.fuzz.dtd_gen repro.fuzz.harness
    repro.fuzz.oracle repro.fuzz.shrink repro.fuzz.xpath_gen
    repro.live repro.live.delta repro.live.mutations
    repro.obs repro.obs.logs repro.obs.metrics repro.obs.trace
    repro.relational repro.relational.algebra repro.relational.columnar
    repro.relational.database repro.relational.executor repro.relational.relation
    repro.relational.schema repro.relational.sqlgen
    repro.service repro.service.http repro.service.pool repro.service.service
    repro.shredding repro.shredding.inlining repro.shredding.shredder
    repro.views repro.views.gav
    repro.xmltree repro.xmltree.generator repro.xmltree.tree repro.xmltree.validator
    repro.xpath repro.xpath.ast repro.xpath.evaluator repro.xpath.parser
    """.split()
)


def test_server_imports_load_only_the_committed_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SERVER_IMPORTS + REPORT_LOADED],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    loaded = set(json.loads(completed.stdout))
    assert "repro.service.http" in loaded
    assert loaded <= SERVING_MODULES, sorted(loaded - SERVING_MODULES)
