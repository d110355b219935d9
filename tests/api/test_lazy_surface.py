"""Lazy package re-exports resolve to the objects their modules define.

``repro`` and most subpackages resolve their ``__all__`` on first access
(PEP 562, :func:`repro._support.lazy_exports`).  A fresh interpreter
checks that importing those packages loads none of their modules, that
``dir()`` lists every exported name before it is loaded, and that every
exported name of every package then resolves to the very object one of
its modules defines under that name (only ``repro.dtd.samples`` is
exported as a module, and ``repro.api`` and ``repro.service`` re-export a
few names from outside).  It also checks the one name that clashes with a submodule:
``repro.obs.trace`` stays the function after ``import repro.obs.trace``,
which is why ``repro.obs`` is eager.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

LAZY_PACKAGES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.dtd",
    "repro.experiments",
    "repro.expath",
    "repro.fuzz",
    "repro.live",
    "repro.relational",
    "repro.shredding",
    "repro.views",
    "repro.workloads",
    "repro.xmltree",
    "repro.xpath",
]
EAGER_PACKAGES = ["repro.backends", "repro.obs", "repro.service"]

CHECK = """
import importlib, json, sys, types

lazy, eager = json.loads(sys.argv[1])
MODULE_EXPORTS = {"repro.dtd.samples"}
# The re-exports whose defining module lies outside the package.
OUTSIDE_OWNERS = {"repro.api": ["repro.errors"], "repro.service": ["repro.core.plancache"]}
problems = []
packages = [importlib.import_module(name) for name in lazy]
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
if loaded != sorted(lazy + ["repro._support"]):
    problems.append(f"importing the lazy packages loaded {loaded}")
for package in packages:
    missing = set(package.__all__) - set(dir(package))
    if missing:
        problems.append(f"dir({package.__name__}) lacks {sorted(missing)}")

for package in packages + [importlib.import_module(name) for name in eager]:
    # A lazy package caches what it resolved, so only its modules count.
    own = package.__name__ if package.__name__ in eager else package.__name__ + "."
    owners = (own, *OUTSIDE_OWNERS.get(package.__name__, ()))
    for name in package.__all__:
        qualified = f"{package.__name__}.{name}"
        value = getattr(package, name)
        if isinstance(value, types.ModuleType):
            if qualified not in MODULE_EXPORTS or value is not sys.modules[qualified]:
                problems.append(f"{qualified} is the module {value.__name__}")
        elif name != "__version__" and not any(
            vars(module).get(name) is value
            for key, module in list(sys.modules.items())
            if key.startswith(owners)
        ):
            problems.append(f"{qualified} is no object its modules define")

import repro.obs
import repro.obs.trace
if isinstance(repro.obs.trace, types.ModuleType):
    problems.append("repro.obs.trace is the submodule, not the function")
elif repro.obs.trace is not vars(sys.modules["repro.obs.trace"])["trace"]:
    problems.append("repro.obs.trace is not repro.obs.trace.trace")
print(json.dumps(problems))
"""


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CHECK, json.dumps([LAZY_PACKAGES, EAGER_PACKAGES])],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert json.loads(completed.stdout) == []
