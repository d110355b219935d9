"""Process-affinity regression tests for execution backends.

The multiprocess serving tier ships work, never stores: backends declare
whether instances survive a process boundary (``Backend.process_affine``)
and the affine SQLite backend must fail *loudly* — not silently serve an
empty database — when an instance leaks across ``fork``, and refuse
pickling (the ``spawn`` transport) with a clear error.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
from pathlib import Path

import pytest

# Spawn-based children import this module by name to unpickle their target
# function; make the repo root importable in the child (pytest's importlib
# mode does not put it on sys.path).
_REPO_ROOT = str(Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.api import EngineConfig
from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.dtd import samples
from repro.errors import ExecutionError
from repro.service import QueryService
from repro.xmltree.generator import generate_document


def _available_methods():
    return multiprocessing.get_all_start_methods()


def _make_service(backend: str = "sqlite") -> QueryService:
    dtd = samples.cross_dtd()
    service = QueryService(dtd, config=EngineConfig(backend=backend))
    service.register_document("doc", generate_document(dtd, seed=3))
    return service


class TestAffinityDeclaration:
    def test_sqlite_is_process_affine(self):
        assert SqliteBackend.process_affine is True

    def test_memory_is_not_process_affine(self):
        assert MemoryBackend.process_affine is False

    def test_base_default_is_not_affine(self):
        assert Backend.process_affine is False


class TestPickleRefusal:
    def test_pickling_a_sqlite_backend_raises_clear_execution_error(self):
        service = _make_service("sqlite")
        backend = service.store("doc").backend
        with pytest.raises(ExecutionError, match="rebuild the backend"):
            pickle.dumps(backend)
        service.close()

    def test_memory_backend_still_pickles(self):
        service = _make_service("memory")
        backend = service.store("doc").backend
        clone = pickle.loads(pickle.dumps(backend))
        program = service.plan("a//d").program
        assert clone.execute(program).node_ids() == backend.execute(program).node_ids()
        service.close()


def _fork_child_probe(service, query, queue):
    """Runs in a forked child: the inherited sqlite store must refuse use."""
    try:
        service.answer(query, "doc")
        queue.put(("no-error", None))
    except ExecutionError as exc:
        queue.put(("execution-error", str(exc)))
    except Exception as exc:  # pragma: no cover - diagnostic
        queue.put((type(exc).__name__, str(exc)))


@pytest.mark.skipif("fork" not in _available_methods(), reason="fork unavailable")
class TestForkLeak:
    def test_forked_child_gets_clear_error_not_empty_results(self):
        ctx = multiprocessing.get_context("fork")
        service = _make_service("sqlite")
        assert service.answer("a//d", "doc")  # warm + sanity in the parent
        queue = ctx.Queue()
        # Probe with a query the parent has NOT answered: a warmed query
        # would be served from the (process-agnostic) result cache without
        # ever touching the inherited sqlite connection.
        child = ctx.Process(target=_fork_child_probe, args=(service, "a//c", queue))
        child.start()
        kind, message = queue.get(timeout=30)
        child.join(timeout=30)
        assert kind == "execution-error", (kind, message)
        assert "process-affine" in message
        # The parent's store is untouched by the child's failure.
        assert service.answer("a//d", "doc")
        service.close()


def _spawn_rebuild_worker(dtd_text, dtd_name, tree, query, queue):
    """Runs in a spawned child: rebuild the affine store from shipped inputs.

    This is the worker-initializer discipline the pool uses — ship the DTD
    text and the (picklable) document tree, rebuild the SQLite store
    process-locally, and answer from the rebuilt store.
    """
    from repro.dtd.parser import parse_dtd
    from repro.service import QueryService

    service = QueryService(
        parse_dtd(dtd_text, name=dtd_name), config=EngineConfig(backend="sqlite")
    )
    service.register_document("doc", tree)
    nodes = service.answer(query, "doc")
    queue.put(sorted(node.node_id for node in nodes))
    service.close()


@pytest.mark.skipif("spawn" not in _available_methods(), reason="spawn unavailable")
class TestSpawnRebuild:
    def test_store_rebuilt_in_spawned_worker_matches_parent(self):
        ctx = multiprocessing.get_context("spawn")
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, seed=3)
        parent = QueryService(dtd, config=EngineConfig(backend="sqlite"))
        parent.register_document("doc", tree)
        expected = sorted(node.node_id for node in parent.answer("a//d", "doc"))

        queue = ctx.Queue()
        child = ctx.Process(
            target=_spawn_rebuild_worker,
            args=(dtd.to_text(), dtd.name, tree, "a//d", queue),
        )
        child.start()
        got = queue.get(timeout=60)
        child.join(timeout=60)
        assert got == expected and expected
        parent.close()
